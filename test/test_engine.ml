open Tiling_ir

let qcheck = QCheck_alcotest.to_alcotest

(* Differential validation against the trace-driven simulator: exact CME
   classification aggregated over the whole space must closely match the
   simulator's counts (they agreed exactly on every hand-checked kernel;
   we allow a tiny tolerance for residual model mismatches on random
   configurations). *)
let compare_with_sim ?(tol = 0.005) nest cache =
  let sim = Tiling_trace.Run.simulate nest cache in
  let engine = Tiling_cme.Engine.create nest cache in
  let est = Tiling_cme.Estimator.exact engine in
  let sim_miss = Tiling_cache.Sim.miss_ratio sim.Tiling_trace.Run.total in
  let sim_repl = Tiling_cache.Sim.replacement_ratio sim.Tiling_trace.Run.total in
  let cme_miss = est.Tiling_cme.Estimator.miss_ratio.Tiling_util.Stats.center in
  let cme_repl =
    est.Tiling_cme.Estimator.replacement_ratio.Tiling_util.Stats.center
  in
  if abs_float (sim_miss -. cme_miss) > tol then
    Alcotest.failf "%s: miss ratio sim %.4f vs cme %.4f" nest.Nest.name sim_miss
      cme_miss;
  if abs_float (sim_repl -. cme_repl) > tol then
    Alcotest.failf "%s: repl ratio sim %.4f vs cme %.4f" nest.Nest.name sim_repl
      cme_repl

let cache1k = Tiling_cache.Config.make ~size:1024 ~line:32 ()

let test_mm_exact () =
  compare_with_sim ~tol:1e-9 (Tiling_kernels.Kernels.mm 16) cache1k;
  compare_with_sim ~tol:1e-9
    (Transform.tile (Tiling_kernels.Kernels.mm 16) [| 4; 4; 4 |])
    cache1k;
  compare_with_sim ~tol:1e-9
    (Transform.tile (Tiling_kernels.Kernels.mm 16) [| 16; 6; 5 |])
    cache1k

let test_t2d_exact () =
  compare_with_sim ~tol:1e-9 (Tiling_kernels.Kernels.t2d 20) cache1k;
  compare_with_sim ~tol:1e-9
    (Transform.tile (Tiling_kernels.Kernels.t2d 20) [| 7; 5 |])
    cache1k

let test_transposes () =
  compare_with_sim (Tiling_kernels.Kernels.t3djik 12) cache1k;
  compare_with_sim (Tiling_kernels.Kernels.t3dikj 12) cache1k;
  compare_with_sim
    (Transform.tile (Tiling_kernels.Kernels.t3djik 14) [| 7; 2; 5 |])
    cache1k

let test_stencil () =
  compare_with_sim (Tiling_kernels.Kernels.jacobi3d 10) cache1k;
  compare_with_sim
    (Transform.tile (Tiling_kernels.Kernels.jacobi3d 10) [| 4; 3; 8 |])
    cache1k;
  (* Three rows of SOR 150 no longer fit in 8 KB: some vertical reuse is
     evicted, a replacement miss rather than a first touch. *)
  compare_with_sim ~tol:1e-9 (Tiling_kernels.Kernels.sor 150)
    Tiling_cache.Config.dm8k

let test_associative () =
  let c2 = Tiling_cache.Config.make ~size:1024 ~line:32 ~assoc:2 () in
  let c4 = Tiling_cache.Config.make ~size:2048 ~line:16 ~assoc:4 () in
  compare_with_sim (Tiling_kernels.Kernels.mm 14) c2;
  compare_with_sim (Tiling_kernels.Kernels.t3djik 14) c2;
  compare_with_sim (Tiling_kernels.Kernels.t3djik 14) c4;
  compare_with_sim
    (Transform.tile (Tiling_kernels.Kernels.t3djik 14) [| 5; 5; 5 |])
    c2;
  (* Sparse path images (lattice step above the line size): on each
     input the closed-form walk finds several interfering lines thousands
     of times and skips the reused line's own window hundreds of times. *)
  let c4_1k = Tiling_cache.Config.make ~size:1024 ~line:16 ~assoc:4 () in
  compare_with_sim ~tol:1e-9 (Tiling_kernels.Kernels.sor 16) c2;
  compare_with_sim ~tol:1e-9 (Tiling_kernels.Kernels.sor 24) c4_1k;
  compare_with_sim ~tol:1e-9
    (Transform.tile (Tiling_kernels.Kernels.mm 16) [| 4; 6; 3 |])
    c4_1k;
  compare_with_sim ~tol:1e-9
    (Transform.tile (Tiling_kernels.Kernels.mm 16) [| 4; 6; 3 |])
    (Tiling_cache.Config.make ~size:4096 ~line:32 ~assoc:4 ());
  (* A non-dense path image spanning hundreds of set windows: on the path
     from (k=1,a=1,b=1) back to (k=0,a=1,b=1), [z]'s image over the box
     a in 2..3, b in 1..2 spans 626 windows of 512 bytes, yet only one of
     its two lines falls in [y]'s set, so the access is a 2-way hit.  The
     count must walk every window exactly rather than give up on a wide
     image. *)
  let y = Array_decl.create "y" [| 32 |]
  and z = Array_decl.create "z" [| (2 * 40032) + 4 |] in
  Array_decl.set_base y 0;
  Array_decl.set_base z 768;
  compare_with_sim ~tol:1e-9
    Dsl.(
      nest ~name:"wide"
        ~loops:[ ("k", 1, 2); ("a", 1, 3); ("b", 1, 2) ]
        ~body:
          [
            load y [ (4 *! v "b") +! (8 *! v "a") -! i 11 ];
            load z [ v "b" +! (40032 *! v "a") -! i 40032 ];
          ]
        ())
    c2

let test_matvec () =
  compare_with_sim (Tiling_kernels.Kernels.matmul 24) cache1k;
  compare_with_sim ~tol:1e-9 (Tiling_kernels.Kernels.matmul 12)
    (Tiling_cache.Config.make ~size:2048 ~line:64 ());
  compare_with_sim ~tol:0.002
    (Transform.tile (Tiling_kernels.Kernels.matmul 24) [| 4; 6; 10 |])
    cache1k

let test_compulsory_matches_lines () =
  (* CME compulsory misses = first touches = distinct lines (simulator). *)
  let nest = Tiling_kernels.Kernels.mm 16 in
  let sim = Tiling_trace.Run.simulate nest cache1k in
  let engine = Tiling_cme.Engine.create nest cache1k in
  let est = Tiling_cme.Estimator.exact engine in
  Alcotest.(check int) "compulsory = lines touched"
    sim.Tiling_trace.Run.lines_touched est.Tiling_cme.Estimator.compulsory

let test_compulsory_invariant_under_tiling () =
  let nest = Tiling_kernels.Kernels.t2d 16 in
  let comp nest =
    let engine = Tiling_cme.Engine.create nest cache1k in
    (Tiling_cme.Estimator.exact engine).Tiling_cme.Estimator.compulsory
  in
  let base = comp nest in
  List.iter
    (fun tiles ->
      Alcotest.(check int) "tiling keeps compulsory" base
        (comp (Transform.tile nest tiles)))
    [ [| 4; 4 |]; [| 5; 3 |]; [| 16; 1 |] ]

let test_classify_point_directly () =
  (* Hand-checked case: MM n=4 with a 128-byte cache; the very first access
     of each reference at (1,1,1) is a compulsory miss. *)
  let nest = Tiling_kernels.Kernels.mm 4 in
  let cache = Tiling_cache.Config.make ~size:128 ~line:32 () in
  let engine = Tiling_cme.Engine.create nest cache in
  Alcotest.(check bool) "first a load compulsory" true
    (Tiling_cme.Engine.classify engine [| 1; 1; 1 |] 0
     = Tiling_cme.Engine.Compulsory_miss);
  (* The same-iteration store reuses the load: never compulsory. *)
  Alcotest.(check bool) "store not compulsory" true
    (Tiling_cme.Engine.classify engine [| 1; 1; 1 |] 3
     <> Tiling_cme.Engine.Compulsory_miss)

let test_memo_grows () =
  let nest = Transform.tile (Tiling_kernels.Kernels.mm 16) [| 4; 4; 4 |] in
  let engine = Tiling_cme.Engine.create nest cache1k in
  ignore (Tiling_cme.Estimator.exact engine);
  Alcotest.(check bool) "memo used" true (Tiling_cme.Engine.memo_size engine > 0)

let prop_random_tiles_match_simulator =
  QCheck.Test.make ~name:"CME matches simulator on random MM tilings" ~count:12
    QCheck.(triple (int_range 1 12) (int_range 1 12) (int_range 1 12))
    (fun (t1, t2, t3) ->
      let nest = Transform.tile (Tiling_kernels.Kernels.mm 12) [| t1; t2; t3 |] in
      let cache = Tiling_cache.Config.make ~size:512 ~line:32 () in
      let sim = Tiling_trace.Run.simulate nest cache in
      let engine = Tiling_cme.Engine.create nest cache in
      let est = Tiling_cme.Estimator.exact engine in
      abs_float
        (Tiling_cache.Sim.miss_ratio sim.Tiling_trace.Run.total
        -. est.Tiling_cme.Estimator.miss_ratio.Tiling_util.Stats.center)
      < 0.01)

let prop_random_t2d_caches =
  QCheck.Test.make ~name:"CME matches simulator across cache geometries"
    ~count:10
    (QCheck.make
       QCheck.Gen.(
         let* size_log = int_range 8 11 in
         let* assoc = oneofl [ 1; 2 ] in
         let* t1 = int_range 1 10 in
         let* t2 = int_range 1 10 in
         return (1 lsl size_log, assoc, t1, t2)))
    (fun (size, assoc, t1, t2) ->
      let cache = Tiling_cache.Config.make ~size ~line:32 ~assoc () in
      let nest = Transform.tile (Tiling_kernels.Kernels.t2d 10) [| t1; t2 |] in
      let sim = Tiling_trace.Run.simulate nest cache in
      let engine = Tiling_cme.Engine.create nest cache in
      let est = Tiling_cme.Estimator.exact engine in
      abs_float
        (Tiling_cache.Sim.replacement_ratio sim.Tiling_trace.Run.total
        -. est.Tiling_cme.Estimator.replacement_ratio.Tiling_util.Stats.center)
      < 0.01)

let suite =
  [
    Alcotest.test_case "MM exact vs simulator" `Quick test_mm_exact;
    Alcotest.test_case "T2D exact vs simulator" `Quick test_t2d_exact;
    Alcotest.test_case "3D transposes vs simulator" `Quick test_transposes;
    Alcotest.test_case "stencil vs simulator" `Quick test_stencil;
    Alcotest.test_case "set-associative vs simulator" `Quick test_associative;
    Alcotest.test_case "matvec vs simulator" `Quick test_matvec;
    Alcotest.test_case "compulsory = lines touched" `Quick
      test_compulsory_matches_lines;
    Alcotest.test_case "compulsory invariant under tiling" `Quick
      test_compulsory_invariant_under_tiling;
    Alcotest.test_case "point classification" `Quick test_classify_point_directly;
    Alcotest.test_case "memoisation" `Quick test_memo_grows;
    qcheck prop_random_tiles_match_simulator;
    qcheck prop_random_t2d_caches;
  ]

let test_reuse_sources_api () =
  (* a(i,j) load in MM at an interior point has (at least) the previous-k
     self source and the previous-k store source, both on the same line and
     both strictly earlier. *)
  let nest = Tiling_kernels.Kernels.mm 8 in
  let engine = Tiling_cme.Engine.create nest cache1k in
  let p = [| 3; 4; 5 |] in
  let sources = Tiling_cme.Engine.reuse_sources engine p 0 in
  Alcotest.(check bool) "has sources" true (List.length sources >= 1);
  let f = Tiling_ir.Nest.address_form nest nest.Tiling_ir.Nest.refs.(0) in
  let line_a = Tiling_ir.Affine.eval f p / 32 in
  List.iter
    (fun (src, src_ref) ->
      if Tiling_ir.Nest.lex_compare src p > 0 then
        Alcotest.fail "source after destination";
      if Tiling_ir.Nest.lex_compare src p = 0 && src_ref >= 0 then ();
      let g = Tiling_ir.Nest.address_form nest nest.Tiling_ir.Nest.refs.(src_ref) in
      Alcotest.(check int) "source on the same line" line_a
        (Tiling_ir.Affine.eval g src / 32);
      if not (Tiling_ir.Nest.mem_point nest src) then
        Alcotest.fail "source outside the space")
    sources

let test_reuse_sources_first_touch_empty () =
  (* The very first access of the execution can have no source. *)
  let nest = Tiling_kernels.Kernels.t2d 8 in
  let engine = Tiling_cme.Engine.create nest cache1k in
  Alcotest.(check int) "first access has no sources" 0
    (List.length (Tiling_cme.Engine.reuse_sources engine [| 1; 1 |] 0))

let test_normalisation_pushes_source_late () =
  (* b(i,k) in MM reuses across j and, along its line, across i: the
     source must be a latest realisation — (4,4,6) at the previous j, or
     for the previous i the top of its j-range, j = U_j (free dim maxed) —
     never merely some earlier j. *)
  let nest = Tiling_kernels.Kernels.mm 8 in
  let engine = Tiling_cme.Engine.create nest cache1k in
  let p = [| 4; 5; 6 |] in
  let sources = Tiling_cme.Engine.reuse_sources engine p 1 in
  Alcotest.(check bool) "some source has j maxed to 8" true
    (List.exists (fun (src, _) -> src.(1) = 8 && src.(0) = 3) sources
     || List.exists (fun (src, _) -> src.(0) = 4 && src.(1) = 4) sources)

let suite =
  suite
  @ [
      Alcotest.test_case "reuse_sources API" `Quick test_reuse_sources_api;
      Alcotest.test_case "first touch has no sources" `Quick
        test_reuse_sources_first_touch_empty;
      Alcotest.test_case "normalisation maxes free dims" `Quick
        test_normalisation_pushes_source_late;
    ]

let test_four_deep_vs_simulator () =
  let spec = Tiling_kernels.Kernels.find "ADD" in
  let nest = spec.Tiling_kernels.Kernels.build 6 in
  let cache = Tiling_cache.Config.make ~size:512 ~line:32 () in
  compare_with_sim ~tol:0.005 nest cache;
  (* Tiled, the 40-byte m-run wraps lines across three layout dimensions at
     once; the hit/miss decisions stay within a point, the
     compulsory/replacement attribution drifts ~1pp (documented
     over-approximation of compulsory). *)
  compare_with_sim ~tol:0.02 (Transform.tile nest [| 2; 3; 6; 2 |]) cache

let suite =
  suite
  @ [
      Alcotest.test_case "4-deep ADD vs simulator" `Quick
        test_four_deep_vs_simulator;
    ]

(* --- shared residue cache -------------------------------------------- *)

let est_center (e : Tiling_cme.Estimator.report) =
  ( e.Tiling_cme.Estimator.miss_ratio.Tiling_util.Stats.center,
    e.Tiling_cme.Estimator.replacement_ratio.Tiling_util.Stats.center )

let test_shared_residues_cross_engine () =
  Tiling_cme.Engine.set_shared_residue_capacity 4096;
  Tiling_cme.Engine.clear_shared_residues ();
  (* Every path image of untiled MM is a dense lattice, answered in closed
     form without a residue image. *)
  ignore
    (Tiling_cme.Estimator.exact
       (Tiling_cme.Engine.create (Tiling_kernels.Kernels.mm 16) cache1k));
  Alcotest.(check int) "dense images build no residue set" 0
    (Tiling_cme.Engine.shared_residue_size ());
  let nest = Transform.tile (Tiling_kernels.Kernels.mm 16) [| 4; 6; 3 |] in
  let r1 =
    est_center (Tiling_cme.Estimator.exact (Tiling_cme.Engine.create nest cache1k))
  in
  let after_first = Tiling_cme.Engine.shared_residue_size () in
  Alcotest.(check bool) "first engine populates the shared cache" true
    (after_first > 0);
  (* A brand-new engine over the same nest re-derives the same generator
     signatures, so it must hit the shared cache instead of growing it. *)
  let r2 =
    est_center (Tiling_cme.Estimator.exact (Tiling_cme.Engine.create nest cache1k))
  in
  Alcotest.(check int) "second engine adds no entries" after_first
    (Tiling_cme.Engine.shared_residue_size ());
  Alcotest.(check bool) "identical estimates" true (r1 = r2)

let test_shared_residues_eviction_correct () =
  let nest = Transform.tile (Tiling_kernels.Kernels.mm 12) [| 4; 6; 3 |] in
  Fun.protect
    ~finally:(fun () ->
      Tiling_cme.Engine.set_shared_residue_capacity 4096;
      Tiling_cme.Engine.clear_shared_residues ())
    (fun () ->
      Tiling_cme.Engine.set_shared_residue_capacity 4096;
      Tiling_cme.Engine.clear_shared_residues ();
      let full =
        est_center
          (Tiling_cme.Estimator.exact (Tiling_cme.Engine.create nest cache1k))
      in
      (* A pathologically tiny capacity forces constant eviction; results
         must not change, only the hit rate. *)
      Tiling_cme.Engine.set_shared_residue_capacity 1;
      Tiling_cme.Engine.clear_shared_residues ();
      let tiny =
        est_center
          (Tiling_cme.Estimator.exact (Tiling_cme.Engine.create nest cache1k))
      in
      Alcotest.(check bool) "eviction does not change results" true
        (full = tiny);
      Alcotest.(check bool) "capacity bound respected" true
        (Tiling_cme.Engine.shared_residue_size () <= 16))

let suite =
  suite
  @ [
      Alcotest.test_case "shared residues cross-engine" `Quick
        test_shared_residues_cross_engine;
      Alcotest.test_case "shared residues eviction-correct" `Quick
        test_shared_residues_eviction_correct;
    ]

(* --- closed-form windows of sparse lattices ------------------------- *)

(* The engine's walk over a lattice [{mn + g*j}] with [g > line] against a
   walk over every window of [mn, mx]: both must take the same first [cap]
   windows other than [m0], in order.  [pick < 4] puts [m0] on one of the
   first hitting windows when there are enough; otherwise it lands anywhere
   within two windows of the range. *)
let prop_lattice_windows =
  QCheck.Test.make ~name:"sparse lattice windows = window walk" ~count:2000
    (QCheck.make
       ~print:(fun (m, l, g, mn, last, set, cap, pick, spare) ->
         Printf.sprintf
           "M=%d L=%d g=%d mn=%d last=%d set=%d cap=%d pick=%d spare=%d" m l g
           mn last set cap pick spare)
       QCheck.Gen.(
         let* m_log = int_range 2 14 in
         let m = 1 lsl m_log in
         let* l_log = int_range 2 (min 6 m_log) in
         let l = 1 lsl l_log in
         let* g = int_range (l + 1) (4 * m) in
         let* mn = int_range (-3 * m) (3 * m) in
         let* last = int_range 0 200 in
         let* set = int_range 0 ((m / l) - 1) in
         let* cap = int_range 1 4 in
         let* pick = int_range 0 7 in
         let* spare = int_range 0 1_000_000 in
         return (m, l, g, mn, last, set, cap, pick, spare)))
    (fun (m, l, g, mn, last, set, cap, pick, spare) ->
      let floor_div = Tiling_util.Intmath.floor_div in
      let base = set * l and mx = mn + (g * last) in
      let m_lo = floor_div (mn - base) m and m_hi = floor_div (mx - base) m in
      let holds w =
        let lo = max mn (base + (w * m)) and hi = min mx (base + (w * m) + l - 1) in
        lo + Tiling_util.Intmath.pos_mod (mn - lo) g <= hi
      in
      let hits =
        List.filter holds (List.init (m_hi - m_lo + 1) (fun i -> m_lo + i))
      in
      let m0 =
        match List.nth_opt hits pick with
        | Some w when pick < 4 -> w
        | _ -> m_lo - 2 + (spare mod (m_hi - m_lo + 5))
      in
      let want =
        List.filteri (fun i _ -> i < cap) (List.filter (fun w -> w <> m0) hits)
      in
      let got = ref [] in
      Tiling_cme.Engine.lattice_windows ~base ~modulus:m ~line:l ~mn ~mx ~g ~m0
        (fun w ->
          got := w :: !got;
          List.length !got < cap);
      List.rev !got = want)

let suite = suite @ [ qcheck prop_lattice_windows ]

(* --- latest-source exactness ------------------------------------------ *)

(* The reuse source a brute-force walk back through execution order finds
   for reference [r] at the [i]-th point: the latest earlier point holding
   an access on the same memory line, and its last such reference. *)
let walk_back forms points ~line i r =
  let line_of p b = Tiling_util.Intmath.floor_div (Affine.eval forms.(b) p) line in
  let line_a = line_of points.(i) r in
  let last = Array.length forms - 1 in
  let rec at j b =
    if j < 0 then None
    else if b < 0 then at (j - 1) last
    else if line_of points.(j) b = line_a then Some (points.(j), b)
    else at j (b - 1)
  in
  at (i - 1) last

let show_point p = String.concat "," (Array.to_list (Array.map string_of_int p))

let check_latest_sources nest cache =
  let engine = Tiling_cme.Engine.create nest cache in
  let forms = Array.map (Nest.address_form nest) nest.Nest.refs in
  let points = ref [] in
  Nest.iter_points nest (fun p -> points := Array.copy p :: !points);
  let points = Array.of_list (List.rev !points) in
  let line = cache.Tiling_cache.Config.line in
  Array.iteri
    (fun i p ->
      Array.iteri
        (fun r _ ->
          let sources = Tiling_cme.Engine.reuse_sources engine p r in
          match walk_back forms points ~line i r with
          | Some (q, b) -> (
              match List.rev sources with
              | (src, src_ref) :: _ when src = q && src_ref = b -> ()
              | _ ->
                  Alcotest.failf
                    "%s: ref %d at (%s): the latest same-line access (ref %d \
                     at (%s)) is not the last source"
                    nest.Nest.name r (show_point p) b (show_point q))
          | None ->
              List.iter
                (fun (src, _) ->
                  if Nest.lex_compare src p < 0 then
                    Alcotest.failf
                      "%s: ref %d at (%s): source at (%s), but no earlier \
                       point touches the line"
                      nest.Nest.name r (show_point p) (show_point src))
                sources)
        nest.Nest.refs)
    points

let test_latest_source_exact () =
  let dm512 = Tiling_cache.Config.make ~size:512 ~line:32 () in
  let two_way = Tiling_cache.Config.make ~size:1024 ~line:32 ~assoc:2 () in
  let dm2k_64 = Tiling_cache.Config.make ~size:2048 ~line:64 () in
  List.iter
    (fun build ->
      let nest = build 8 in
      let tiles = Array.sub [| 3; 5; 3 |] 0 (Nest.depth nest) in
      List.iter
        (fun nest ->
          List.iter (check_latest_sources nest) [ dm512; two_way; dm2k_64 ])
        [ nest; Transform.tile nest tiles ])
    Tiling_kernels.Kernels.[ lu; cholesky; syrk; mm; matmul; sor; t2d ]

let suite =
  suite
  @ [
      Alcotest.test_case "latest source = brute-force walk (affine)" `Quick
        test_latest_source_exact;
    ]

(* The point solver's allocation, a deterministic counter: the words the
   test's domain allocates while classifying every access of a fixed
   164-point sample, per classification.  The path walk, the interference
   count and the source search run in per-engine scratch; what remains is
   residue images built on memo misses (the shared cache is emptied first,
   so every case starts cold) and the sparse window walk's options.  MM's
   bound is about 1.5 times the figure measured when it was set (19.3
   words); SOR, LU and T2D measured under 0.02 words, so their bound of 1
   word fails on a single boxed allocation per classification. *)
let test_classify_allocation () =
  let cache = Tiling_cache.Config.make ~size:8192 ~line:32 () in
  List.iter
    (fun (name, nest, tiles, bound) ->
      let nest = Transform.tile nest tiles in
      let rng = Tiling_util.Prng.create ~seed:164 in
      let points = Array.init 164 (fun _ -> Nest.random_point nest rng) in
      Tiling_cme.Engine.clear_shared_residues ();
      let engine = Tiling_cme.Engine.create nest cache in
      let nrefs = Array.length nest.Nest.refs in
      let before = Gc.minor_words () in
      Array.iter
        (fun p ->
          for r = 0 to nrefs - 1 do
            ignore (Tiling_cme.Engine.classify engine p r : Tiling_cme.Engine.outcome)
          done)
        points;
      let words = (Gc.minor_words () -. before) /. float_of_int (164 * nrefs) in
      if words > bound then
        Alcotest.failf "%s: %.1f words per classification, bound %.0f" name words
          bound)
    Tiling_kernels.Kernels.
      [
        ("MM 24 [5,7,3]", mm 24, [| 5; 7; 3 |], 30.);
        ("SOR 32 [7,5]", sor 32, [| 7; 5 |], 1.);
        ("LU 16 [3,5,4]", lu 16, [| 3; 5; 4 |], 1.);
        ("T2D 64 [8,8]", t2d 64, [| 8; 8 |], 1.);
      ]

let suite =
  suite
  @ [
      Alcotest.test_case "classification allocation bound" `Quick
        test_classify_allocation;
    ]

(* --- range-first rejection --------------------------------------------- *)

(* Every access of every reference at every point strictly between two
   points lies in that reference's path hull, the interval the
   interference count tests before it walks the path: a reference the
   hulls leave out of the walk has no access on the path to count. *)
let prop_path_hull_sound =
  QCheck.Test.make ~name:"path hull holds every access on the path" ~count:300
    (QCheck.make
       ~print:(fun (depth, tri, tiled, size, assoc, seed) ->
         Printf.sprintf "depth=%d tri=%b tiled=%b cache=%d/32/%d seed=%d" depth
           tri tiled size assoc seed)
       QCheck.Gen.(
         let* depth = int_range 2 4 in
         let* tri = bool in
         let* tiled = bool in
         let* size = oneofl [ 8192; 32768 ] in
         let* assoc = oneofl [ 1; 4 ] in
         let* seed = int_range 0 100_000 in
         return (depth, tri, tiled, size, assoc, seed)))
    (fun (depth, tri, tiled, size, assoc, seed) ->
      let spec =
        {
          Tiling_kernels.Random_kernel.default_spec with
          depth;
          extents = Array.make depth (if depth = 4 then 5 else 7);
          steps = Array.make depth 1;
          max_coeff = 3;
          tri_ratio = (if tri then 0.8 else 0.);
        }
      in
      let nest = Tiling_kernels.Random_kernel.generate ~spec ~seed () in
      let rng = Tiling_util.Prng.create ~seed in
      let nest =
        if tiled then
          Transform.tile nest
            (Array.map
               (fun s -> Tiling_util.Prng.int_in rng ~lo:1 ~hi:s)
               (Transform.tile_spans nest))
        else nest
      in
      let engine =
        Tiling_cme.Engine.create nest
          (Tiling_cache.Config.make ~size ~line:32 ~assoc ())
      in
      let a = Nest.random_point nest rng and b = Nest.random_point nest rng in
      let src, dst = if Nest.lex_compare a b <= 0 then (a, b) else (b, a) in
      Nest.lex_compare src dst = 0
      ||
      let forms = Array.map (Nest.address_form nest) nest.Nest.refs in
      let hulls =
        Array.mapi
          (fun r _ -> Tiling_cme.Engine.path_hull engine ~src ~dst r)
          forms
      in
      let inside = ref true in
      List.iter
        (fun box ->
          Tiling_cme.Box.iter_points box (fun p ->
              Array.iteri
                (fun r f ->
                  let lo, hi = hulls.(r) and v = Affine.eval f p in
                  if v < lo || v > hi then inside := false)
                forms))
        (Tiling_cme.Path.between nest ~src ~dst);
      !inside)

(* Ranges ending and starting exactly on window boundaries.  The reused
   lines are [x]'s, in sets 6 and 7 of 8 sets of 32-byte lines (direct-
   mapped and 2-way), so a set's windows are 256 bytes apart.  The swept
   array, one access per line, moves byte by byte over two windows' worth
   of bases, so a range's end is often the only access in its window, and
   across the sweep its path images and hulls end on a window's first
   byte ([base + m*M]),
   start on a window's last byte ([base + m*M + L - 1]), hold only the
   reused line's own window, and lie wholly below the set's first window
   [base] where the window bounds floor.  [y] moves with the outer loop
   too, so its path images are partial rows whose ends the range test
   must place exactly; [z] does not, so on a path across a row its hull
   is the row itself, attained at both ends, and the hull test must place
   it exactly.  Every access is classified against the simulator. *)
let test_window_boundaries () =
  let sweep ~assoc build =
    let cache =
      Tiling_cache.Config.make ~size:(256 * assoc) ~line:32 ~assoc ()
    in
    for shift = 0 to 511 do
      compare_with_sim ~tol:1e-9 (build shift) cache
    done
  in
  let x () =
    let x = Array_decl.create "x" [| 8 |] in
    Array_decl.set_base x 192;
    x
  in
  let row_major shift =
    let x = x () and y = Array_decl.create "y" [| 96 |] in
    Array_decl.set_base y shift;
    Dsl.(
      nest ~name:(Printf.sprintf "edge-y%d" shift)
        ~loops:[ ("i", 1, 3); ("j", 1, 6) ]
        ~body:
          [ load x [ v "j" ]; load y [ (4 *! v "j") +! (24 *! v "i") ] ]
        ())
  and same_row shift =
    let x = x () and z = Array_decl.create "z" [| 24 |] in
    Array_decl.set_base z shift;
    Dsl.(
      nest ~name:(Printf.sprintf "edge-z%d" shift)
        ~loops:[ ("i", 1, 3); ("j", 1, 6) ]
        ~body:[ load x [ v "j" ]; load z [ 4 *! v "j" ] ]
        ())
  in
  List.iter
    (fun assoc ->
      sweep ~assoc row_major;
      sweep ~assoc same_row)
    [ 1; 2 ]

(* Tiled kernels at 32 KB, where most paths never reach the reused line's
   set and are settled by their ranges, yet a few conflict: MM 40 has
   0.69 % and 0.01 % replacement misses direct-mapped and 4-way, T2D 200
   0.69 % and 0.50 %. *)
let test_32k_exact () =
  List.iter
    (fun assoc ->
      let cache = Tiling_cache.Config.make ~size:32768 ~line:32 ~assoc () in
      compare_with_sim ~tol:1e-9
        (Transform.tile (Tiling_kernels.Kernels.mm 40) [| 20; 40; 10 |])
        cache;
      compare_with_sim ~tol:1e-9
        (Transform.tile (Tiling_kernels.Kernels.t2d 200) [| 50; 8 |])
        cache)
    [ 1; 4 ]

let suite =
  suite
  @ [
      qcheck prop_path_hull_sound;
      Alcotest.test_case "window boundaries exact vs simulator" `Quick
        test_window_boundaries;
      Alcotest.test_case "32 KB exact vs simulator" `Quick test_32k_exact;
    ]
