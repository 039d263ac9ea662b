(* The closed-form aggregator must be a census: identical totals to
   Estimator.exact wherever it accepts, refusal (never silent degradation)
   where its periodicity premises fail.  The backend built on it must agree
   with cme-exact where the sample's budget fits the census, and answer
   with the scaled sample where it does not. *)

open Tiling_cme

let check_census name nest cache =
  let exact = Estimator.exact (Engine.create nest cache) in
  match Closed_form.estimate (Engine.create nest cache) with
  | Error reason ->
      Alcotest.failf "%s: closed form refused (%a)" name Closed_form.pp_reason
        reason
  | Ok r ->
      Alcotest.(check int)
        (name ^ ": points") exact.Estimator.points r.Estimator.points;
      Alcotest.(check int)
        (name ^ ": accesses") exact.Estimator.accesses r.Estimator.accesses;
      Alcotest.(check int)
        (name ^ ": misses") exact.Estimator.misses r.Estimator.misses;
      Alcotest.(check int)
        (name ^ ": compulsory") exact.Estimator.compulsory
        r.Estimator.compulsory;
      Array.iteri
        (fun i (c : Estimator.ref_counts) ->
          let c' = r.Estimator.per_ref.(i) in
          Alcotest.(check int)
            (Printf.sprintf "%s: ref %d misses" name i)
            c.Estimator.r_misses c'.Estimator.r_misses)
        exact.Estimator.per_ref

let geometries =
  [
    ("dm256", Tiling_cache.Config.make ~size:256 ~line:32 ());
    ("dm1k", Tiling_cache.Config.make ~size:1024 ~line:32 ());
  ]

let test_census_matches_exact () =
  List.iter
    (fun (cname, cache) ->
      List.iter
        (fun (kname, nest) ->
          check_census (kname ^ "/" ^ cname) nest cache)
        [
          ("mm8", Tiling_kernels.Kernels.mm 8);
          ("mm12", Tiling_kernels.Kernels.mm 12);
          ("t2d16", Tiling_kernels.Kernels.t2d 16);
          ("jacobi3d8", Tiling_kernels.Kernels.jacobi3d 8);
        ])
    geometries

let test_census_matches_exact_tiled () =
  (* Three tilings per geometry, including a ragged one: tiled nests have
     multi-entry boxes and exercise the outer-dimension memo. *)
  List.iter
    (fun (cname, cache) ->
      List.iter
        (fun tiles ->
          let nest = Tiling_ir.Transform.tile (Tiling_kernels.Kernels.mm 8) tiles in
          check_census
            (Printf.sprintf "mm8[%d,%d,%d]/%s" tiles.(0) tiles.(1) tiles.(2)
               cname)
            nest cache)
        [ [| 2; 2; 8 |]; [| 4; 8; 4 |]; [| 3; 5; 7 |] ])
    geometries

let test_census_associative () =
  let cache = Tiling_cache.Config.make ~size:512 ~line:32 ~assoc:2 () in
  check_census "mm8/2-way" (Tiling_kernels.Kernels.mm 8) cache

let test_census_larger_than_exhaustive_window () =
  (* Size chosen so rows are long enough that the middle is genuinely
     extrapolated (n >> 2w + pi for this geometry), not just re-censused. *)
  let cache = Tiling_cache.Config.make ~size:256 ~line:16 () in
  check_census "t2d96" (Tiling_kernels.Kernels.t2d 96) cache

let test_refuses_affine () =
  (* Triangular nests carry affine-coupled bounds: the closed form must
     refuse them, which is what trips the backend's sampling fallback. *)
  let nest = Tiling_kernels.Kernels.lu 12 in
  let cache = Tiling_cache.Config.make ~size:256 ~line:32 () in
  match Closed_form.estimate (Engine.create nest cache) with
  | Error `Affine -> ()
  | Error `Budget -> Alcotest.fail "expected `Affine, got `Budget"
  | Ok _ -> Alcotest.fail "closed form accepted a triangular nest"

let test_refuses_budget () =
  let nest = Tiling_kernels.Kernels.mm 8 in
  let cache = Tiling_cache.Config.make ~size:256 ~line:32 () in
  match Closed_form.estimate ~budget:10 (Engine.create nest cache) with
  | Error `Budget -> ()
  | Error `Affine -> Alcotest.fail "expected `Budget, got `Affine"
  | Ok _ -> Alcotest.fail "budget of 10 classifications was not exhausted"

let test_backend_registered () =
  (match Tiling_search.Backend.of_string "symbolic" with
  | Ok b ->
      Alcotest.(check string) "name" "symbolic" b.Tiling_search.Backend.name
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool)
    "listed" true
    (List.mem "symbolic" Tiling_search.Backend.names)

let test_backend_matches_exact () =
  (* The symbolic backend's census may spend what classifying the embedded
     sample would.  Given every point of the space, that is the whole
     census: the objective equals cme-exact's, with no fallback.  Given a
     164-point subset, the census does not fit: the backend falls back once
     and answers with the subset's count scaled to the whole space. *)
  let symbolic = Tiling_search.Backend.symbolic in
  let exact = Tiling_search.Backend.cme_exact in
  let fallbacks = Tiling_obs.Metrics.counter "symbolic.fallbacks" in
  Tiling_obs.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Tiling_obs.Metrics.set_enabled false)
  @@ fun () ->
  List.iter
    (fun (cname, cache) ->
      List.iter
        (fun tiles ->
          let nest =
            Tiling_ir.Transform.tile (Tiling_kernels.Kernels.t2d 16) tiles
          in
          let label =
            Printf.sprintf "t2d16[%d,%d]/%s" tiles.(0) tiles.(1) cname
          in
          let all = ref [] in
          Tiling_ir.Nest.iter_points nest (fun p ->
              all := Array.copy p :: !all);
          let all = Array.of_list (List.rev !all) in
          let cost points =
            let fb0 = Tiling_obs.Metrics.counter_value fallbacks in
            let c = symbolic.Tiling_search.Backend.cost cache nest ~points in
            (c, Tiling_obs.Metrics.counter_value fallbacks - fb0)
          in
          let cs, fb = cost all in
          let ce = exact.Tiling_search.Backend.cost cache nest ~points:[||] in
          Alcotest.(check (float 0.0)) (label ^ ": every point, exact") ce cs;
          Alcotest.(check int) (label ^ ": every point, no fallback") 0 fb;
          let subset = Array.sub all 0 164 in
          let cs, fb = cost subset in
          let sampled =
            Estimator.sample_at (Engine.create nest cache) subset
          in
          let scaled =
            float_of_int (Estimator.replacement sampled)
            *. (float_of_int
                  (Tiling_ir.Nest.trip_count nest
                  * Array.length nest.Tiling_ir.Nest.refs)
               /. float_of_int sampled.Estimator.accesses)
          in
          Alcotest.(check (float 0.0))
            (label ^ ": 164 points, scaled")
            scaled cs;
          Alcotest.(check int) (label ^ ": 164 points, one fallback") 1 fb)
        [ [| 4; 4 |]; [| 8; 2 |]; [| 5; 7 |] ])
    [
      ("dm512", Tiling_cache.Config.make ~size:512 ~line:32 ());
      ("2-way 1k", Tiling_cache.Config.make ~size:1024 ~line:32 ~assoc:2 ());
    ]

let test_backend_fallback_on_triangular () =
  (* On a triangular nest the backend must fall back to sampling (finite
     cost from the embedded sample) and bump symbolic.fallbacks. *)
  let nest = Tiling_kernels.Kernels.lu 12 in
  let cache = Tiling_cache.Config.make ~size:256 ~line:32 () in
  let points =
    Array.init 64 (fun i ->
        let rng = Tiling_util.Prng.create ~seed:(1000 + i) in
        Tiling_ir.Nest.random_point nest rng)
  in
  let fallbacks = Tiling_obs.Metrics.counter "symbolic.fallbacks" in
  Tiling_obs.Metrics.set_enabled true;
  let before = Tiling_obs.Metrics.counter_value fallbacks in
  let cost =
    Fun.protect
      ~finally:(fun () -> Tiling_obs.Metrics.set_enabled false)
      (fun () ->
        Tiling_search.Backend.symbolic.Tiling_search.Backend.cost cache nest
          ~points)
  in
  let after = Tiling_obs.Metrics.counter_value fallbacks in
  Alcotest.(check bool) "fallback counted" true (after > before);
  Alcotest.(check bool) "finite cost" true (Float.is_finite cost);
  (* Whole-space scaling: the fallback cost must be on census magnitude,
     i.e. bounded by total accesses. *)
  let total =
    float_of_int
      (Tiling_ir.Nest.trip_count nest * Array.length nest.Tiling_ir.Nest.refs)
  in
  Alcotest.(check bool) "census-scale" true (cost >= 0. && cost <= total)

(* A deterministic stream of distinct tile vectors in batches of a GA
   generation's size: the first component follows a counter, so every
   candidate misses the objective memo and reaches the backend. *)
let candidate_batches ~spans ~batches ~batch_size ~seed =
  let rng = Tiling_util.Prng.create ~seed in
  let counter = ref 0 in
  Array.init batches (fun _ ->
      Array.init batch_size (fun _ ->
          incr counter;
          Array.mapi
            (fun l span ->
              if l = 0 then 1 + (!counter mod span)
              else 1 + Tiling_util.Prng.int rng span)
            spans))

let test_backend_eval_gates () =
  (* The symbolic backend behind the evaluation service: fresh candidates
     on 1 and 4 domains, with the shared residue cache cold and then warm.
     The census may spend what the 32-point sample would, and no census of
     these spaces fits that: every candidate falls back to the sample, on
     rectangular MM at the 1 KB modulus and at 8 KB as on affine LU 100,
     and each refusal is decided upfront.  Each evaluation here takes about
     a millisecond or less, so the per-evaluation bounds catch a refusal
     that grinds (a 100-1000x blow-up), not machine noise. *)
  let seed = 20020815 in
  let fallbacks = Tiling_obs.Metrics.counter "symbolic.fallbacks" in
  Tiling_obs.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Tiling_obs.Metrics.set_enabled false)
  @@ fun () ->
  List.iter
    (fun (kernel, n, cache) ->
      let nest = (Tiling_kernels.Kernels.find kernel).build n in
      let sample = Tiling_core.Sample.create ~n:32 ~seed nest in
      let batches =
        candidate_batches
          ~spans:(Tiling_ir.Transform.tile_spans nest)
          ~batches:2 ~batch_size:4 ~seed:(seed + n)
      in
      List.iter
        (fun domains ->
          List.iter
            (fun residues ->
              if residues = "cold" then Engine.clear_shared_residues ();
              let eval =
                Tiling_search.Eval.create
                  ~backend:Tiling_search.Backend.symbolic ~domains ~cache
                  ~prepare:(fun tiles ->
                    ( Tiling_ir.Transform.tile nest tiles,
                      Tiling_core.Sample.embed sample ~tiles ))
                  ()
              in
              let label =
                Printf.sprintf "%s_%d at %d B, %d domains, %s residues"
                  kernel n cache.Tiling_cache.Config.size domains residues
              in
              let fb0 = Tiling_obs.Metrics.counter_value fallbacks in
              let t0 = Unix.gettimeofday () in
              Array.iter
                (fun batch ->
                  ignore (Tiling_search.Eval.evaluate_all eval batch))
                batches;
              let wall = Unix.gettimeofday () -. t0 in
              let evals = Tiling_search.Eval.fresh eval in
              Alcotest.(check int) (label ^ ": fresh evaluations") 8 evals;
              Alcotest.(check int)
                (label ^ ": symbolic.fallbacks added")
                8
                (Tiling_obs.Metrics.counter_value fallbacks - fb0);
              let per_eval = wall /. float_of_int evals in
              let bound = if kernel = "LU" then 0.25 else 0.10 in
              if per_eval > bound then
                Alcotest.failf "%s: %.3f s per evaluation (bound %.2f s)"
                  label per_eval bound)
            [ "cold"; "warm" ])
        [ 1; 4 ])
    [
      ("MM", 200, Tiling_cache.Config.dm8k);
      ("MM", 64, Tiling_cache.Config.dm8k);
      ("MM", 64, Tiling_cache.Config.dm1k);
      ("LU", 100, Tiling_cache.Config.dm8k);
    ]

let test_entry_reach_pinned () =
  (* The reach values drive window sizing (hoisted to one per-nest pass
     over the reuse vectors); pin them so a hoisting or reuse-analysis
     change that silently widens or narrows boundary windows is caught. *)
  let reaches nest =
    let reuse =
      Tiling_reuse.Vectors.of_nest nest
        ~line:Tiling_cache.Config.dm8k.Tiling_cache.Config.line
    in
    List.map
      (fun box ->
        List.map (Closed_form.entry_reach reuse) box.Box.entries)
      (Path.full_space nest)
  in
  Alcotest.(check (list (list int)))
    "mm8" [ [ 7; 1; 7 ] ]
    (reaches (Tiling_kernels.Kernels.mm 8));
  Alcotest.(check (list (list int)))
    "jacobi3d8" [ [ 2; 5; 5 ] ]
    (reaches (Tiling_kernels.Kernels.jacobi3d 8));
  Alcotest.(check (list (list int)))
    "mm8 tiled [2,2,8]"
    [ [ 4; 7; 1; 1; 7 ] ]
    (reaches
       (Tiling_ir.Transform.tile (Tiling_kernels.Kernels.mm 8) [| 2; 2; 8 |]))

let test_census_dm8k_matches_exact () =
  (* Flagship geometry: at dm8k the inner-row period lcm is 1024, far past
     the extrapolation cap, so the census must degrade to an exhaustive
     (still exact) walk — per reference — without a single fallback. *)
  let cache = Tiling_cache.Config.dm8k in
  let nest = Tiling_kernels.Kernels.mm 20 in
  let fallbacks = Tiling_obs.Metrics.counter "symbolic.fallbacks" in
  Tiling_obs.Metrics.set_enabled true;
  let before = Tiling_obs.Metrics.counter_value fallbacks in
  Fun.protect
    ~finally:(fun () -> Tiling_obs.Metrics.set_enabled false)
    (fun () -> check_census "mm20/dm8k" nest cache);
  Alcotest.(check int)
    "symbolic.fallbacks unchanged" before
    (Tiling_obs.Metrics.counter_value fallbacks)

let test_census_parallel_identical () =
  (* Pool-parallel row walks must be byte-identical to the sequential
     census: every field of the report, not just the totals. *)
  let cache = Tiling_cache.Config.dm8k in
  let nest = Tiling_kernels.Kernels.mm 32 in
  let run domains =
    match Closed_form.estimate ~domains (Engine.create nest cache) with
    | Error reason ->
        Alcotest.failf "domains=%d refused (%a)" domains Closed_form.pp_reason
          reason
    | Ok r -> r
  in
  let seq = run 1 and par = run 4 in
  Alcotest.(check int) "points" seq.Estimator.points par.Estimator.points;
  Alcotest.(check int) "accesses" seq.Estimator.accesses par.Estimator.accesses;
  Alcotest.(check int) "misses" seq.Estimator.misses par.Estimator.misses;
  Alcotest.(check int)
    "compulsory" seq.Estimator.compulsory par.Estimator.compulsory;
  Array.iteri
    (fun i (c : Estimator.ref_counts) ->
      let c' = par.Estimator.per_ref.(i) in
      Alcotest.(check int)
        (Printf.sprintf "ref %d misses" i)
        c.Estimator.r_misses c'.Estimator.r_misses;
      Alcotest.(check int)
        (Printf.sprintf "ref %d compulsory" i)
        c.Estimator.r_compulsory c'.Estimator.r_compulsory)
    seq.Estimator.per_ref

let suite =
  [
    Alcotest.test_case "census = exact (rect kernels)" `Slow
      test_census_matches_exact;
    Alcotest.test_case "census = exact (tiled)" `Slow
      test_census_matches_exact_tiled;
    Alcotest.test_case "census = exact (2-way)" `Slow test_census_associative;
    Alcotest.test_case "census = exact (extrapolated rows)" `Slow
      test_census_larger_than_exhaustive_window;
    Alcotest.test_case "refuses affine nests" `Quick test_refuses_affine;
    Alcotest.test_case "refuses on budget" `Quick test_refuses_budget;
    Alcotest.test_case "backend registered" `Quick test_backend_registered;
    Alcotest.test_case "backend = cme-exact on rotation" `Slow
      test_backend_matches_exact;
    Alcotest.test_case "backend falls back on triangular" `Quick
      test_backend_fallback_on_triangular;
    Alcotest.test_case "backend eval: every row falls back, per-eval bound"
      `Quick test_backend_eval_gates;
    Alcotest.test_case "entry reach pinned" `Quick test_entry_reach_pinned;
    Alcotest.test_case "census = exact at dm8k, no fallback" `Slow
      test_census_dm8k_matches_exact;
    Alcotest.test_case "parallel census identical" `Slow
      test_census_parallel_identical;
  ]
