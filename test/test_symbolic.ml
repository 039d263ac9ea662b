(* The symbolic (polyhedra-based) CME solver is the paper's "first
   principles" method; it must agree with the fast residue-set engine point
   by point, and with the simulator in aggregate.  Tiny kernels only: the
   whole point of section 2.3 is that this method does not scale. *)

open Tiling_ir
open Tiling_cme

let qcheck = QCheck_alcotest.to_alcotest

let small_cache = Tiling_cache.Config.make ~size:256 ~line:32 ()

let agree_on nest cache =
  let engine = Engine.create nest cache in
  let mism = ref 0 and total = ref 0 in
  Nest.iter_points nest (fun p ->
      Array.iteri
        (fun r _ ->
          incr total;
          let fast = Engine.classify engine p r in
          let slow = Symbolic.classify nest cache p r in
          let same =
            match (fast, slow) with
            | Engine.Hit, Symbolic.Hit
            | Engine.Compulsory_miss, Symbolic.Compulsory_miss
            | Engine.Replacement_miss, Symbolic.Replacement_miss ->
                true
            | _ -> false
          in
          if not same then incr mism)
        nest.Nest.refs);
  (!mism, !total)

let test_mm_agreement () =
  let nest = Tiling_kernels.Kernels.mm 6 in
  let mism, total = agree_on nest small_cache in
  Alcotest.(check int) (Printf.sprintf "0 of %d disagree" total) 0 mism

let test_t2d_agreement () =
  let nest = Tiling_kernels.Kernels.t2d 8 in
  let mism, _ = agree_on nest small_cache in
  Alcotest.(check int) "no disagreements" 0 mism

let test_tiled_agreement () =
  let nest = Transform.tile (Tiling_kernels.Kernels.t2d 8) [| 3; 5 |] in
  let mism, _ = agree_on nest small_cache in
  Alcotest.(check int) "no disagreements (tiled, ragged)" 0 mism

let test_against_simulator () =
  let nest = Tiling_kernels.Kernels.mm 6 in
  let sim = Tiling_trace.Run.simulate nest small_cache in
  let misses = ref 0 in
  Nest.iter_points nest (fun p ->
      Array.iteri
        (fun r _ ->
          match Symbolic.classify nest small_cache p r with
          | Symbolic.Hit -> ()
          | _ -> incr misses)
        nest.Nest.refs);
  Alcotest.(check int) "symbolic misses = simulator misses"
    sim.Tiling_trace.Run.total.Tiling_cache.Sim.misses !misses

let test_associative_agreement () =
  (* The associativity lattice: distinct wrap values = distinct interfering
     lines, so a 2-way cache needs two of them to evict.  Must agree with
     the fast engine's own k-way counting. *)
  let c2 = Tiling_cache.Config.make ~size:256 ~line:32 ~assoc:2 () in
  let nest = Tiling_kernels.Kernels.mm 6 in
  let mism, total = agree_on nest c2 in
  Alcotest.(check int) (Printf.sprintf "0 of %d disagree (2-way)" total) 0 mism

let test_associative_distinct_lines_cap () =
  (* The cap never changes the decision threshold: capped at k, the count
     is min k (true count). *)
  let c2 = Tiling_cache.Config.make ~size:256 ~line:32 ~assoc:2 () in
  let nest = Tiling_kernels.Kernels.mm 6 in
  let src = [| 3; 2; 1 |] and dst = [| 3; 2; 2 |] in
  let full =
    Symbolic.distinct_interfering_lines nest c2 ~src ~src_ref:0 ~dst ~dst_ref:0
  in
  let capped =
    Symbolic.distinct_interfering_lines ~cap:2 nest c2 ~src ~src_ref:0 ~dst
      ~dst_ref:0
  in
  Alcotest.(check int) "capped = min cap full" (min 2 full) capped

let test_polyhedra_structure () =
  (* For a same-iteration reuse edge in MM the path is two references at
     one point: the polyhedra are 1-dimensional (wrap variable only). *)
  let nest = Tiling_kernels.Kernels.mm 6 in
  let ps =
    Symbolic.replacement_polyhedra nest small_cache ~src:[| 2; 3; 4 |]
      ~src_ref:0 ~dst:[| 2; 3; 4 |] ~dst_ref:3
  in
  Alcotest.(check int) "two refs x two halves" 4 (List.length ps);
  List.iter
    (fun (p : Tiling_polyhedra.Polyhedron.t) ->
      Alcotest.(check int) "wrap variable only" 1 p.Tiling_polyhedra.Polyhedron.dim)
    ps

let test_interference_counting () =
  (* Counting integer points in the replacement polyhedra: the b and c
     rows/columns swept between consecutive k iterations of MM contain a
     known number of set-conflicting accesses; spot-check it is finite,
     non-negative, and consistent with emptiness. *)
  let nest = Tiling_kernels.Kernels.mm 6 in
  let src = [| 3; 2; 1 |] and dst = [| 3; 2; 2 |] in
  let n =
    Symbolic.count_interference_points nest small_cache ~src ~src_ref:0 ~dst
      ~dst_ref:0
  in
  let any =
    List.exists Tiling_polyhedra.Polyhedron.has_integer_point
      (Symbolic.replacement_polyhedra nest small_cache ~src ~src_ref:0 ~dst
         ~dst_ref:0)
  in
  Alcotest.(check bool) "count consistent with emptiness" any (n > 0)

let prop_random_tilings_agree =
  QCheck.Test.make ~name:"fast and symbolic solvers agree on random tilings"
    ~count:6
    QCheck.(pair (int_range 1 8) (int_range 1 8))
    (fun (t1, t2) ->
      let nest = Transform.tile (Tiling_kernels.Kernels.t2d 8) [| t1; t2 |] in
      let mism, _ = agree_on nest small_cache in
      mism = 0)

let suite =
  [
    Alcotest.test_case "MM agreement" `Slow test_mm_agreement;
    Alcotest.test_case "T2D agreement" `Slow test_t2d_agreement;
    Alcotest.test_case "tiled agreement" `Slow test_tiled_agreement;
    Alcotest.test_case "matches simulator" `Slow test_against_simulator;
    Alcotest.test_case "associative agreement (2-way)" `Slow
      test_associative_agreement;
    Alcotest.test_case "distinct-lines cap" `Quick
      test_associative_distinct_lines_cap;
    Alcotest.test_case "polyhedra structure" `Quick test_polyhedra_structure;
    Alcotest.test_case "interference counting" `Quick test_interference_counting;
    qcheck prop_random_tilings_agree;
  ]

let test_symbolic_on_bigger_cache () =
  (* A second geometry for the symbolic/fast agreement. *)
  let cache = Tiling_cache.Config.make ~size:512 ~line:32 () in
  let nest = Transform.tile (Tiling_kernels.Kernels.mm 6) [| 2; 3; 6 |] in
  let mism, total = agree_on nest cache in
  Alcotest.(check int) (Printf.sprintf "0 of %d" total) 0 mism

let test_interference_monotone_in_path () =
  (* Extending the reuse path can only add interference points. *)
  let nest = Tiling_kernels.Kernels.mm 6 in
  let cache = Tiling_cache.Config.make ~size:256 ~line:32 () in
  let count src dst =
    Symbolic.count_interference_points nest cache ~src ~src_ref:1 ~dst
      ~dst_ref:1
  in
  let short = count [| 2; 2; 1 |] [| 2; 2; 2 |] in
  let long = count [| 2; 2; 1 |] [| 2; 3; 2 |] in
  Alcotest.(check bool)
    (Printf.sprintf "monotone (%d <= %d)" short long)
    true (short <= long)

let suite =
  suite
  @ [
      Alcotest.test_case "second geometry" `Slow test_symbolic_on_bigger_cache;
      Alcotest.test_case "interference monotone in path" `Quick
        test_interference_monotone_in_path;
    ]

(* Accesses with several same-line sources: SOR's six references give
   most of its accesses more than one, of which the point solver tests only
   the latest; the tiled MM adds sources across tile seams and in ragged
   tiles. *)
let test_early_exit_agreement () =
  let c2 = Tiling_cache.Config.make ~size:256 ~line:32 ~assoc:2 () in
  let sor = Tiling_kernels.Kernels.sor 8 in
  let mm = Transform.tile (Tiling_kernels.Kernels.mm 6) [| 4; 3; 5 |] in
  List.iter
    (fun (name, nest, cache, expected) ->
      let mism, total = agree_on nest cache in
      Alcotest.(check int) (name ^ ": accesses compared") expected total;
      Alcotest.(check int) (Printf.sprintf "%s: 0 of %d disagree" name total) 0 mism)
    [
      ("SOR 8, direct-mapped", sor, small_cache, 216);
      ("SOR 8, 2-way", sor, c2, 216);
      ("MM 6 tiled 4x3x5", mm, small_cache, 864);
    ]

let suite =
  suite
  @ [ Alcotest.test_case "early-exit agreement" `Slow test_early_exit_agreement ]
