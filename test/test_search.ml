(* The unified evaluation layer: backends, the shared memo service, and
   domain-count invariance of every search built on it. *)

open Tiling_search

let small_cache = Tiling_cache.Config.make ~size:256 ~line:32 ()

let test_backend_of_string () =
  List.iter
    (fun (b : Backend.t) ->
      match Backend.of_string b.Backend.name with
      | Ok b' ->
          Alcotest.(check string) "round-trip" b.Backend.name b'.Backend.name
      | Error m -> Alcotest.failf "lookup of %s failed: %s" b.Backend.name m)
    Backend.all;
  let contains hay needle =
    let h = String.length hay and n = String.length needle in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  (match Backend.of_string "nope" with
  | Ok _ -> Alcotest.fail "unknown backend accepted"
  | Error m ->
      Alcotest.(check bool) "error lists names" true
        (List.for_all (contains m) Backend.names));
  Alcotest.(check string) "default is the paper's sampler" "cme-sample"
    Backend.default.Backend.name

let test_sim_agrees_with_exact_cme () =
  (* Satellite: the trace-driven simulator and the exact CME enumeration
     must assign identical replacement-miss costs to small candidates —
     the cross-validation that makes `--backend sim` a trustworthy
     oracle. *)
  let base = Tiling_kernels.Kernels.t2d 16 in
  List.iter
    (fun tiles ->
      let nest = Tiling_ir.Transform.tile base tiles in
      let s = Backend.(sim.cost) small_cache nest ~points:[||] in
      let e = Backend.(cme_exact.cost) small_cache nest ~points:[||] in
      Alcotest.(check (float 0.))
        (Fmt.str "tiles [%a]" Fmt.(array ~sep:(any ",") int) tiles)
        e s)
    [ [| 1; 1 |]; [| 5; 4 |]; [| 16; 16 |]; [| 7; 3 |]; [| 2; 13 |] ]

let test_eval_memo_and_dedup () =
  let nest = Tiling_kernels.Kernels.t2d 16 in
  let sample = Tiling_core.Sample.create ~n:16 ~seed:11 nest in
  let prepared = ref 0 in
  let eval =
    Eval.create ~cache:small_cache
      ~prepare:(fun tiles ->
        incr prepared;
        ( Tiling_ir.Transform.tile nest tiles,
          Tiling_core.Sample.embed sample ~tiles ))
      ()
  in
  let batch = [| [| 4; 4 |]; [| 2; 8 |]; [| 4; 4 |]; [| 2; 8 |]; [| 4; 4 |] |] in
  let costs = Eval.evaluate_all eval batch in
  Alcotest.(check int) "one backend call per distinct candidate" 2 !prepared;
  Alcotest.(check int) "fresh" 2 (Eval.fresh eval);
  Alcotest.(check int) "distinct" 2 (Eval.distinct eval);
  Alcotest.(check int) "duplicates were memo hits" 3 (Eval.hits eval);
  Alcotest.(check (float 0.)) "duplicates share values" costs.(0) costs.(2);
  Alcotest.(check (float 0.)) "duplicates share values" costs.(1) costs.(3);
  (* objective agrees with evaluate_all and hits the memo. *)
  Alcotest.(check (float 0.)) "objective = batch value" costs.(0)
    (Eval.objective eval [| 4; 4 |]);
  Alcotest.(check int) "no extra backend call" 2 (Eval.fresh eval)

let test_restart_seed_is_stable () =
  (* The per-restart seed derivation is load-bearing for reproducibility:
     pin it. *)
  Alcotest.(check int) "restart 0" (42 lxor 0x6A5)
    (Driver.restart_seed ~seed:42 ~salt:0x6A5 0);
  Alcotest.(check int) "restart 2"
    (42 lxor 0x6A5 lxor (2 * 0x5DEECE66))
    (Driver.restart_seed ~seed:42 ~salt:0x6A5 2)

let fast_tiler_opts seed =
  {
    Tiling_core.Tiler.default_opts with
    ga =
      {
        Tiling_ga.Engine.default_params with
        Tiling_ga.Engine.min_generations = 6;
        max_generations = 8;
      };
    seed;
    sample_points = Some 48;
    restarts = 2;
  }

let test_order_domains_equivalence () =
  (* Same seed, domains 1 vs 4: the order search must be byte-identical. *)
  let nest = Tiling_kernels.Kernels.t2d 60 in
  let cache = Tiling_cache.Config.make ~size:2048 ~line:32 () in
  let run domains =
    let opts = { (fast_tiler_opts 13) with domains } in
    Tiling_core.Tiler.optimize_with_order ~opts nest cache
  in
  let a = run 1 and b = run 4 in
  Alcotest.(check (array int)) "order" a.Tiling_core.Tiler.order
    b.Tiling_core.Tiler.order;
  Alcotest.(check (array int)) "tiles" a.Tiling_core.Tiler.otiles
    b.Tiling_core.Tiler.otiles;
  Alcotest.(check (float 0.)) "objective"
    a.Tiling_core.Tiler.oga.Tiling_ga.Engine.best_objective
    b.Tiling_core.Tiler.oga.Tiling_ga.Engine.best_objective

let test_joint_domains_equivalence () =
  (* Same seed, domains 1 vs 4: the joint pad+tile GA must be
     byte-identical (padding candidates clone the nest, so parallel
     preparation is safe). *)
  let nest = Tiling_kernels.Kernels.t2d 40 in
  let cache = Tiling_cache.Config.make ~size:1024 ~line:32 () in
  let run domains =
    let topts = { (fast_tiler_opts 17) with domains } in
    let popts =
      { Tiling_core.Padder.default_opts with seed = 17; max_intra = 4; max_inter = 4 }
    in
    Tiling_core.Optimizer.pad_and_tile ~topts ~popts nest cache
  in
  let a = run 1 and b = run 4 in
  Alcotest.(check (array int)) "tiles" a.Tiling_core.Optimizer.tiles
    b.Tiling_core.Optimizer.tiles;
  Alcotest.(check (array int)) "intra padding"
    a.Tiling_core.Optimizer.padding.Tiling_ir.Transform.intra
    b.Tiling_core.Optimizer.padding.Tiling_ir.Transform.intra;
  Alcotest.(check (array int)) "inter padding"
    a.Tiling_core.Optimizer.padding.Tiling_ir.Transform.inter
    b.Tiling_core.Optimizer.padding.Tiling_ir.Transform.inter;
  Alcotest.(check (float 0.)) "objective"
    a.Tiling_core.Optimizer.ga.Tiling_ga.Engine.best_objective
    b.Tiling_core.Optimizer.ga.Tiling_ga.Engine.best_objective

let test_sim_backend_search () =
  (* A full GA search driven by the simulator backend finds tiles no worse
     than untiled, and its objective matches the backend's own cost for the
     chosen tiles. *)
  let nest = Tiling_kernels.Kernels.t2d 16 in
  let opts =
    { (fast_tiler_opts 5) with restarts = 1; backend = Backend.sim }
  in
  let o = Tiling_core.Tiler.optimize ~opts nest small_cache in
  let spans = Tiling_ir.Transform.tile_spans nest in
  Array.iteri
    (fun l t ->
      if t < 1 || t > spans.(l) then Alcotest.failf "invalid tile %d" t)
    o.Tiling_core.Tiler.tiles;
  let cost =
    Backend.(sim.cost) small_cache
      (Tiling_ir.Transform.tile nest o.Tiling_core.Tiler.tiles)
      ~points:[||]
  in
  Alcotest.(check (float 0.)) "objective is the sim cost" cost
    o.Tiling_core.Tiler.ga.Tiling_ga.Engine.best_objective;
  let untiled = Backend.(sim.cost) small_cache nest ~points:[||] in
  Alcotest.(check bool) "no worse than untiled" true
    (o.Tiling_core.Tiler.ga.Tiling_ga.Engine.best_objective <= untiled)

let test_exact_and_sim_backends_search_identically () =
  (* Because the two backends assign equal costs on this kernel, the whole
     search trajectory — every selection decision — must coincide. *)
  let nest = Tiling_kernels.Kernels.t2d 16 in
  let run backend =
    let opts = { (fast_tiler_opts 23) with restarts = 1; backend } in
    Tiling_core.Tiler.optimize ~opts nest small_cache
  in
  let e = run Backend.cme_exact and s = run Backend.sim in
  Alcotest.(check (array int)) "same tiles" e.Tiling_core.Tiler.tiles
    s.Tiling_core.Tiler.tiles;
  Alcotest.(check (float 0.)) "same objective"
    e.Tiling_core.Tiler.ga.Tiling_ga.Engine.best_objective
    s.Tiling_core.Tiler.ga.Tiling_ga.Engine.best_objective

let test_triangular_sim_agrees_with_exact_cme () =
  (* The affine generalization's acceptance gate: on the non-rectangular
     kernels the exact CME enumeration must reproduce the simulator's cost
     bit for bit, untiled and tiled, at more than one geometry (the reuse
     structure changes completely between direct-mapped and 2-way). *)
  let geometries =
    [
      Tiling_cache.Config.make ~size:512 ~line:32 ();
      Tiling_cache.Config.make ~size:1024 ~line:32 ~assoc:2 ();
    ]
  in
  List.iter
    (fun (name, build) ->
      let base = build 10 in
      List.iter
        (fun cache ->
          List.iter
            (fun tiles ->
              let nest =
                match tiles with
                | None -> base
                | Some t -> Tiling_ir.Transform.tile base t
              in
              let s = Backend.(sim.cost) cache nest ~points:[||] in
              let e = Backend.(cme_exact.cost) cache nest ~points:[||] in
              Alcotest.(check (float 0.))
                (Fmt.str "%s %s on %a" name
                   (match tiles with
                   | None -> "untiled"
                   | Some t -> Fmt.str "tiles [%a]" Fmt.(array ~sep:(any ",") int) t)
                   Tiling_cache.Config.pp cache)
                e s)
            [ None; Some [| 4; 4; 4 |]; Some [| 3; 5; 2 |] ])
        geometries)
    [
      ("lu", Tiling_kernels.Kernels.lu);
      ("cholesky", Tiling_kernels.Kernels.cholesky);
      ("syrk", Tiling_kernels.Kernels.syrk);
    ]

let suite =
  [
    Alcotest.test_case "backend lookup" `Quick test_backend_of_string;
    Alcotest.test_case "sim = exact CME on small kernel" `Quick
      test_sim_agrees_with_exact_cme;
    Alcotest.test_case "sim = exact CME on triangular kernels" `Quick
      test_triangular_sim_agrees_with_exact_cme;
    Alcotest.test_case "eval memo & batch dedup" `Quick test_eval_memo_and_dedup;
    Alcotest.test_case "restart seed derivation" `Quick test_restart_seed_is_stable;
    Alcotest.test_case "order search domain invariance" `Slow
      test_order_domains_equivalence;
    Alcotest.test_case "joint search domain invariance" `Slow
      test_joint_domains_equivalence;
    Alcotest.test_case "sim-backend GA search" `Quick test_sim_backend_search;
    Alcotest.test_case "exact and sim backends search identically" `Quick
      test_exact_and_sim_backends_search_identically;
  ]

(* The warm replay's allocation, a deterministic counter: [Driver.best_of]
   (the paper's GA, three restarts) run twice over one [Eval] at 8 KB
   direct-mapped with a 16-point sample.  The first run fills the memo, so
   the second replays the same trajectory from memoised costs alone; the
   figure is the words the test's domain allocates per individual of that
   second run.  Each bound is about 1.5 times the figure measured when it
   was set (MM 41, T2D 37, SOR 35, LU 37 words); a boxed [int64] PRNG
   state, list-built selection and closure-built fitness allocated 238 to
   319. *)
let test_replay_allocation () =
  List.iter
    (fun (name, nest, bound) ->
      let sample = Tiling_core.Sample.create ~n:16 ~seed:20020815 nest in
      let eval =
        Eval.create ~cache:Tiling_cache.Config.dm8k
          ~prepare:(fun tiles ->
            ( Tiling_ir.Transform.tile nest tiles,
              Tiling_core.Sample.embed sample ~tiles ))
          ()
      in
      let encoding =
        Tiling_ga.Encoding.make (Tiling_ir.Transform.tile_spans nest)
      in
      let search () =
        Driver.best_of ~label:"tiler" ~params:Tiling_ga.Engine.default_params
          ~restarts:3 ~seed:20020815 ~salt:0x6A5 ~encoding ~eval ()
      in
      let first = search () in
      let fresh = Eval.fresh eval and hits = Eval.hits eval in
      let before = Gc.minor_words () in
      let again = search () in
      let words = Gc.minor_words () -. before in
      Alcotest.(check int) (name ^ ": replay costs nothing new") fresh
        (Eval.fresh eval);
      Alcotest.(check (array int)) (name ^ ": replay finds the same best")
        first.Tiling_ga.Engine.best_genes again.Tiling_ga.Engine.best_genes;
      let per = words /. float_of_int (Eval.hits eval - hits) in
      if per > bound then
        Alcotest.failf "%s: %.1f words per individual, bound %.0f" name per
          bound)
    Tiling_kernels.Kernels.
      [
        ("MM 24", mm 24, 61.);
        ("T2D 64", t2d 64, 55.);
        ("SOR 32", sor 32, 52.);
        ("LU 16", lu 16, 55.);
      ]

let suite =
  suite
  @ [
      Alcotest.test_case "warm replay allocation bound" `Quick
        test_replay_allocation;
    ]

(* The memo's tier protocol, over a tier that counts its calls: a tier hit
   is promoted into the table once, so a later probe of that key does not
   reach the tier; a promoted value is never written back; a tier miss
   promotes nothing; a fresh [set] saves exactly once. *)
let test_memo_tier_protocol () =
  let key values = Memo.Key.of_values values in
  let backing = Memo.Table.create 8 in
  let finds = ref 0 and saves = ref [] in
  let tier =
    {
      Memo.find =
        (fun k ->
          incr finds;
          Memo.Table.find_opt backing k);
      save = (fun k v -> saves := (Memo.Key.values k, v) :: !saves);
    }
  in
  Memo.Table.replace backing (key [| 4; 8 |]) 0.25;
  let memo = Memo.create () in
  Memo.set_tier memo (Some tier);
  let check_find name k want =
    Alcotest.(check (option (float 0.))) name want (Memo.find_opt memo k)
  in
  check_find "tier hit" (key [| 4; 8 |]) (Some 0.25);
  Alcotest.(check int) "the hit asked the tier" 1 !finds;
  Alcotest.(check int) "the hit is promoted" 1 (Memo.length memo);
  check_find "promoted hit" (key [| 4; 8 |]) (Some 0.25);
  Alcotest.(check int) "a promoted key does not reach the tier" 1 !finds;
  Alcotest.(check int) "promoted once" 1 (Memo.length memo);
  check_find "tier miss" (key [| 4; 9 |]) None;
  Alcotest.(check int) "the miss asked the tier" 2 !finds;
  Alcotest.(check int) "a miss promotes nothing" 1 (Memo.length memo);
  Alcotest.(check int) "promotions are never saved" 0 (List.length !saves);
  Memo.set memo (key [| 2; 2 |]) 0.5;
  Alcotest.(check (list (pair (array int) (float 0.))))
    "a fresh set saves once" [ ([| 2; 2 |], 0.5) ] !saves;
  check_find "set value" (key [| 2; 2 |]) (Some 0.5);
  Alcotest.(check int) "a set key does not reach the tier" 2 !finds;
  Alcotest.(check int) "promotions stay unsaved" 1 (List.length !saves)

let suite =
  suite
  @ [ Alcotest.test_case "memo tier protocol" `Quick test_memo_tier_protocol ]
