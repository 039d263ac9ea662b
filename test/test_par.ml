open Tiling_util

let test_map_matches_sequential () =
  let xs = Array.init 1000 Fun.id in
  let f x = (x * x) + 1 in
  List.iter
    (fun domains ->
      Alcotest.(check (array int))
        (Printf.sprintf "%d domains" domains)
        (Array.map f xs)
        (Par.map ~domains f xs))
    [ 1; 2; 3; 8 ]

let test_map_edge_sizes () =
  Alcotest.(check (array int)) "empty" [||] (Par.map ~domains:4 succ [||]);
  Alcotest.(check (array int)) "singleton" [| 2 |] (Par.map ~domains:4 succ [| 1 |]);
  Alcotest.(check (array int)) "fewer items than domains" [| 2; 3 |]
    (Par.map ~domains:8 succ [| 1; 2 |])

let test_exceptions_propagate () =
  try
    ignore (Par.map ~domains:3 (fun x -> if x = 7 then failwith "boom" else x)
              (Array.init 20 Fun.id));
    Alcotest.fail "exception swallowed"
  with Failure m -> Alcotest.(check string) "original exception" "boom" m

let test_parallel_tiler_equivalent () =
  (* The search must be bit-identical regardless of the domain count. *)
  let nest = Tiling_kernels.Kernels.t2d 100 in
  let cache = Tiling_cache.Config.dm8k in
  let opts domains =
    {
      Tiling_core.Tiler.ga =
        {
          Tiling_ga.Engine.default_params with
          Tiling_ga.Engine.min_generations = 6;
          max_generations = 8;
        };
      seed = 21;
      sample_points = Some 64;
      restarts = 1;
      domains;
      backend = Tiling_search.Backend.default;
      on_eval = ignore;
    }
  in
  let seq = Tiling_core.Tiler.optimize ~opts:(opts 1) nest cache in
  let par = Tiling_core.Tiler.optimize ~opts:(opts 4) nest cache in
  Alcotest.(check (array int)) "same tiles" seq.Tiling_core.Tiler.tiles
    par.Tiling_core.Tiler.tiles;
  Alcotest.(check (float 0.)) "same objective"
    seq.Tiling_core.Tiler.ga.Tiling_ga.Engine.best_objective
    par.Tiling_core.Tiler.ga.Tiling_ga.Engine.best_objective

let test_default_domains () =
  let d = Pool.default_size () in
  Alcotest.(check bool) "in [1, 8]" true (d >= 1 && d <= 8)

(* [Pool.run] clamps its helper count to the hardware unless TILING_DOMAINS
   overrides it, so on a small CI machine the pool tests below force real
   worker domains by setting the override for their duration. *)
let with_domains_env v f =
  let old = Sys.getenv_opt "TILING_DOMAINS" in
  Unix.putenv "TILING_DOMAINS" v;
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "TILING_DOMAINS" (Option.value old ~default:""))
    f

let test_pool_worker_exception () =
  with_domains_env "4" (fun () ->
      Pool.shutdown ();
      (try
         ignore
           (Par.map ~domains:4
              (fun x -> if x = 13 then failwith "pool-boom" else x)
              (Array.init 64 Fun.id));
         Alcotest.fail "exception swallowed"
       with Failure m ->
         Alcotest.(check string) "original exception" "pool-boom" m);
      Alcotest.(check bool) "workers survived the failure" true
        (Pool.size () >= 1);
      (* The pool is still usable after a failed batch. *)
      Alcotest.(check (array int)) "next batch is clean"
        (Array.init 64 succ)
        (Par.map ~domains:4 succ (Array.init 64 Fun.id)))

let test_nested_map_runs_inline () =
  with_domains_env "4" (fun () ->
      let expected =
        Array.init 16 (fun i -> Array.init 8 (fun j -> ((i * 8) + j) * 2))
      in
      let got =
        Par.map ~domains:4
          (fun i -> Par.map ~domains:4 (fun j -> ((i * 8) + j) * 2)
                      (Array.init 8 Fun.id))
          (Array.init 16 Fun.id)
      in
      Alcotest.(check bool) "nested map matches sequential" true
        (got = expected))

let test_pool_shutdown_idempotent () =
  with_domains_env "3" (fun () ->
      ignore (Par.map ~domains:3 succ (Array.init 32 Fun.id));
      Alcotest.(check bool) "workers live" true (Pool.size () > 0);
      Pool.shutdown ();
      Alcotest.(check int) "no workers after shutdown" 0 (Pool.size ());
      Pool.shutdown ();
      Alcotest.(check int) "shutdown is idempotent" 0 (Pool.size ());
      Alcotest.(check (array int)) "map restarts the pool lazily"
        [| 1; 2; 3; 4 |]
        (Par.map ~domains:3 succ [| 0; 1; 2; 3 |]);
      Alcotest.(check bool) "workers respawned" true (Pool.size () > 0))

let test_domains_env_override () =
  with_domains_env "5" (fun () ->
      Alcotest.(check int) "override honoured" 5 (Pool.default_size ()));
  with_domains_env "nope" (fun () ->
      Alcotest.check_raises "invalid override rejected"
        (Invalid_argument
           "TILING_DOMAINS: expected an integer in [1, 128], got \"nope\"")
        (fun () -> ignore (Pool.default_size ())));
  with_domains_env "" (fun () ->
      Alcotest.(check bool) "empty override ignored" true
        (Pool.default_size () >= 1))

let test_evaluate_all_domains_equivalent () =
  (* The full candidate-evaluation service must be byte-identical whether
     the batch runs sequentially or fanned out over eight pool workers. *)
  with_domains_env "8" (fun () ->
      let nest = Tiling_kernels.Kernels.t2d 32 in
      let cache = Tiling_cache.Config.dm8k in
      let sample = Tiling_core.Sample.create ~n:64 ~seed:5 nest in
      let mk domains =
        Tiling_search.Eval.create ~domains ~cache
          ~prepare:(fun tiles ->
            ( Tiling_ir.Transform.tile nest tiles,
              Tiling_core.Sample.embed sample ~tiles ))
          ()
      in
      let rng = Prng.create ~seed:42 in
      let batch =
        Array.init 40 (fun _ ->
            [| Prng.int_in rng ~lo:1 ~hi:32; Prng.int_in rng ~lo:1 ~hi:32 |])
      in
      let seq = Tiling_search.Eval.evaluate_all (mk 1) batch in
      let par = Tiling_search.Eval.evaluate_all (mk 8) batch in
      Alcotest.(check (array (float 0.))) "identical costs" seq par)

let suite =
  [
    Alcotest.test_case "map matches sequential" `Quick test_map_matches_sequential;
    Alcotest.test_case "edge sizes" `Quick test_map_edge_sizes;
    Alcotest.test_case "exception propagation" `Quick test_exceptions_propagate;
    Alcotest.test_case "parallel tiler equivalence" `Slow test_parallel_tiler_equivalent;
    Alcotest.test_case "recommended domains" `Quick test_default_domains;
    Alcotest.test_case "pool worker exception" `Quick test_pool_worker_exception;
    Alcotest.test_case "nested map runs inline" `Quick test_nested_map_runs_inline;
    Alcotest.test_case "pool shutdown idempotent" `Quick
      test_pool_shutdown_idempotent;
    Alcotest.test_case "TILING_DOMAINS override" `Quick test_domains_env_override;
    Alcotest.test_case "evaluate_all domain invariance" `Quick
      test_evaluate_all_domains_equivalent;
  ]
