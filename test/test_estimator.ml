open Tiling_ir
open Tiling_cme

let test_default_points () =
  Alcotest.(check int) "paper's 164" 164 (Estimator.default_points ())

let test_exact_totals () =
  let nest = Tiling_kernels.Kernels.mm 10 in
  let cache = Tiling_cache.Config.make ~size:512 ~line:32 () in
  let r = Estimator.exact (Engine.create nest cache) in
  Alcotest.(check int) "points" 1000 r.Estimator.points;
  Alcotest.(check int) "accesses" 4000 r.Estimator.accesses;
  Alcotest.(check bool) "misses within accesses" true
    (r.Estimator.misses <= r.Estimator.accesses);
  Alcotest.(check bool) "compulsory within misses" true
    (r.Estimator.compulsory <= r.Estimator.misses);
  Alcotest.(check int) "replacement consistency"
    (r.Estimator.misses - r.Estimator.compulsory)
    (Estimator.replacement r)

let test_sample_size_default () =
  let nest = Tiling_kernels.Kernels.mm 30 in
  let cache = Tiling_cache.Config.make ~size:1024 ~line:32 () in
  let r = Estimator.sample ~seed:3 (Engine.create nest cache) in
  Alcotest.(check int) "164 points" 164 r.Estimator.points;
  Alcotest.(check int) "points * refs accesses" (164 * 4) r.Estimator.accesses

let test_sample_custom_width () =
  let nest = Tiling_kernels.Kernels.mm 30 in
  let cache = Tiling_cache.Config.make ~size:1024 ~line:32 () in
  let r = Estimator.sample ~width:0.2 ~confidence:0.9 ~seed:3 (Engine.create nest cache) in
  Alcotest.(check int) "width 0.2 needs 41 points" 41 r.Estimator.points

let test_sample_within_interval_of_exact () =
  (* With the default 90 % / 0.1-wide interval, the exact ratio should fall
     inside the sampled interval (checked on a seed where it does — the
     guarantee is probabilistic). *)
  let nest = Tiling_kernels.Kernels.mm 20 in
  let cache = Tiling_cache.Config.make ~size:1024 ~line:32 () in
  let exact = Estimator.exact (Engine.create nest cache) in
  let sample = Estimator.sample ~seed:1 (Engine.create nest cache) in
  let diff =
    abs_float
      (exact.Estimator.miss_ratio.Tiling_util.Stats.center
      -. sample.Estimator.miss_ratio.Tiling_util.Stats.center)
  in
  Alcotest.(check bool) "sampled close to exact" true
    (diff <= sample.Estimator.miss_ratio.Tiling_util.Stats.half_width +. 0.05)

let test_sample_deterministic () =
  let nest = Tiling_kernels.Kernels.t2d 50 in
  let cache = Tiling_cache.Config.dm8k in
  let r1 = Estimator.sample ~seed:9 (Engine.create nest cache) in
  let r2 = Estimator.sample ~seed:9 (Engine.create nest cache) in
  Alcotest.(check int) "same seed, same misses" r1.Estimator.misses r2.Estimator.misses;
  let r3 = Estimator.sample ~seed:10 (Engine.create nest cache) in
  Alcotest.(check bool) "estimates in the same ballpark" true
    (abs_float
       (Tiling_util.Stats.(r1.Estimator.miss_ratio.center)
       -. Tiling_util.Stats.(r3.Estimator.miss_ratio.center))
    < 0.2)

let test_sample_at_given_points () =
  let nest = Tiling_kernels.Kernels.mm 10 in
  let cache = Tiling_cache.Config.make ~size:512 ~line:32 () in
  let pts = [| [| 1; 1; 1 |]; [| 5; 5; 5 |] |] in
  let r = Estimator.sample_at (Engine.create nest cache) pts in
  Alcotest.(check int) "two points" 2 r.Estimator.points;
  Alcotest.(check int) "eight accesses" 8 r.Estimator.accesses

let test_exact_equals_simulator_aggregate () =
  let nest = Transform.tile (Tiling_kernels.Kernels.t2d 16) [| 5; 4 |] in
  let cache = Tiling_cache.Config.make ~size:256 ~line:32 () in
  let sim = Tiling_trace.Run.simulate nest cache in
  let est = Estimator.exact (Engine.create nest cache) in
  Alcotest.(check int) "misses equal"
    sim.Tiling_trace.Run.total.Tiling_cache.Sim.misses est.Estimator.misses

let suite =
  [
    Alcotest.test_case "default points = 164" `Quick test_default_points;
    Alcotest.test_case "exact totals" `Quick test_exact_totals;
    Alcotest.test_case "sample size default" `Quick test_sample_size_default;
    Alcotest.test_case "sample size custom" `Quick test_sample_custom_width;
    Alcotest.test_case "sample near exact" `Quick test_sample_within_interval_of_exact;
    Alcotest.test_case "sample deterministic" `Quick test_sample_deterministic;
    Alcotest.test_case "sample at given points" `Quick test_sample_at_given_points;
    Alcotest.test_case "exact equals simulator" `Quick
      test_exact_equals_simulator_aggregate;
  ]

let test_per_ref_sums () =
  let nest = Tiling_kernels.Kernels.mm 10 in
  let cache = Tiling_cache.Config.make ~size:512 ~line:32 () in
  let r = Estimator.exact (Engine.create nest cache) in
  let sum f = Array.fold_left (fun s c -> s + f c) 0 r.Estimator.per_ref in
  Alcotest.(check int) "per-ref accesses sum" r.Estimator.accesses
    (sum (fun c -> c.Estimator.r_accesses));
  Alcotest.(check int) "per-ref misses sum" r.Estimator.misses
    (sum (fun c -> c.Estimator.r_misses));
  Alcotest.(check int) "per-ref compulsory sum" r.Estimator.compulsory
    (sum (fun c -> c.Estimator.r_compulsory))

let test_per_ref_matches_simulator () =
  let nest = Tiling_kernels.Kernels.mm 12 in
  let cache = Tiling_cache.Config.make ~size:512 ~line:32 () in
  let est = Estimator.exact (Engine.create nest cache) in
  let sim = Tiling_trace.Run.simulate nest cache in
  Array.iteri
    (fun i (c : Estimator.ref_counts) ->
      let s = sim.Tiling_trace.Run.per_ref.(i) in
      Alcotest.(check int)
        (Printf.sprintf "ref %d misses" i)
        s.Tiling_cache.Sim.misses c.Estimator.r_misses)
    est.Estimator.per_ref

let test_report_to_json_round_trips () =
  let nest = Tiling_kernels.Kernels.mm 10 in
  let cache = Tiling_cache.Config.make ~size:512 ~line:32 () in
  let r = Estimator.exact (Engine.create nest cache) in
  let json = Estimator.to_json r in
  match Tiling_obs.Json.of_string (Tiling_obs.Json.to_string json) with
  | Error m -> Alcotest.fail ("report JSON did not reparse: " ^ m)
  | Ok doc ->
      let open Tiling_obs.Json in
      Alcotest.(check bool) "misses field" true
        (member "misses" doc = Some (Int r.Estimator.misses));
      let center =
        match Option.bind (member "miss_ratio" doc) (member "center") with
        | Some j -> to_float j
        | None -> None
      in
      Alcotest.(check (option (float 1e-12)))
        "miss ratio center survives"
        (Some r.Estimator.miss_ratio.Tiling_util.Stats.center)
        center

let suite =
  suite
  @ [
      Alcotest.test_case "per-ref sums to totals" `Quick test_per_ref_sums;
      Alcotest.test_case "per-ref matches simulator" `Quick
        test_per_ref_matches_simulator;
      Alcotest.test_case "report JSON round-trips" `Quick
        test_report_to_json_round_trips;
    ]
