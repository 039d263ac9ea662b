open Tiling_ga

let run_on ?params ~seed ~uppers objective =
  let encoding = Encoding.make uppers in
  let rng = Tiling_util.Prng.create ~seed in
  Engine.run ?params ~encoding ~objective ~rng ()

let test_optimizes_separable () =
  (* Minimise sum |v_i - 17| over [1,64]^3: smooth and separable, the GA
     must land very close to the optimum. *)
  let objective v =
    Array.fold_left (fun acc x -> acc +. float_of_int (abs (x - 17))) 0. v
  in
  let r = run_on ~seed:1 ~uppers:[| 64; 64; 64 |] objective in
  Alcotest.(check bool)
    (Printf.sprintf "best %.0f <= 6" r.Engine.best_objective)
    true
    (r.Engine.best_objective <= 6.)

let test_finds_exact_small () =
  (* Tiny space: 2 variables in [1,16]; optimum at (5, 11). *)
  let objective v =
    float_of_int ((abs (v.(0) - 5) * 3) + (abs (v.(1) - 11) * 2))
  in
  let r = run_on ~seed:2 ~uppers:[| 16; 16 |] objective in
  Alcotest.(check (float 0.01)) "exact optimum" 0. r.Engine.best_objective

let test_generation_limits () =
  let r = run_on ~seed:3 ~uppers:[| 256; 256 |] (fun v -> float_of_int v.(0)) in
  Alcotest.(check bool) "at least min generations" true (r.Engine.generations >= 15);
  Alcotest.(check bool) "at most max generations" true (r.Engine.generations <= 25);
  Alcotest.(check int) "history matches generations" r.Engine.generations
    (List.length r.Engine.history)

let test_constant_objective_converges_immediately () =
  let r = run_on ~seed:4 ~uppers:[| 100 |] (fun _ -> 0.) in
  Alcotest.(check bool) "converged" true r.Engine.converged;
  Alcotest.(check int) "stops right at the minimum generations" 15
    r.Engine.generations

let test_deterministic () =
  let objective v = float_of_int (v.(0) * v.(1)) in
  let r1 = run_on ~seed:5 ~uppers:[| 50; 50 |] objective in
  let r2 = run_on ~seed:5 ~uppers:[| 50; 50 |] objective in
  Alcotest.(check (float 0.) ) "same best" r1.Engine.best_objective r2.Engine.best_objective;
  Alcotest.(check (array int)) "same genes" r1.Engine.best_genes r2.Engine.best_genes

let test_paper_parameters () =
  let p = Engine.default_params in
  Alcotest.(check int) "population 30" 30 p.Engine.population;
  Alcotest.(check (float 1e-9)) "crossover 0.9" 0.9 p.Engine.crossover_p;
  Alcotest.(check (float 1e-9)) "mutation 0.001" 0.001 p.Engine.mutation_p;
  Alcotest.(check int) "min 15" 15 p.Engine.min_generations;
  Alcotest.(check int) "max 25" 25 p.Engine.max_generations;
  Alcotest.(check (float 1e-9)) "convergence 2%" 0.02 p.Engine.convergence_threshold

let test_evaluations_bounded () =
  let count = ref 0 in
  let objective v =
    incr count;
    float_of_int v.(0)
  in
  let r = run_on ~seed:6 ~uppers:[| 512 |] objective in
  Alcotest.(check int) "engine reports its calls" !count r.Engine.evaluations;
  Alcotest.(check bool) "within population * max generations" true
    (!count <= 30 * 25)

let test_best_never_worsens_with_elitism () =
  let objective v = float_of_int (abs (v.(0) - 100)) in
  let r = run_on ~seed:7 ~uppers:[| 512 |] objective in
  let bests = List.map (fun s -> s.Engine.best) r.Engine.history in
  (* With elitism the per-generation best can never regress. *)
  let rec non_increasing = function
    | a :: (b :: _ as rest) -> a >= b && non_increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "per-generation best non-increasing" true
    (non_increasing bests)

let test_no_elitism_mode () =
  let params = { Engine.default_params with Engine.elitism = false } in
  let objective v = float_of_int (abs (v.(0) - 9)) in
  let r = run_on ~params ~seed:8 ~uppers:[| 64 |] objective in
  Alcotest.(check bool) "still finds a decent solution" true
    (r.Engine.best_objective <= 5.)

let test_history_stats_consistent () =
  let objective v = float_of_int v.(0) in
  let r = run_on ~seed:9 ~uppers:[| 128 |] objective in
  List.iter
    (fun s ->
      if s.Engine.best > s.Engine.average +. 1e-9 then
        Alcotest.fail "generation best exceeds its average";
      let pop = Engine.default_params.Engine.population in
      if s.Engine.distinct < 1 || s.Engine.distinct > pop then
        Alcotest.failf "distinct genotypes %d outside [1, %d]"
          s.Engine.distinct pop)
    r.Engine.history

let suite =
  [
    Alcotest.test_case "optimizes separable function" `Quick test_optimizes_separable;
    Alcotest.test_case "finds small-space optimum" `Quick test_finds_exact_small;
    Alcotest.test_case "generation limits (fig 7)" `Quick test_generation_limits;
    Alcotest.test_case "constant objective converges" `Quick
      test_constant_objective_converges_immediately;
    Alcotest.test_case "deterministic under seed" `Quick test_deterministic;
    Alcotest.test_case "paper parameters" `Quick test_paper_parameters;
    Alcotest.test_case "evaluation accounting" `Quick test_evaluations_bounded;
    Alcotest.test_case "elitism keeps the best" `Quick
      test_best_never_worsens_with_elitism;
    Alcotest.test_case "no-elitism mode" `Quick test_no_elitism_mode;
    Alcotest.test_case "history consistency" `Quick test_history_stats_consistent;
  ]

let test_selection_pressure_statistics () =
  (* Remainder stochastic selection: over many generations, an individual
     with twice the fitness must be selected about twice as often.  We
     observe it indirectly: on a two-value landscape the better value must
     take over the population within a few generations. *)
  let objective v = if v.(0) <= 32 then 0. else 100. in
  let encoding = Encoding.make [| 64 |] in
  let rng = Tiling_util.Prng.create ~seed:11 in
  let seen_takeover = ref false in
  let r =
    Engine.run ~encoding ~objective ~rng
      ~on_generation:(fun s ->
        if s.Engine.generation >= 10 && s.Engine.average < 20. then
          seen_takeover := true)
      ()
  in
  Alcotest.(check (float 0.01)) "optimum found" 0. r.Engine.best_objective;
  Alcotest.(check bool) "good genes take over the population" true !seen_takeover

let test_mutation_saturated () =
  (* With per-bit mutation probability 1 every gene bit flips each
     generation, so no genotype can persist: the search degenerates to
     noise but must still run to completion within the generation limits
     and report a finite best. *)
  let params =
    { Engine.default_params with Engine.mutation_p = 1.0; elitism = false }
  in
  let encoding = Encoding.make [| 256 |] in
  let rng = Tiling_util.Prng.create ~seed:13 in
  let r =
    Engine.run ~params ~encoding ~objective:(fun v -> float_of_int v.(0)) ~rng ()
  in
  Alcotest.(check bool) "finite best under saturated mutation" true
    (r.Engine.best_objective >= 1. && r.Engine.best_objective <= 256.);
  Alcotest.(check bool) "ran to a limit" true
    (r.Engine.generations >= 15 && r.Engine.generations <= 25)

let test_crossover_disabled_still_works () =
  let params = { Engine.default_params with Engine.crossover_p = 0. } in
  let encoding = Encoding.make [| 64; 64 |] in
  let rng = Tiling_util.Prng.create ~seed:12 in
  let r =
    Engine.run ~params ~encoding
      ~objective:(fun v -> float_of_int (abs (v.(0) - 3) + abs (v.(1) - 60)))
      ~rng ()
  in
  Alcotest.(check bool) "selection+mutation alone still improves" true
    (r.Engine.best_objective < 30.)

let count_copies chosen pop =
  Array.map (fun x -> Array.fold_left (fun n y -> if y = x then n + 1 else n) 0 chosen) pop

let test_select_remainder_bounds () =
  (* Goldberg's remainder stochastic sampling without replacement: with
     expectations e = [1.9; 1.9; 0.1; 0.1] each individual must receive
     between floor(e_i) and ceil(e_i) copies, every run, any seed.  The
     old implementation redrew the fractional part on every fill pass, so
     a lucky individual could exceed ceil(e_i). *)
  let pop = [| 0; 1; 2; 3 |] in
  let fitness = [| 1.9; 1.9; 0.1; 0.1 |] in
  let n = 4 in
  for seed = 1 to 500 do
    let rng = Tiling_util.Prng.create ~seed in
    let chosen = Engine.select rng pop fitness n in
    Alcotest.(check int) "exactly n selected" n (Array.length chosen);
    let counts = count_copies chosen pop in
    Array.iteri
      (fun i c ->
        let lo = int_of_float fitness.(i)
        and hi = int_of_float (Float.ceil fitness.(i)) in
        if c < lo || c > hi then
          Alcotest.failf "seed %d: individual %d got %d copies, expected [%d,%d]"
            seed i c lo hi)
      counts
  done

let test_select_integer_expectations_deterministic () =
  (* All-integer expectations leave nothing to chance: e = [2; 1; 1; 0]
     must produce exactly those copy counts for every seed. *)
  let pop = [| 10; 20; 30; 40 |] in
  let fitness = [| 2.; 1.; 1.; 0. |] in
  for seed = 1 to 100 do
    let rng = Tiling_util.Prng.create ~seed in
    let chosen = Engine.select rng pop fitness 4 in
    Alcotest.(check (array int))
      (Printf.sprintf "seed %d copy counts" seed)
      [| 2; 1; 1; 0 |]
      (count_copies chosen pop)
  done

let test_select_zero_fitness_uniform () =
  (* A zero-total fitness vector cannot divide by the total; it must
     degrade to a uniform draw of the right size. *)
  let pop = [| 1; 2; 3 |] in
  let rng = Tiling_util.Prng.create ~seed:42 in
  let chosen = Engine.select rng pop [| 0.; 0.; 0. |] 6 in
  Alcotest.(check int) "size respected" 6 (Array.length chosen);
  Array.iter
    (fun x ->
      if not (Array.exists (( = ) x) pop) then
        Alcotest.failf "selected %d not in population" x)
    chosen

let suite =
  suite
  @ [
      Alcotest.test_case "selection pressure" `Quick test_selection_pressure_statistics;
      Alcotest.test_case "saturated mutation" `Quick test_mutation_saturated;
      Alcotest.test_case "no-crossover mode" `Quick test_crossover_disabled_still_works;
      Alcotest.test_case "select: remainder copy bounds" `Quick
        test_select_remainder_bounds;
      Alcotest.test_case "select: integer expectations deterministic" `Quick
        test_select_integer_expectations_deterministic;
      Alcotest.test_case "select: zero fitness is uniform" `Quick
        test_select_zero_fitness_uniform;
    ]

(* Golden runs, recorded before the generation step moved to arrays: the
   whole trajectory of two fixed searches (every random draw feeds it),
   so a rewrite of selection, crossover, mutation or the fitness scaling
   that changes a single decision fails here. *)
let golden_objective v =
  float_of_int (5 + (abs (v.(0) - 17) * 3) + abs (v.(1) - 40) + (v.(2) mod 7))

let check_golden ~params ~seed ~genes ~best ~generations ~evaluations ~converged
    ~history =
  let encoding = Encoding.make [| 64; 48; 100 |] in
  let rng = Tiling_util.Prng.create ~seed in
  let r = Engine.run ~params ~encoding ~objective:golden_objective ~rng () in
  Alcotest.(check (array int)) "best genes" genes r.Engine.best_genes;
  Alcotest.(check (float 0.)) "best objective" best r.Engine.best_objective;
  Alcotest.(check int) "generations" generations r.Engine.generations;
  Alcotest.(check int) "evaluations" evaluations r.Engine.evaluations;
  Alcotest.(check bool) "converged" converged r.Engine.converged;
  Alcotest.(check (list string))
    "history (generation best average distinct)" history
    (List.map
       (fun s ->
         Printf.sprintf "%d %h %h %d" s.Engine.generation s.Engine.best
           s.Engine.average s.Engine.distinct)
       r.Engine.history)

let test_golden_default () =
  check_golden ~params:Engine.default_params ~seed:31
    ~genes:[| 1; 0; 0; 3; 1; 1; 2; 1; 0; 0 |]
    ~best:5. ~generations:24 ~evaluations:720 ~converged:true
    ~history:
      [
        "1 0x1.9p+4 0x1.3dbbbbbbbbbbcp+6 30";
        "2 0x1.7p+4 0x1.d59999999999ap+5 30";
        "3 0x1.ep+3 0x1.7p+5 29";
        "4 0x1.cp+3 0x1.5p+5 30";
        "5 0x1.cp+3 0x1.1d11111111111p+5 28";
        "6 0x1.cp+3 0x1.caaaaaaaaaaabp+4 27";
        "7 0x1.cp+3 0x1.8088888888889p+4 28";
        "8 0x1.6p+3 0x1.5b33333333333p+4 30";
        "9 0x1.6p+3 0x1.5333333333333p+4 30";
        "10 0x1.6p+3 0x1.2333333333333p+4 30";
        "11 0x1.6p+3 0x1.3e66666666666p+4 28";
        "12 0x1.8p+2 0x1.1911111111111p+4 28";
        "13 0x1.8p+2 0x1.0eeeeeeeeeeefp+4 29";
        "14 0x1.8p+2 0x1.23bbbbbbbbbbcp+4 28";
        "15 0x1.8p+2 0x1.adddddddddddep+3 28";
        "16 0x1.4p+2 0x1.1bbbbbbbbbbbcp+4 28";
        "17 0x1.4p+2 0x1.7666666666666p+3 28";
        "18 0x1.4p+2 0x1.799999999999ap+3 21";
        "19 0x1.4p+2 0x1.1222222222222p+3 21";
        "20 0x1.4p+2 0x1.ceeeeeeeeeeefp+2 20";
        "21 0x1.4p+2 0x1.8444444444444p+2 13";
        "22 0x1.4p+2 0x1.6444444444444p+2 9";
        "23 0x1.4p+2 0x1.acccccccccccdp+2 5";
        "24 0x1.4p+2 0x1.4666666666666p+2 4";
      ]

(* An odd population (the last selected individual passes uncrossed),
   frequent mutation and partial crossover. *)
let test_golden_odd () =
  check_golden
    ~params:
      {
        Engine.default_params with
        Engine.population = 7;
        mutation_p = 0.05;
        crossover_p = 0.7;
      }
    ~seed:32
    ~genes:[| 1; 0; 0; 3; 0; 3; 0; 2; 1; 0 |]
    ~best:6. ~generations:25 ~evaluations:175 ~converged:false
    ~history:
      [
        "1 0x1.6p+3 0x1.0b6db6db6db6ep+6 7";
        "2 0x1.6p+3 0x1.18p+5 7";
        "3 0x1.2p+3 0x1.e6db6db6db6dbp+4 6";
        "4 0x1.2p+3 0x1.36db6db6db6dbp+4 7";
        "5 0x1.2p+3 0x1.b924924924925p+4 7";
        "6 0x1p+3 0x1.c6db6db6db6dbp+4 7";
        "7 0x1p+3 0x1.5492492492492p+4 7";
        "8 0x1p+3 0x1.b6db6db6db6dbp+4 7";
        "9 0x1p+3 0x1.f249249249249p+3 6";
        "10 0x1p+3 0x1.1b6db6db6db6ep+4 5";
        "11 0x1p+3 0x1.adb6db6db6db7p+3 5";
        "12 0x1.cp+2 0x1.a924924924925p+4 7";
        "13 0x1.cp+2 0x1.b924924924925p+4 5";
        "14 0x1.cp+2 0x1.a492492492492p+3 7";
        "15 0x1.cp+2 0x1.c924924924925p+3 7";
        "16 0x1.8p+2 0x1.1492492492492p+4 7";
        "17 0x1.8p+2 0x1p+5 6";
        "18 0x1.8p+2 0x1.36db6db6db6dbp+4 6";
        "19 0x1.8p+2 0x1p+4 6";
        "20 0x1.8p+2 0x1.0249249249249p+5 7";
        "21 0x1.8p+2 0x1.0492492492492p+4 6";
        "22 0x1.8p+2 0x1.b249249249249p+3 7";
        "23 0x1.8p+2 0x1.4db6db6db6db7p+3 7";
        "24 0x1.8p+2 0x1.0924924924925p+3 6";
        "25 0x1.8p+2 0x1.9249249249249p+4 7";
      ]

(* [select]'s picks in order, for one seed: fractional expectations, and
   a zero-total vector (the uniform fill). *)
let test_select_golden () =
  let pick seed pop fitness n =
    Engine.select (Tiling_util.Prng.create ~seed) pop fitness n
  in
  Alcotest.(check (array int)) "fractional expectations"
    [| 6; 1; 5; 2; 6; 4; 4; 4; 2; 0; 0; 0 |]
    (pick 77 [| 0; 1; 2; 3; 4; 5; 6; 7 |]
       [| 3.2; 0.5; 1.7; 0.; 2.9; 0.8; 1.1; 0.45 |]
       12);
  Alcotest.(check (array int)) "zero total" [| 4; 2; 0; 2; 0; 3; 1 |]
    (pick 78 [| 0; 1; 2; 3; 4 |] [| 0.; 0.; 0.; 0.; 0. |] 7)

let suite =
  suite
  @ [
      Alcotest.test_case "golden run: paper parameters" `Quick test_golden_default;
      Alcotest.test_case "golden run: odd population" `Quick test_golden_odd;
      Alcotest.test_case "select: golden pick order" `Quick test_select_golden;
    ]
