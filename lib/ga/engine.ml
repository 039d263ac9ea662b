open Tiling_util
module Metrics = Tiling_obs.Metrics
module Span = Tiling_obs.Span

let m_evaluations = Metrics.counter "ga.evaluations"
let m_generations = Metrics.counter "ga.generations"
let m_runs = Metrics.counter "ga.runs"

type params = {
  population : int;
  crossover_p : float;
  mutation_p : float;
  min_generations : int;
  max_generations : int;
  convergence_threshold : float;
  elitism : bool;
}

let default_params =
  {
    population = 30;
    crossover_p = 0.9;
    mutation_p = 0.001;
    min_generations = 15;
    max_generations = 25;
    convergence_threshold = 0.02;
    elitism = true;
  }

type generation_stats = {
  generation : int;
  best : float;
  average : float;
  distinct : int;
}

type result = {
  best_genes : int array;
  best_objective : float;
  generations : int;
  evaluations : int;
  converged : bool;
  history : generation_stats list;
}

(* Folds over float arrays as plain loops, left to right; [fold_max] and
   [fold_min] keep [Stdlib.max]/[min]'s [if a >= b then a else b]. *)
let sum a =
  let s = ref 0. in
  for i = 0 to Array.length a - 1 do
    s := !s +. a.(i)
  done;
  !s

let fold_max (init : float) (a : float array) =
  let m = ref init in
  for i = 0 to Array.length a - 1 do
    let x = a.(i) in
    if not (!m >= x) then m := x
  done;
  !m

let fold_min (init : float) (a : float array) =
  let m = ref init in
  for i = 0 to Array.length a - 1 do
    let x = a.(i) in
    if not (!m <= x) then m := x
  done;
  !m

(* Remainder stochastic selection without replacement (Goldberg): each
   individual first receives [floor expected] copies deterministically;
   the fractional remainders are then treated as Bernoulli probabilities
   *without replacement* — an individual whose fractional draw succeeds has
   its remainder consumed and cannot receive a second remainder copy.
   Individuals are visited in random order, re-shuffled each pass, until
   the new population is full.  Consequently every individual receives
   between [floor expected] and [ceil expected] copies (the defining RSS
   guarantee), except when all remainders are consumed before the
   population fills, where the shortfall is drawn uniformly.  The picks
   fill the result from the back: the first pick is the last element. *)
let select rng pop fitness n =
  let total = sum fitness in
  let chosen = if n <= 0 then [||] else Array.make n pop.(0) in
  let count = ref 0 in
  let pick i =
    chosen.(n - 1 - !count) <- pop.(i);
    incr count
  in
  let uniform_fill () =
    while !count < n do
      pick (Prng.int rng (Array.length pop))
    done
  in
  if total <= 0. then
    (* Degenerate generation (all individuals equally fit): uniform draw. *)
    uniform_fill ()
  else begin
    (* [fracs] holds the expectations, then their remainders. *)
    let k = Array.length fitness in
    let fracs = Array.make k 0. in
    for i = 0 to k - 1 do
      fracs.(i) <- float_of_int n *. fitness.(i) /. total
    done;
    for i = 0 to k - 1 do
      for _ = 1 to int_of_float fracs.(i) do
        if !count < n then pick i
      done
    done;
    for i = 0 to k - 1 do
      let e = fracs.(i) in
      fracs.(i) <- e -. Float.of_int (int_of_float e)
    done;
    let consumed () =
      let rec from i = i = k || (fracs.(i) <= 1e-9 && from (i + 1)) in
      from 0
    in
    let order = Array.init (Array.length pop) Fun.id in
    (* Fractional passes.  Treating remainders this way keeps each
       individual's copy count within [floor e, ceil e]; rounding noise can
       leave every remainder effectively consumed with slots still open, in
       which case the remainder of the population is drawn uniformly. *)
    while !count < n do
      Prng.shuffle rng order;
      for j = 0 to Array.length order - 1 do
        let i = order.(j) in
        if !count < n && fracs.(i) > 0. then
          if Prng.bernoulli rng ~p:fracs.(i) then begin
            pick i;
            fracs.(i) <- 0.
          end
      done;
      if !count < n && consumed () then uniform_fill ()
    done
  end;
  chosen

(* Single-point crossover of [a] and [b] into [c1] and [c2] (the children
   take their first [site] genes from one parent, the rest from the
   other); without a crossover the parents are copied. *)
let crossover rng p a b c1 c2 =
  let len = Array.length a in
  if len <= 1 || not (Prng.bernoulli rng ~p) then begin
    Array.blit a 0 c1 0 len;
    Array.blit b 0 c2 0 len
  end
  else begin
    let site = 1 + Prng.int rng (len - 1) in
    Array.blit a 0 c1 0 site;
    Array.blit b site c1 site (len - site);
    Array.blit b 0 c2 0 site;
    Array.blit a site c2 site (len - site)
  end

let mutate rng p genes =
  (* Mutation flips individual bits of the 2-bit genes. *)
  for i = 0 to Array.length genes - 1 do
    let g = genes.(i) in
    let g = if Prng.bernoulli rng ~p then g lxor 1 else g in
    let g = if Prng.bernoulli rng ~p then g lxor 2 else g in
    genes.(i) <- g
  done

(* Distinct genotypes, counted in a table over gene arrays with a
   monomorphic hash and equality. *)
module Genotypes = Hashtbl.Make (struct
  type t = int array

  let equal (a : t) (b : t) =
    let n = Array.length a in
    n = Array.length b
    &&
    let i = ref 0 in
    while !i < n && a.(!i) = b.(!i) do
      incr i
    done;
    !i = n

  let hash (a : t) =
    let h = ref 0x811c9dc5 in
    for i = 0 to Array.length a - 1 do
      h := (!h lxor a.(i)) * 0x100000001b3
    done;
    !h land max_int
end)

let distinct_genotypes pop =
  let seen = Genotypes.create (Array.length pop) in
  Array.iter (fun g -> Genotypes.replace seen g ()) pop;
  Genotypes.length seen

let run ?(params = default_params) ?on_generation ?evaluate_all ~encoding
    ~objective ~rng () =
  let n = params.population in
  assert (n >= 2);
  let evaluations = ref 0 in
  let eval_population pop =
    Span.with_ "ga.evaluate"
      ~attrs:[ ("individuals", Tiling_obs.Json.Int (Array.length pop)) ]
      (fun () ->
        evaluations := !evaluations + Array.length pop;
        Metrics.add m_evaluations (Array.length pop);
        let decoded = Array.map (Encoding.decode encoding) pop in
        match evaluate_all with
        | Some f -> f decoded
        | None -> Array.map objective decoded)
  in
  let pop = ref (Array.init n (fun _ -> Encoding.random_genes encoding rng)) in
  (* The next generation is written into a second population of gene
     buffers, and the two swap roles every generation: the selected
     individuals alias the current buffers only. *)
  let len = encoding.Encoding.total_genes in
  let spare = ref (Array.init n (fun _ -> Array.make len 0)) in
  let best_genes = ref (Array.copy !pop.(0)) in
  let best_obj = ref infinity in
  let history = ref [] in
  let generations = ref 0 in
  let converged = ref false in
  let step gen =
    Span.with_ "ga.generation" ~attrs:[ ("generation", Tiling_obs.Json.Int gen) ]
    @@ fun () ->
    Metrics.incr m_generations;
    let objs = eval_population !pop in
    let best_i = ref 0 in
    for i = 0 to Array.length objs - 1 do
      if objs.(i) < objs.(!best_i) then best_i := i
    done;
    if objs.(!best_i) < !best_obj then begin
      best_obj := objs.(!best_i);
      best_genes := Array.copy !pop.(!best_i)
    end;
    let avg = sum objs /. float_of_int n in
    let distinct = distinct_genotypes !pop in
    let stats = { generation = gen; best = objs.(!best_i); average = avg; distinct } in
    history := stats :: !history;
    Tiling_obs.Events.emit "ga.generation"
      ~attrs:
        [
          ("generation", Tiling_obs.Json.Int gen);
          ("best", Tiling_obs.Json.Float stats.best);
          ("average", Tiling_obs.Json.Float avg);
          ("distinct", Tiling_obs.Json.Int distinct);
          ("population", Tiling_obs.Json.Int n);
        ];
    Option.iter (fun f -> f stats) on_generation;
    (* Fitness for minimisation: distance below the generation's worst,
       then Goldberg's linear scaling so the best individual receives about
       [c_mult] times the average selection pressure throughout the run
       (raw [worst - obj] is dominated by outliers early and collapses
       diversity late).  The scaling rewrites [fitness] in place. *)
    let worst = fold_max neg_infinity objs in
    let fitness = Array.make (Array.length objs) 0. in
    for i = 0 to Array.length objs - 1 do
      fitness.(i) <- worst -. objs.(i)
    done;
    let favg = sum fitness /. float_of_int n in
    let fmax = fold_max neg_infinity fitness in
    let fmin = fold_min infinity fitness in
    let c_mult = 2.0 in
    if not (fmax <= favg || favg <= 0.) then begin
      let a, b =
        if fmin > ((c_mult *. favg) -. fmax) /. (c_mult -. 1.) then
          ( (c_mult -. 1.) *. favg /. (fmax -. favg),
            favg *. (fmax -. (c_mult *. favg)) /. (fmax -. favg) )
        else (favg /. (favg -. fmin), -.fmin *. favg /. (favg -. fmin))
      in
      for i = 0 to Array.length fitness - 1 do
        (* [Float.max 0. f], NaN kept, without the boxed call. *)
        let f = (a *. fitness.(i)) +. b in
        fitness.(i) <- (if f > 0. || Float.is_nan f then f else 0.)
      done
    end;
    let selected = select rng !pop fitness n in
    let next = !spare in
    let i = ref 0 in
    while !i < n - 1 do
      crossover rng params.crossover_p selected.(!i) selected.(!i + 1) next.(!i)
        next.(!i + 1);
      i := !i + 2
    done;
    if !i < n then Array.blit selected.(!i) 0 next.(!i) 0 len;
    Array.iter (mutate rng params.mutation_p) next;
    (* Optional elitism: re-insert the best individual seen so far in place
       of a random slot, guarding against losing the optimum to crossover
       or mutation. *)
    if params.elitism && !best_obj < infinity then
      Array.blit !best_genes 0 next.(Prng.int rng n) 0 len;
    spare := !pop;
    pop := next;
    (* Convergence: best within threshold of the population average. *)
    avg > 0. && (avg -. stats.best) /. avg <= params.convergence_threshold
    || avg = 0.
  in
  Metrics.incr m_runs;
  (* Figure 7: run min_generations unconditionally, then up to
     max_generations while not converged. *)
  let rec loop gen =
    if gen > params.max_generations then ()
    else begin
      let conv = step gen in
      generations := gen;
      if gen >= params.min_generations && conv then converged := true
      else loop (gen + 1)
    end
  in
  loop 1;
  {
    best_genes = !best_genes;
    best_objective = !best_obj;
    generations = !generations;
    evaluations = !evaluations;
    converged = !converged;
    history = List.rev !history;
  }

let trace_generation (s : generation_stats) =
  Span.instant "ga.generation.stats"
    ~attrs:
      [
        ("generation", Tiling_obs.Json.Int s.generation);
        ("best", Tiling_obs.Json.Float s.best);
        ("average", Tiling_obs.Json.Float s.average);
        ("distinct", Tiling_obs.Json.Int s.distinct);
      ]

let to_json r =
  let open Tiling_obs.Json in
  Obj
    [
      ("best_genes", List (Array.to_list (Array.map (fun g -> Int g) r.best_genes)));
      ("best_objective", Float r.best_objective);
      ("generations", Int r.generations);
      ("evaluations", Int r.evaluations);
      ("converged", Bool r.converged);
      ( "history",
        List
          (List.map
             (fun s ->
               Obj
                 [
                   ("generation", Int s.generation);
                   ("best", Float s.best);
                   ("average", Float s.average);
                   ("distinct", Int s.distinct);
                 ])
             r.history) );
    ]
