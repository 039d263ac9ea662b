(* The tile-cme workload: in-process [Tiler.optimize] with backend
   cme-sample on two domains, over the rotation MM 100, T2D 500, SOR 500,
   LU 48 on an 8 KB direct-mapped cache with 32 B lines.

   Set-up is timed in fresh processes ([time_setup]), as a one-shot
   [tiler tile] pays it.  Timed phases:
   - cold: one search per kernel, then the T2D search is repeated with
     identical inputs (the determinism check); the shared residue cache
     is emptied before each search, as a one-shot [tiler tile] starts;
   - warm: replays of every cold search but the repeat, on one domain,
     whose memo tier already holds every candidate (the in-process
     analogue of a store-warm daemon request), until the run's time is
     up.
   Timings are aggregated per kernel first, because the kernels' costs
   differ tenfold, and are CPU seconds in reference seconds (see
   [Calib]).  The simulator judges every chosen tiling after the timed
   phases. *)

open Measure
module Tiler = Tiling_core.Tiler
module Backend = Tiling_search.Backend
module Eval = Tiling_search.Eval
module Memo = Tiling_search.Memo
module Metrics = Tiling_obs.Metrics
module Events = Tiling_obs.Events

type kernel = { label : string; name : string; n : int; nest : Tiling_ir.Nest.t }

let rotation ~tiny =
  List.map
    (fun (label, name, n, tiny_n) ->
      let spec = Tiling_kernels.Kernels.find name in
      let n = if tiny then tiny_n else n in
      { label; name = spec.Tiling_kernels.Kernels.name; n; nest = spec.build n })
    [ ("mm", "MM", 100, 10); ("t2d", "T2D", 500, 32); ("sor", "SOR", 500, 32); ("lu", "LU", 48, 8) ]

(* Registry counters whose per-search deltas feed the per-layer
   metrics of the traced run. *)
let counters =
  [
    "cme.engines.created"; "cme.classify.hit"; "cme.classify.replacement";
    "cme.classify.compulsory"; "cme.residues.memo.hit"; "cme.residues.memo.miss";
    "cme.residues.shared.hit"; "cme.residues.shared.miss"; "cme.fallbacks";
    "symbolic.rows"; "symbolic.rows.probed"; "symbolic.rows.extrapolated";
    "symbolic.points.classified"; "symbolic.fallbacks"; "pool.chunks";
    "search.eval.batches";
  ]

let read_counters () =
  let busy =
    match
      Tiling_obs.Json.member "sum"
        (Metrics.histogram_snapshot (Metrics.histogram "pool.worker.busy_ns"))
    with
    | Some j -> Option.value (Tiling_obs.Json.to_float j) ~default:0.
    | None -> 0.
  in
  ("pool.worker.busy_ns", busy)
  :: List.map (fun c -> (c, float_of_int (Metrics.counter_value (Metrics.counter c)))) counters

(* What the traced run records about one search, all from outside the
   program: its wall-clock span, the instant the evaluation service was
   handed over ([on_eval]), the GA's journal events, every backend call
   and counter/GC deltas. *)
type trace = {
  t0 : float;
  t_eval : float;
  t1 : float;
  marks : (string * float) list;  (* (event kind, ts_us), in order *)
  calls : (float * float) list;
  fresh : int;
  hits : int;
  deltas : (string * float) list;
  gc : float * float * int * int;  (* minor words, major words, minor GCs, major GCs *)
}

type search = {
  k : kernel;
  ga_seed : int;
  op : op;
  wall_s : float;
  cpu_s : float;  (* process CPU seconds, both domains *)
  json : string;  (* the whole outcome, for equality checks *)
  tiles : int list;
  tier : float Memo.Table.t;  (* every candidate the search costed *)
  trace : trace option;
}

(* Recorder shared by the traced searches: backend calls arrive from
   every pool domain, journal events on the searching thread. *)
let rec_lock = Mutex.create ()
let calls = ref []
let marks = ref []
let current_span = ref 0
let recording = ref false

let timed_backend (real : Backend.t) =
  {
    Backend.name = real.Backend.name;
    cost =
      (fun cache nest ~points ->
        let t0 = now_us () in
        let v = real.Backend.cost cache nest ~points in
        let t1 = now_us () in
        if !recording then begin
          Mutex.protect rec_lock (fun () -> calls := (t0, t1) :: !calls);
          record ~parent:!current_span ~lane:(Domain.self () :> int)
            "search.backend.cost" t0 t1
        end;
        v);
  }

(* Untraced cold searches take calibration samples between GA
   generations, one on each core while the searching thread waits and
   the pool is idle, so the cold phase is scaled by the machine's speed
   during it; the wait is taken out of the search's wall time. *)
let calibrating = ref false
let cal_wall = ref 0.

let on_event (ev : Events.event) =
  if !recording && (ev.kind = "ga.generation" || ev.kind = "search.restart") then
    Mutex.protect rec_lock (fun () -> marks := (ev.kind, ev.ts_us) :: !marks);
  if !calibrating && ev.kind = "ga.generation" then begin
    let t0 = Unix.gettimeofday () in
    if Calib.maybe_sample ~both:true () then cal_wall := !cal_wall +. (Unix.gettimeofday () -. t0)
  end

let base_opts ~tiny =
  if tiny then
    {
      Tiler.default_opts with
      restarts = 1;
      sample_points = Some 32;
      ga =
        { Tiling_ga.Engine.default_params with min_generations = 2; max_generations = 3 };
    }
  else Tiler.default_opts

let backend = Backend.cme_sample
let domains = 2

(* The set-up a one-shot [tiler tile] pays before its search: a fresh
   process that builds the rotation and starts the domain pool.
   [setup_child] is that process (bench.exe --setup-probe); it reports
   ready with one byte on stdout.  [time_setup] runs one and returns the
   seconds from spawning it to reading that byte, and the CPU seconds
   the process used in all, exit included. *)
let setup_child ~tiny =
  ignore (rotation ~tiny);
  Tiling_util.Pool.run ~helpers:(domains - 1) ~nchunks:domains (fun _ -> ());
  print_char 'r';
  flush stdout;
  Tiling_util.Pool.shutdown ()

let time_setup ~tiny =
  let r, w = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let args = Array.of_list (exe :: "--setup-probe" :: (if tiny then [ "--tiny" ] else [])) in
  let c0 = children_cpu_s () in
  let t0 = Unix.gettimeofday () in
  let pid = Unix.create_process exe args Unix.stdin w Unix.stderr in
  Unix.close w;
  let got = Unix.read r (Bytes.create 1) 0 1 in
  let t1 = Unix.gettimeofday () in
  Unix.close r;
  ignore (Unix.waitpid [] pid);
  if got <> 1 then failwith "set-up probe exited before reporting ready";
  (t1 -. t0, children_cpu_s () -. c0)

(* Generation intervals of one traced search: each runs from the
   previous journal mark (or the [on_eval] hand-over) to its
   [ga.generation] event; a [search.restart] mark only resets the start. *)
let generations tr =
  let _, gens =
    List.fold_left
      (fun (prev, acc) (kind, ts) ->
        if kind = "ga.generation" then (ts, (prev, ts) :: acc) else (ts, acc))
      (tr.t_eval, []) tr.marks
  in
  List.rev gens

(* One search.  [traced] turns on the timing backend, journal marks,
   counter and GC deltas.  A cold search records every candidate it
   costs into a fresh memo tier; a warm one ([warm_from]) reads that
   tier instead. *)
let run_search ~opts ~backend ~traced ~config ?warm_from k ga_seed =
  let phase = if warm_from = None then "cold" else "warm" in
  let op = start_op (Printf.sprintf "%s search %s n=%d ga_seed=%d" phase k.name k.n ga_seed) in
  let tier = Memo.Table.create 1024 and tier_lock = Mutex.create () in
  let eval = ref None and t_eval = ref 0. in
  let memo_tier =
    match warm_from with
    | None ->
        {
          Memo.find = (fun _ -> None);
          save = (fun key v -> Mutex.protect tier_lock (fun () -> Memo.Table.replace tier key v));
        }
    | Some src ->
        (* read-only after its cold search: no lock needed *)
        { Memo.find = Memo.Table.find_opt src; save = (fun _ _ -> ()) }
  in
  let opts =
    {
      opts with
      Tiler.seed = ga_seed;
      backend = (if traced then timed_backend backend else backend);
      on_eval =
        (fun ev ->
          t_eval := now_us ();
          eval := Some ev;
          Memo.set_tier (Eval.memo ev) (Some memo_tier));
    }
  in
  if warm_from = None then Tiling_cme.Engine.clear_shared_residues ();
  let span = fresh_span_id () in
  let before = if traced then read_counters () else [] in
  let gc0 = Gc.quick_stat () in
  if traced then begin
    Mutex.protect rec_lock (fun () ->
        calls := [];
        marks := []);
    current_span := span;
    recording := true
  end;
  cal_wall := 0.;
  calibrating := warm_from = None && not !tracing;
  let c0 = cpu_s () in
  let t0 = now_us () in
  let result = try Ok (Tiler.optimize ~opts k.nest config) with e -> Error e in
  let t1 = now_us () in
  let c1 = cpu_s () in
  calibrating := false;
  recording := false;
  record ~id:span (Printf.sprintf "tiler.optimize %s %s" phase k.label) t0 t1;
  match result with
  | Error e ->
      fail op (Printexc.to_string e);
      None
  | Ok o ->
      let trace =
        if not traced then None
        else
          let gc1 = Gc.quick_stat () in
          let fresh, hits =
            match !eval with Some ev -> (Eval.fresh ev, Eval.hits ev) | None -> (0, 0)
          in
          let after = read_counters () in
          Some
            {
              t0;
              t_eval = !t_eval;
              t1;
              marks = List.rev !marks;
              calls = !calls;
              fresh;
              hits;
              deltas = List.map2 (fun (c, a) (_, b) -> (c, b -. a)) before after;
              gc =
                ( gc1.Gc.minor_words -. gc0.Gc.minor_words,
                  gc1.Gc.major_words -. gc0.Gc.major_words,
                  gc1.Gc.minor_collections - gc0.Gc.minor_collections,
                  gc1.Gc.major_collections - gc0.Gc.major_collections );
            }
      in
      Option.iter
        (fun tr -> List.iter (fun (a, b) -> record ~parent:span "ga.generation" a b) (generations tr))
        trace;
      Some
        {
          k;
          ga_seed;
          op;
          wall_s = ((t1 -. t0) /. 1e6) -. !cal_wall;
          cpu_s = c1 -. c0;
          json = Tiling_obs.Json.to_string (Tiler.to_json o);
          tiles = Array.to_list o.Tiler.tiles;
          tier;
          trace;
        }

(* [sym] are the searches of the traced run's symbolic pass, the only
   source of the Closed_form figures. *)
let layer_metrics ~sym searches ~overhead =
  let v = Catalog.v in
  let traced_of l = List.filter_map (fun s -> Option.map (fun t -> (s, t)) s.trace) l in
  let traced = traced_of searches in
  let n = List.length traced in
  let sym_traced = traced_of sym in
  let n_sym = List.length sym_traced in
  let sym_delta name = List.fold_left (fun acc (_, t) -> acc +. List.assoc name t.deltas) 0. sym_traced in
  let sym_per_eval name =
    ratio (sym_delta name) (List.fold_left (fun acc (_, t) -> acc +. float_of_int t.fresh) 0. sym_traced)
  in
  let sum f = List.fold_left (fun acc (s, t) -> acc +. f s t) 0. traced in
  let delta name = sum (fun _ t -> List.assoc name t.deltas) in
  let fresh = sum (fun _ t -> float_of_int t.fresh) in
  let hits = sum (fun _ t -> float_of_int t.hits) in
  let wall_us = sum (fun _ t -> t.t1 -. t.t0) in
  let per_eval x = ratio x fresh in
  let gens = List.concat_map (fun (_, t) -> List.map (fun g -> (t, g)) (generations t)) traced in
  let gen_ms = List.map (fun (_, (a, b)) -> (b -. a) /. 1e3) gens in
  let gen_self_ms =
    List.map (fun (t, (a, b)) -> (b -. a -. covered ~lo:a ~hi:b t.calls) /. 1e3) gens
  in
  let tiler_self_ms =
    List.map
      (fun (_, t) ->
        let in_gens = List.fold_left (fun acc (a, b) -> acc +. (b -. a)) 0. (generations t) in
        (t.t1 -. t.t0 -. in_gens) /. 1e3)
      traced
  in
  let call_ms = List.concat_map (fun (_, t) -> List.map (fun (a, b) -> (b -. a) /. 1e3) t.calls) traced in
  let call_us = List.fold_left ( +. ) 0. call_ms *. 1e3 in
  let gc_sum f = sum (fun _ t -> f t.gc) in
  let per_kernel label =
    let walls = List.filter_map (fun (s, _) -> if s.k.label = label then Some s.wall_s else None) traced in
    v ~samples:(List.length walls) ("tiler.search_s." ^ label) (median walls)
  in
  let samples = List.length gens in
  List.map per_kernel [ "mm"; "t2d"; "sor"; "lu" ]
  @ [
      v ~samples:n "tiler.self_ms" (median tiler_self_ms);
      v ~samples:n "ga.generations" (ratio (float_of_int samples) (float_of_int n));
      v ~samples "ga.generation_ms.p50" (median gen_ms);
      v ~samples "ga.self_ms.p50" (median gen_self_ms);
      v ~samples:n "eval.fresh" (ratio fresh (float_of_int n));
      v ~samples:n "eval.memo_hit_ratio" (ratio hits (hits +. fresh));
      v ~samples:n "eval.fresh_per_s" (ratio fresh (wall_us /. 1e6));
      v ~samples:(List.length call_ms) "backend.call_ms.p50" (median call_ms);
      v ~samples:(List.length call_ms) "backend.call_ms.p90" (quantile 0.9 call_ms);
      v ~samples:n "backend.busy_share" (ratio call_us (wall_us *. float_of_int domains));
      v ~samples:n "cme.engines_per_eval" (per_eval (delta "cme.engines.created"));
      v ~samples:n "cme.classify_per_eval"
        (per_eval
           (delta "cme.classify.hit" +. delta "cme.classify.replacement"
          +. delta "cme.classify.compulsory"));
      v ~samples:n "cme.residues_computed_per_eval" (per_eval (delta "cme.residues.shared.miss"));
      v ~samples:n "cme.residue_l1_hit_ratio"
        (ratio (delta "cme.residues.memo.hit")
           (delta "cme.residues.memo.hit" +. delta "cme.residues.memo.miss"));
      v ~samples:n "cme.residue_shared_hit_ratio"
        (ratio (delta "cme.residues.shared.hit")
           (delta "cme.residues.shared.hit" +. delta "cme.residues.shared.miss"));
      v ~samples:n "cme.fallbacks" (delta "cme.fallbacks");
      v ~samples:n_sym "symbolic.rows_per_eval" (sym_per_eval "symbolic.rows");
      v ~samples:n_sym "symbolic.probed_per_eval" (sym_per_eval "symbolic.rows.probed");
      v ~samples:n_sym "symbolic.extrapolated_per_eval" (sym_per_eval "symbolic.rows.extrapolated");
      v ~samples:n_sym "symbolic.points_per_eval" (sym_per_eval "symbolic.points.classified");
      v ~samples:n_sym "symbolic.fallbacks" (sym_delta "symbolic.fallbacks");
      v ~samples:n "pool.busy_share"
        (ratio (delta "pool.worker.busy_ns" /. 1e3) (wall_us *. float_of_int domains));
      v ~samples:n "pool.chunks_per_batch" (ratio (delta "pool.chunks") (delta "search.eval.batches"));
      v ~samples:n "gc.minor_words_per_eval" (per_eval (gc_sum (fun (w, _, _, _) -> w)));
      v ~samples:n "gc.major_words_per_eval" (per_eval (gc_sum (fun (_, w, _, _) -> w)));
      v ~samples:n "gc.minor_collections" (gc_sum (fun (_, _, c, _) -> float_of_int c));
      v ~samples:n "gc.major_collections" (gc_sum (fun (_, _, _, c) -> float_of_int c));
      v ~samples:n "gc.pause_ms" (Gc_pauses.pause_ms ());
      v ~samples:2 "trace.overhead_pct" overhead;
    ]

(* The simulator's verdict on one search's chosen tiling; [plant]
   substitutes a bad vector for the self-test. *)
let judge_search ~config ~plant s =
  let uppers = Array.to_list (Tiling_ir.Transform.tile_spans s.k.nest) in
  let tiles =
    match plant with
    | "untiled" -> uppers
    | "illegal" -> List.mapi (fun i u -> if i = 0 then u + 1 else u) uppers
    | _ -> s.tiles
  in
  let verdict = Judge.judge ~kernel:s.k.label ~n:s.k.n config s.k.nest tiles in
  (match verdict.Judge.ok with Ok () -> () | Error m -> fail s.op m);
  Printf.printf "judged kernel=%s ga_seed=%d tiles=[%s] repl_pct=%.4f\n" s.k.name s.ga_seed
    (String.concat "," (List.map string_of_int tiles)) (Judge.repl_pct verdict);
  (s.k.label, Judge.repl_pct verdict)

let run ~seed ~seconds ~traced ~tiny ~plant ~work_dir =
  let cache_size = if tiny then 1024 else 8192 in
  let config = Tiling_cache.Config.make ~size:cache_size ~line:32 () in
  let opts = { (base_opts ~tiny) with Tiler.domains } in
  let nsetups = 21 in
  let setup_t0 = Unix.gettimeofday () in
  let setups =
    List.init nsetups (fun _ ->
        ignore (Calib.sample ());
        time_setup ~tiny)
  in
  let setup_scale = Calib.scale ~t0:setup_t0 ~t1:(Unix.gettimeofday ()) in
  let kernels = Array.of_list (rotation ~tiny) in
  Tiling_util.Pool.run ~helpers:(domains - 1) ~nchunks:domains (fun _ -> ());
  let nk = Array.length kernels in
  (* One search per kernel, with GA seeds that are fixed, the same in
     every run: one search's cost varies up to threefold between GA seeds
     (LU 48: 6.2 to 18.6 CPU seconds), so runs of one or two searches per
     kernel with seeds drawn from the workload seed spread by about 0.16
     from the draw alone.  The workload seed orders the kernels. *)
  let fixed = Tiling_util.Prng.create ~seed:2002 in
  let seeds = Array.init nk (fun _ -> Tiling_util.Prng.int fixed 1_000_000_000) in
  let order = Array.init nk Fun.id in
  Tiling_util.Prng.shuffle (Tiling_util.Prng.create ~seed) order;
  (* The determinism check repeats the cheapest kernel's search. *)
  let repeat_k = 1 (* T2D *) in
  print_inputs
    [
      Printf.sprintf "workload=tile-cme seed=%d backend=%s domains=%d cache=%dB/32B/direct-mapped"
        seed backend.Backend.name domains cache_size;
      Printf.sprintf "repeat: %s (identical inputs)" kernels.(repeat_k).name;
    ];
  let gc_events = if traced then Some (Gc_pauses.start ()) else None in
  let subscription = Events.subscribe on_event in
  if traced then Metrics.set_enabled true;
  let t_start = Unix.gettimeofday () and steal0 = steal_s () in
  let elapsed () = Unix.gettimeofday () -. t_start in
  let cold = ref [] in
  let search ?(traced = traced) ki =
    let ga_seed = seeds.(ki) in
    Printf.printf "input search kernel=%s n=%d ga_seed=%d\n%!" kernels.(ki).name
      kernels.(ki).n ga_seed;
    let r = run_search ~opts ~backend ~traced ~config kernels.(ki) ga_seed in
    Option.iter
      (fun s ->
        Printf.printf "searched kernel=%s wall_s=%.3f cpu_s=%.3f tiles=[%s]\n%!"
          s.k.name s.wall_s s.cpu_s (String.concat "," (List.map string_of_int s.tiles));
        cold := s :: !cold)
      r;
    r
  in
  let first = Array.make nk None in
  Array.iter (fun ki -> first.(ki) <- search ki) order;
  (* The repeat runs untraced: in the traced run it doubles as the
     untraced twin that prices tracing. *)
  if traced then begin
    Metrics.set_enabled false;
    Runtime_events.pause ()
  end;
  let repeat = search ~traced:false repeat_k in
  if traced then begin
    Metrics.set_enabled true;
    Runtime_events.resume ()
  end;
  (match (first.(repeat_k), repeat) with
  | Some a, Some b ->
      let b_json = if plant = "repeat" then b.json ^ " " else b.json in
      check b.op (a.json = b_json) "repeated search with identical inputs returned a different outcome"
  | _ -> ());
  let cold_scale = Calib.scale ~t0:t_start ~t1:(Unix.gettimeofday ()) in
  if traced then Runtime_events.pause ();
  (* The traced run also prices the Closed_form layer: the cold inputs
     once more on the symbolic backend, one domain.  Not part of any
     end-to-end figure. *)
  let sym =
    if traced then
      List.filter_map
        (fun ki ->
          let s =
            run_search ~opts:{ opts with Tiler.domains = 1 } ~backend:Backend.symbolic
              ~traced:true ~config kernels.(ki) seeds.(ki)
          in
          Option.iter
            (fun s ->
              Printf.printf "searched backend=symbolic kernel=%s wall_s=%.3f tiles=[%s]\n%!" s.k.name
                s.wall_s (String.concat "," (List.map string_of_int s.tiles)))
            s;
          s)
        (List.init nk Fun.id)
    else []
  in
  Events.unsubscribe subscription;
  let cold = List.rev !cold in
  (* Warm replays of every cold search but the repeat, each replayed
     back to back, on one domain, as repeated requests for one key reach
     a default daemon.  The rest of the run is shared equally by the
     kernels and, within a kernel, by its searches; each search gets at
     least [min_replays].  A replay's cost follows its search's
     trajectory (LU's differ up to twofold between GA seeds), so a
     kernel's figure is the geometric mean over its searches of each
     one's median replay.  On two domains the replays' many tiny pool
     jobs made the warm figures of whole runs 35 % apart. *)
  let min_replays = if tiny then 2 else 20 in
  let per_kernel_s = Float.max 0. (seconds -. elapsed ()) /. float_of_int nk in
  let warm_opts = { opts with Tiler.domains = 1 } in
  let originals =
    List.filter (fun s -> match repeat with Some r -> s != r | None -> true) cold
  in
  let warm = ref [] and warm_t0 = Unix.gettimeofday () in
  Array.iter
    (fun k ->
      let srcs = List.filter (fun s -> s.k.label = k.label) originals in
      let n = List.length srcs in
      List.iter
        (fun src ->
          let deadline = Unix.gettimeofday () +. (per_kernel_s /. float_of_int n) in
          let walls = ref [] and i = ref 0 in
          while !i < min_replays || Unix.gettimeofday () < deadline do
            ignore (Calib.maybe_sample ~every:0.2 ());
            (match
               run_search ~opts:warm_opts ~backend ~traced:false ~config ~warm_from:src.tier src.k
                 src.ga_seed
             with
            | Some w ->
                let json = if plant = "warm" && !i = 0 then w.json ^ " " else w.json in
                check w.op (json = src.json) "warm replay differs from its cold search";
                walls := (w.wall_s, w.cpu_s) :: !walls
            | None -> ());
            incr i
          done;
          warm := (k.label, !walls) :: !warm)
        srcs)
    kernels;
  let warm_scale = Calib.scale ~t0:warm_t0 ~t1:(Unix.gettimeofday ()) in
  let rss = vm_hwm_mb "self" in
  let t_judge = Unix.gettimeofday () in
  let steal_pct =
    100. *. ratio (steal_s () -. steal0) ((t_judge -. t_start) *. float_of_int (Domain.recommended_domain_count ()))
  in
  Option.iter
    (fun g ->
      Gc_pauses.stop g;
      Printf.printf "gc: %d runtime events lost (gc.pause_ms undercounts if any)\n"
        (Atomic.get Gc_pauses.lost))
    gc_events;
  (* The judge: every cold search's chosen tiling, by simulation. *)
  let verdicts = List.map (fun s -> (s, judge_search ~config ~plant s)) cold in
  let judged = List.map snd verdicts in
  (* The symbolic pass's tilings too: the quality gap between the two
     backends on the same inputs, printed but not gated. *)
  if sym <> [] then begin
    print_endline "judging the symbolic pass";
    let sym_pct = mean (List.map (fun s -> snd (judge_search ~config ~plant:"" s)) sym) in
    let is_first s = Array.exists (function Some r -> r == s | None -> false) first in
    let cme_pct = mean (List.filter_map (fun (s, (_, p)) -> if is_first s then Some p else None) verdicts) in
    Printf.printf
      "symbolic quality (not gated): repl_miss_pct %.4f %% with backend symbolic, %.4f %% with %s, \
       on the same inputs (n=%d)\n"
      sym_pct cme_pct backend.Backend.name (List.length sym)
  end;
  let nwarm = List.fold_left (fun acc (_, w) -> acc + List.length w) 0 !warm in
  Printf.printf "phases: timed %.3f s (%d cold, %d warm searches), judge %.3f s\n%!" (t_judge -. t_start)
    (List.length cold) nwarm (Unix.gettimeofday () -. t_judge);
  let labels = Array.to_list (Array.map (fun k -> k.label) kernels) in
  let per_kernel f = List.map (fun l -> f l) labels in
  let of_kernel f l = List.filter_map (fun s -> if s.k.label = l then Some (f s) else None) cold in
  let walls = of_kernel (fun s -> s.wall_s) and cpus = of_kernel (fun s -> s.cpu_s) in
  (* Per search of kernel [l]: its replays' (wall, CPU) seconds. *)
  let warm_of l = List.filter_map (fun (l', w) -> if l = l' then Some w else None) !warm in
  let warm_stat f q l = quantile q (List.map f (List.concat (warm_of l))) in
  (* A kernel's warm CPU seconds: the geometric mean over its searches
     of each one's median replay. *)
  let warm_cpu l = geomean (List.map (fun w -> median (List.map snd w)) (warm_of l)) in
  List.iter
    (fun l ->
      Printf.printf
        "kernel %s: cold searches %d, median %.3f s wall, %.3f s CPU, %.3f reference s; warm \
         replays %s, %.2f reference ms\n"
        l
        (List.length (walls l)) (median (walls l)) (median (cpus l))
        (cold_scale *. median (cpus l))
        (String.concat "+" (List.map (fun w -> string_of_int (List.length w)) (warm_of l)))
        (1e3 *. warm_scale *. warm_cpu l))
    labels;
  let ncold = List.length cold in
  let v = Catalog.v in
  let end_to_end =
    [
      v ~samples:nsetups "setup_s" (setup_scale *. median (List.map snd setups));
      v ~samples:ncold "search_norm_s" (cold_scale *. geomean (per_kernel (fun l -> geomean (cpus l))));
      v ~samples:nwarm "warm_norm_ms" (1e3 *. warm_scale *. geomean (per_kernel warm_cpu));
      v ~samples:ncold "repl_miss_pct"
        (mean (per_kernel (fun l -> mean (List.filter_map (fun (l', r) -> if l = l' then Some r else None) judged))));
      v "peak_rss_mb" rss;
      v ~samples:nsetups "setup_wall_s" (median (List.map fst setups));
      v ~samples:nsetups "setup_cpu_s" (median (List.map snd setups));
      v ~samples:ncold "search_s" (geomean (per_kernel (fun l -> geomean (walls l))));
      v ~samples:ncold "search_cpu_s" (geomean (per_kernel (fun l -> geomean (cpus l))));
      v ~samples:ncold "cold_p50_ms" (1e3 *. median (per_kernel (fun l -> median (walls l))));
      v ~samples:nwarm "warm_p50_ms" (1e3 *. geomean (per_kernel (warm_stat fst 0.5)));
      v ~samples:nwarm "warm_p90_ms" (1e3 *. geomean (per_kernel (warm_stat fst 0.9)));
      v ~samples:nwarm "warm_cpu_ms" (1e3 *. geomean (per_kernel warm_cpu));
      v ~samples:(Calib.count ()) "calib_ms" (1e3 *. Calib.mean_s ());
      v "steal_pct" steal_pct;
    ]
  in
  let layers =
    if not traced then []
    else
      let overhead =
        match (first.(repeat_k), repeat) with
        | Some a, Some b -> 100. *. ((a.cpu_s /. b.cpu_s) -. 1.)
        | _ -> 0.
      in
      layer_metrics ~sym (List.filter (fun s -> s.trace <> None) cold) ~overhead
  in
  if traced then write_spans (Filename.concat work_dir "spans.json");
  (end_to_end, layers)
