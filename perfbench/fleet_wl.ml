(* The serve-fleet workload: [tiler serve --router] in front of two
   [tiler serve] workers that share one fresh [--store], all on Unix
   sockets with default flags.  The benchmark holds exactly two
   closed-loop client connections to the router, no think time.

   - cold phase: each key's first request (a fresh search plus store
     appends), sent by both clients at once as an identical concurrent
     pair;
   - warm phase: replays of the keys with skewed popularity, every
     candidate a store hit, in rounds of 20 with calibration samples
     between them, until the run's time is up and each kernel has at
     least 100 warm samples (so its p90 has ten beyond it);
   - stats and metrics scrapes of router and workers between phases.
   Keys carry no [backend], so the workload follows the daemon default.
   The gated timings are the fleet's CPU seconds (router and workers,
   from /proc) in reference seconds (see [Calib]). *)

open Measure
module Json = Tiling_obs.Json
module Client = Tiling_server.Client

type key = { kernel : string; n : int; cache_size : int; ga_seed : int }

let key_to_string k =
  Printf.sprintf "kernel=%s n=%d cache_size=%d ga_seed=%d" k.kernel k.n k.cache_size k.ga_seed

let params ~traced k =
  [
    ("kernel", Json.String k.kernel);
    ("n", Json.Int k.n);
    ("cache_size", Json.Int k.cache_size);
    ("seed", Json.Int k.ga_seed);
  ]
  @ if traced then [ ("trace", Json.Bool true) ] else []

(* One problem size per kernel (n <= 64): MM 32, T2D 64, SOR 48, LU 24.
   Each key's working set exceeds the 8 KB cache, and one cold search
   takes about 0.5 to 6 s on one domain.  Tiny mode (self-test) uses
   T2D 16. *)
let size ~tiny = function
  | _ when tiny -> 16
  | "mm" -> 32
  | "t2d" -> 64
  | "sor" -> 48
  | _ -> 24

(* ------------------------------------------------------------------ *)
(* Fleet processes. *)

type fleet = { pids : int list; router : string; workers : string list }

let addr s =
  match Tiling_util.Netio.addr_of_string s with Ok a -> a | Error m -> failwith m

let call_once address meth params =
  match Client.connect (addr address) with
  | Error m -> Error m
  | Ok c ->
      let r = Client.call c ~meth ~params in
      Client.close c;
      Result.bind r (fun env ->
          Result.map_error
            (fun e -> e.Tiling_server.Protocol.message)
            (Client.result_of_response env))

let wait_ready address =
  let deadline = Unix.gettimeofday () +. 30. in
  let rec go () =
    match call_once address "stats" [] with
    | Ok _ -> ()
    | Error m ->
        if Unix.gettimeofday () > deadline then failwith ("not ready: " ^ address ^ ": " ^ m);
        (* polled finely: set-up takes about 10 ms in all *)
        Thread.delay 0.0002;
        go ()
  in
  go ()

let spawn ~tiler ~dir =
  Unix.mkdir dir 0o755;
  let path f = Filename.concat dir f in
  let log = Unix.openfile (path "fleet.log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let start args = Unix.create_process tiler (Array.of_list (tiler :: "serve" :: args)) null log log in
  let w = [ "unix:" ^ path "w1.sock"; "unix:" ^ path "w2.sock" ] in
  let router = "unix:" ^ path "r.sock" in
  let worker_pids = List.map (fun a -> start [ "--socket"; a; "--store"; path "store" ]) w in
  List.iter wait_ready w;
  let router_pid =
    start ([ "--router"; "--socket"; router ] @ List.concat_map (fun a -> [ "--worker"; a ]) w)
  in
  wait_ready router;
  Unix.close log;
  Unix.close null;
  { pids = router_pid :: worker_pids; router; workers = w }

(* Reaped children, so a recycled pid is never signalled. *)
let reaped = Hashtbl.create 8

let rec wait_exit pid deadline =
  if not (Hashtbl.mem reaped pid) then
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        if Unix.gettimeofday () > deadline then begin
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] pid);
          Hashtbl.replace reaped pid ()
        end
        else begin
          Thread.delay 0.005;
          wait_exit pid deadline
        end
    | _ -> Hashtbl.replace reaped pid ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> Hashtbl.replace reaped pid ()

(* Router first, so nothing is forwarded to a draining worker. *)
let shutdown fleet =
  List.iter2
    (fun address pid ->
      ignore (call_once address "shutdown" []);
      wait_exit pid (Unix.gettimeofday () +. 10.))
    (fleet.router :: fleet.workers) fleet.pids

(* CPU seconds the fleet's processes (router and workers) have used. *)
let fleet_cpu_s fleet = List.fold_left (fun acc pid -> acc +. proc_cpu_s pid) 0. fleet.pids

let kill_all fleet =
  List.iter
    (fun pid ->
      if not (Hashtbl.mem reaped pid) then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        wait_exit pid (Unix.gettimeofday () +. 5.)
      end)
    fleet.pids

(* ------------------------------------------------------------------ *)
(* Scrapes. *)

let rec path j = function
  | [] -> Some j
  | k :: rest -> Option.bind (Json.member k j) (fun j -> path j rest)

let num j p = Option.value (Option.bind (path j p) Json.to_float) ~default:0.

type scrape = { router_stats : Json.t; worker_stats : Json.t list; worker_metrics : Json.t list }

let scrape fleet =
  let get address meth params =
    match call_once address meth params with Ok j -> j | Error m -> failwith ("scrape: " ^ m)
  in
  {
    router_stats = get fleet.router "stats" [];
    worker_stats = List.map (fun a -> get a "stats" []) fleet.workers;
    worker_metrics =
      List.map (fun a -> get a "metrics" [ ("format", Json.String "json") ]) fleet.workers;
  }

let workers_sum s p = List.fold_left (fun acc j -> acc +. num j p) 0. s.worker_stats

let counter_sum s name =
  List.fold_left (fun acc j -> acc +. num j [ "snapshot"; "counters"; name ]) 0. s.worker_metrics

(* Per-worker forward counts from router stats, with each worker's
   address. *)
let forwards router_stats =
  match path router_stats [ "workers" ] with
  | Some (Json.List ws) ->
      List.map
        (fun w ->
          ((match Json.member "addr" w with Some (Json.String a) -> a | _ -> ""), num w [ "forwards" ]))
        ws
  | _ -> []

(* ------------------------------------------------------------------ *)
(* Requests. *)

type sample = {
  key : int;
  kernel : string;
  latency_ms : float;
  traced : bool;
  queue_ms : float option;
  run_ms : float option;
}

(* The result without its caller-specific trace, as comparable text. *)
let strip_trace = function
  | Json.Obj kvs -> Json.to_string (Json.Obj (List.filter (fun (k, _) -> k <> "trace") kvs))
  | j -> Json.to_string j

let span_ms trace name =
  match Json.member "spans" trace with
  | Some (Json.List spans) ->
      List.find_map
        (fun s ->
          match Json.member "name" s with
          | Some (Json.String n) when n = name ->
              Option.map (fun d -> d /. 1e3) (Option.bind (Json.member "dur_us" s) Json.to_float)
          | _ -> None)
        spans
  | _ -> None

(* One request on one client connection; [Some result] unless the
   operation failed. *)
let request client ~lane ~phase ~traced op ki k =
  let t0 = now_us () in
  let resp = Client.call client ~meth:"tile" ~params:(params ~traced k) in
  let t1 = now_us () in
  record ~lane (Printf.sprintf "client.%s %s" phase k.kernel) t0 t1;
  match resp with
  | Error m ->
      fail op ("transport: " ^ m);
      None
  | Ok env -> (
      match Client.result_of_response env with
      | Error e ->
          fail op ("error envelope: " ^ e.Tiling_server.Protocol.message);
          None
      | Ok result ->
          let trace = Json.member "trace" result in
          let from_trace f = Option.bind trace f in
          Some
            ( result,
              {
                key = ki;
                kernel = k.kernel;
                latency_ms = (t1 -. t0) /. 1e3;
                traced = trace <> None;
                queue_ms = from_trace (fun t -> span_ms t "request.queue");
                run_ms = from_trace (fun t -> span_ms t "request.run");
              } ))

type slot = Solo of int | Pair of int

(* Two closed-loop clients over a slot list, one slot at a time: both
   clients meet at each slot, then a pair slot sends the same key from
   each at once and a solo slot sends it from one only.  So the fleet's
   CPU time between two slots' starts is the first slot's.  [on_start i]
   runs as slot [i] starts. *)
let run_slots ?(on_start = ignore) slots f =
  let lock = Mutex.create () and cond = Condition.create () in
  let next = ref 0 and waiting = ref (-1) and go = ref (-1) in
  let client lane () =
    let rec loop () =
      Mutex.lock lock;
      if !next >= Array.length slots then Mutex.unlock lock
      else begin
        let i = !next in
        let second = !waiting = i in
        if second then begin
          on_start i;
          waiting := -1;
          go := i;
          incr next;
          Condition.broadcast cond
        end
        else begin
          waiting := i;
          while !go <> i do
            Condition.wait cond lock
          done
        end;
        Mutex.unlock lock;
        (match slots.(i) with
        | Pair k -> f lane ~pair:true k
        | Solo k -> if second then f lane ~pair:false k);
        loop ()
      end
    in
    loop ()
  in
  let threads = List.map (fun lane -> Thread.create (client lane) ()) [ 0; 1 ] in
  List.iter Thread.join threads

(* The router's hop, on untraced requests: one warm key sent [rounds]
   times through the router and [rounds] times straight to the worker
   that owns it, alternating, one request at a time; the difference of
   the two medians.  The owner is the worker whose forward count one
   routed request raises.  Each response must equal the key's cold
   result. *)
let router_hop fleet routed ~rounds ki k ~cold_text =
  let router_forwards () =
    match call_once fleet.router "stats" [] with
    | Ok j -> forwards j
    | Error m -> failwith ("scrape: " ^ m)
  in
  let send client via i =
    let op = start_op (Printf.sprintf "hop request %d via %s key %d" i via ki) in
    match request client ~lane:0 ~phase:("hop-" ^ via) ~traced:false op ki k with
    | None -> None
    | Some (result, sample) ->
        check op (strip_trace result = cold_text)
          (Printf.sprintf "%s result for key %d differs from its cold result" via ki);
        Some sample.latency_ms
  in
  let f0 = router_forwards () in
  ignore (send routed "router" 0);
  let owner =
    List.find_map
      (fun ((a, n1), (_, n0)) -> if n1 > n0 then Some a else None)
      (List.combine (router_forwards ()) f0)
  in
  match owner with
  | None -> failwith "router hop: no worker forward counted"
  | Some owner ->
      let direct =
        match Client.connect (addr owner) with Ok c -> c | Error m -> failwith m
      in
      let via_router = ref [] and via_direct = ref [] in
      for i = 1 to rounds do
        Option.iter (fun ms -> via_router := ms :: !via_router) (send routed "router" i);
        Option.iter (fun ms -> via_direct := ms :: !via_direct) (send direct "worker" i)
      done;
      Client.close direct;
      Printf.printf "router hop: key %d, owner %s, median %.3f ms via router, %.3f ms direct (n=%d each)\n"
        ki owner (median !via_router) (median !via_direct) rounds;
      (median !via_router -. median !via_direct, min (List.length !via_router) (List.length !via_direct))

(* ------------------------------------------------------------------ *)

let run ~seed ~seconds ~traced ~tiny ~plant ~work_dir ~tiler =
  let rng = Tiling_util.Prng.create ~seed in
  let kernels = if tiny then [ "t2d" ] else [ "mm"; "t2d"; "sor"; "lu" ] in
  (* One key per (kernel, cache size) stratum, so every run loads the
     same mix of kernels and geometries.  The keys' GA seeds are fixed,
     as are tile-cme's: a key's search cost and chosen tiling follow its
     GA seed, and where rendezvous hashing puts the keys decides each
     worker's peak memory (the fleet's summed peak RSS spread by 0.2 over
     five runs with seeded keys).  For the same reason the cold pairs go
     out in a fixed order: a worker keeps residues and memo entries
     across requests, so a key's cost depends on the keys before it.
     The workload seed draws the warm traffic. *)
  let fixed = Tiling_util.Prng.create ~seed:2002 in
  let keys =
    Array.of_list
      (List.concat_map
         (fun kernel ->
           List.map
             (fun cache_size ->
               let n = size ~tiny kernel in
               { kernel; n; cache_size; ga_seed = Tiling_util.Prng.int fixed 1_000_000_000 })
             [ 8192; 32768 ])
         kernels)
  in
  let nkeys = Array.length keys in
  (* Every cold key is sent by both clients at once as an identical
     concurrent pair, which the fleet coalesces into one search; the
     traced run sends a seeded half of the keys from one client only,
     with "trace": true, since traced requests never coalesce.  Two
     different cold searches never run side by side: a worker runs its
     requests on one domain, so two searches on one worker share a core,
     and where rendezvous hashing happens to put the keys would swing
     every cold latency by up to 2x. *)
  let cold_traced = Array.init nkeys (fun _ -> traced && Tiling_util.Prng.bool rng) in
  let slots = Array.init nkeys (fun i -> if cold_traced.(i) then Solo i else Pair i) in
  (* Warm popularity, an assumed mix (no request log exists to take it
     from): each block of requests visits every kernel once, in seeded
     order, so every run loads the same kernel mix and the per-kernel
     figures need no reweighting; within a kernel, the key at the
     tiler's default 8 KB cache is hot and takes 80 % of the requests,
     the conventional 80/20 skew, and the 32 KB key the rest.  A seeded
     choice of hot key made whole runs' warm figures swing with it: T2D's
     warm median was about 5 ms with its 8 KB key hot, 9-12 ms with its
     32 KB key hot. *)
  let by_kernel =
    List.map
      (fun kernel ->
        let ks = List.filter (fun i -> keys.(i).kernel = kernel) (List.init nkeys Fun.id) in
        let hot = List.find (fun i -> keys.(i).cache_size = 8192) ks in
        (hot, List.filter (( <> ) hot) ks))
      kernels
    |> Array.of_list
  in
  let block = Array.init (Array.length by_kernel) Fun.id in
  let draw i =
    if i mod Array.length block = 0 then Tiling_util.Prng.shuffle rng block;
    match by_kernel.(block.(i mod Array.length block)) with
    | hot, [] -> hot
    | hot, others ->
        if Tiling_util.Prng.float rng < 0.8 then hot
        else List.nth others (Tiling_util.Prng.int rng (List.length others))
  in
  let max_warm = 20_000 in
  let warm_keys = Array.init max_warm draw in
  let warm_traced = Array.init max_warm (fun _ -> traced && Tiling_util.Prng.float rng < 0.25) in
  (* The in-process recomputation takes one of the cheapest kernel's
     keys, so it costs the run about a second, not up to eight. *)
  let inproc_key =
    let t2d = List.filter (fun i -> keys.(i).kernel = "t2d") (List.init nkeys Fun.id) in
    List.nth t2d (Tiling_util.Prng.int rng (List.length t2d))
  in
  print_inputs
    (Printf.sprintf "workload=serve-fleet seed=%d clients=2 workers=2 backend=daemon-default" seed
    :: List.mapi (fun i k -> Printf.sprintf "key %d: %s" i (key_to_string k)) (Array.to_list keys)
    @ [
        "cold slots: "
        ^ String.concat " "
            (Array.to_list
               (Array.map
                  (function Solo i -> string_of_int i | Pair i -> Printf.sprintf "pair(%d)" i)
                  slots));
        Printf.sprintf "in-process check: key %d" inproc_key;
        "warm hot keys: "
        ^ String.concat " " (Array.to_list (Array.map (fun (hot, _) -> string_of_int hot) by_kernel));
      ]);
  (* Set-up, 13 times: spawn workers, store open, socket bind, router,
     two client connections.  All but the last fleet are torn down, and
     each torn-down fleet's CPU seconds, reaped, are its set-up's (and
     its shut-down's). *)
  let setup i =
    ignore (Calib.sample ());
    let t0 = Unix.gettimeofday () in
    let fleet = spawn ~tiler ~dir:(Filename.concat work_dir (Printf.sprintf "fleet%d" i)) in
    let clients =
      List.map
        (fun _ ->
          match Client.connect (addr fleet.router) with Ok c -> c | Error m -> failwith m)
        [ 0; 1 ]
    in
    (Unix.gettimeofday () -. t0, fleet, clients)
  in
  let nsetups = 13 in
  let setup_t0 = Unix.gettimeofday () in
  let setups =
    List.init nsetups (fun i ->
        let c0 = children_cpu_s () in
        let ((_, fleet, clients) as s) = setup i in
        if i < nsetups - 1 then begin
          List.iter Client.close clients;
          shutdown fleet
        end;
        (s, children_cpu_s () -. c0))
  in
  let setup_scale = Calib.scale ~t0:setup_t0 ~t1:(Unix.gettimeofday ()) in
  let setup_cpu = List.filteri (fun i _ -> i < nsetups - 1) (List.map snd setups) in
  let setups = List.map fst setups in
  let _, fleet, clients = List.nth setups (nsetups - 1) in
  let clients = Array.of_list clients in
  Fun.protect ~finally:(fun () -> kill_all fleet) @@ fun () ->
  let s0 = scrape fleet in
  let t_start = Unix.gettimeofday () and steal0 = steal_s () in
  (* Cold phase.  Its slots run one at a time, so the fleet's CPU time
     from one slot's start to the next is that key's.  This process only
     waits meanwhile, so a background thread calibrates. *)
  let starts = ref [] in
  let on_start i =
    let (Solo ki | Pair ki) = slots.(i) in
    starts := (ki, fleet_cpu_s fleet) :: !starts
  in
  let stop_calib = Calib.background () in
  let cold_result = Array.make nkeys None in
  let pair_results = Array.make nkeys [] in
  let cold = ref [] and cold_ops = ref 0 in
  let lock = Mutex.create () in
  Fun.protect ~finally:stop_calib (fun () ->
      run_slots ~on_start slots (fun lane ~pair ki ->
          let op = start_op (Printf.sprintf "cold request key %d (%s)" ki (key_to_string keys.(ki))) in
          (* solo cold slots are exactly the traced keys *)
          match request clients.(lane) ~lane ~phase:"cold" ~traced:(not pair) op ki keys.(ki) with
          | None -> Mutex.protect lock (fun () -> incr cold_ops)
          | Some (result, sample) ->
              Mutex.protect lock (fun () ->
                  incr cold_ops;
                  cold := sample :: !cold;
                  let text = strip_trace result in
                  if pair then pair_results.(ki) <- (op, text) :: pair_results.(ki);
                  if cold_result.(ki) = None then cold_result.(ki) <- Some (op, result, text))));
  Array.iteri
    (fun ki members ->
      match members with
      | [ (_, a); (op, b) ] ->
          let b = if plant = "pair" then b ^ " " else b in
          check op (a = b) (Printf.sprintf "coalesced pair on key %d got different results" ki)
      | _ -> ())
    pair_results;
  (* Per key: its CPU seconds. *)
  let key_cpu =
    let _, per_key =
      List.fold_left
        (fun (c1, acc) (ki, c0) -> (c0, (ki, c1 -. c0) :: acc))
        (fleet_cpu_s fleet, []) !starts
    in
    per_key
  in
  let cold_scale = Calib.scale ~t0:t_start ~t1:(Unix.gettimeofday ()) in
  let s1 = scrape fleet in
  (* Warm phase. *)
  (* At least 100 warm requests per kernel: ten samples beyond each
     kernel's 90th percentile. *)
  let min_warm = (if tiny then 5 else 100) * List.length kernels in
  let next = ref 0 and warm = ref [] in
  let t_cold_end = Unix.gettimeofday () and warm_cpu0 = fleet_cpu_s fleet in
  let more () = !next < max_warm && (!next < min_warm || Unix.gettimeofday () -. t_start < seconds) in
  let round_end = ref 0 in
  let warm_client lane () =
    let rec loop () =
      let i =
        Mutex.protect lock (fun () ->
            let i = !next in
            if i < !round_end && more () then begin
              incr next;
              Some i
            end
            else None)
      in
      match i with
      | None -> ()
      | Some i ->
          let ki = warm_keys.(i) in
          let op = start_op (Printf.sprintf "warm request %d key %d" i ki) in
          (match request clients.(lane) ~lane ~phase:"warm" ~traced:warm_traced.(i) op ki keys.(ki) with
          | None -> ()
          | Some (result, sample) ->
              Mutex.protect lock (fun () -> warm := sample :: !warm);
              let text = strip_trace result in
              let text = if plant = "warm" && i = 0 then text ^ " " else text in
              (match cold_result.(ki) with
              | Some (_, _, cold_text) ->
                  check op (text = cold_text) (Printf.sprintf "warm result for key %d differs from its cold result" ki)
              | None -> fail op "key has no cold result to compare"));
          loop ()
    in
    loop ()
  in
  (* In rounds of 20 requests, about a fifth of a second; between rounds
     the fleet is idle and this process calibrates. *)
  while more () do
    round_end := !next + 20;
    List.iter Thread.join (List.map (fun lane -> Thread.create (warm_client lane) ()) [ 0; 1 ]);
    ignore (Calib.sample ())
  done;
  let warm_cpu = fleet_cpu_s fleet -. warm_cpu0 in
  let warm_scale = Calib.scale ~t0:t_cold_end ~t1:(Unix.gettimeofday ()) in
  let steal_pct =
    100.
    *. ratio (steal_s () -. steal0)
         ((Unix.gettimeofday () -. t_start) *. float_of_int (Domain.recommended_domain_count ()))
  in
  let nwarm = !next in
  print_inputs
    [
      Printf.sprintf "warm order (%d): %s" nwarm
        (String.concat " " (List.init nwarm (fun i -> string_of_int warm_keys.(i))));
    ];
  let s2 = scrape fleet in
  (* After the last scrape, so its requests stay out of the deltas. *)
  let hop =
    if not traced then None
    else
      let ki = fst by_kernel.(0) in
      match cold_result.(ki) with
      | Some (_, _, cold_text) ->
          Some (router_hop fleet clients.(0) ~rounds:(if tiny then 5 else 40) ki keys.(ki) ~cold_text)
      | None -> None
  in
  let rss_each = List.map (fun pid -> vm_hwm_mb (string_of_int pid)) fleet.pids in
  Printf.printf "peak rss MB: router %.1f, workers %s\n" (List.hd rss_each)
    (String.concat ", " (List.map (Printf.sprintf "%.1f") (List.tl rss_each)));
  let rss = List.fold_left ( +. ) 0. rss_each in
  Array.iter Client.close clients;
  shutdown fleet;
  Printf.printf "phases: cold %.3f s (%d requests), warm %.3f s (%d requests)\n%!"
    (t_cold_end -. t_start) !cold_ops (Unix.gettimeofday () -. t_cold_end) nwarm;
  List.iter
    (fun s -> Printf.printf "cold key=%d kernel=%s latency_ms=%.1f\n" s.key s.kernel s.latency_ms)
    (List.rev !cold);
  List.iter
    (fun (ki, c) ->
      Printf.printf "cold key=%d fleet cpu_s=%.2f reference_s=%.3f\n" ki c (cold_scale *. c))
    key_cpu;
  (* In-process check: the daemon is a transport, not another algorithm. *)
  (let k = keys.(inproc_key) in
   let op = start_op (Printf.sprintf "in-process search of key %d" inproc_key) in
   match cold_result.(inproc_key) with
   | None -> fail op "key has no cold result to compare"
   | Some (_, result, _) -> (
       let spec = Tiling_kernels.Kernels.find k.kernel in
       let config = Tiling_cache.Config.make ~size:k.cache_size ~line:32 () in
       let opts = { Tiling_core.Tiler.default_opts with seed = k.ga_seed; domains = 2 } in
       match Tiling_core.Tiler.optimize ~opts (spec.build k.n) config with
       | o ->
           let mine = Json.to_string (Tiling_core.Tiler.to_json o) in
           let mine = if plant = "inproc" then mine ^ " " else mine in
           let theirs = Option.map Json.to_string (Json.member "outcome" result) in
           check op (theirs = Some mine) "daemon result differs from in-process Tiler.optimize"
       | exception e -> fail op (Printexc.to_string e)));
  (* The judge: each key's cold tiling, by simulation. *)
  let judged =
    List.filter_map
      (fun ki ->
        match cold_result.(ki) with
        | None -> None
        | Some (op, result, _) ->
            let k = keys.(ki) in
            let tiles =
              match path result [ "outcome"; "tiles" ] with
              | Some (Json.List l) ->
                  List.map (function Json.Int i -> i | _ -> 0) l
              | _ -> []
            in
            let spec = Tiling_kernels.Kernels.find k.kernel in
            let nest = spec.build k.n in
            let config = Tiling_cache.Config.make ~size:k.cache_size ~line:32 () in
            let verdict = Judge.judge ~kernel:k.kernel ~n:k.n config nest tiles in
            (match verdict.Judge.ok with Ok () -> () | Error m -> fail op m);
            Printf.printf "judged key=%d %s tiles=[%s] repl_pct=%.4f\n" ki (key_to_string k)
              (String.concat "," (List.map string_of_int tiles)) (Judge.repl_pct verdict);
            Some verdict)
      (List.init nkeys Fun.id)
  in
  let cold = !cold and warm = !warm in
  let lat l = List.map (fun s -> s.latency_ms) l in
  (* One cold latency per key (a pair's two members averaged), so the
     median is over the same kernel-by-cache mix in every run. *)
  let key_ms =
    List.filter_map
      (fun ki ->
        match List.filter (fun s -> s.key = ki) cold with
        | [] -> None
        | l -> Some (keys.(ki).kernel, mean (lat l)))
      (List.init nkeys Fun.id)
  in
  let cold_s kernel =
    geomean (List.filter_map (fun (k, ms) -> if k = kernel then Some (ms /. 1e3) else None) key_ms)
  in
  let cold_cpu_s kernel =
    geomean (List.filter_map (fun (ki, c) -> if keys.(ki).kernel = kernel then Some c else None) key_cpu)
  in
  let warm_of k = lat (List.filter (fun s -> s.kernel = k) warm) in
  List.iter
    (fun k ->
      let w = warm_of k in
      Printf.printf
        "kernel %s: cold search %.3f s wall, %.3f s CPU (geometric means); warm requests %d, median %.2f ms\n"
        k (cold_s k) (cold_cpu_s k) (List.length w) (median w))
    kernels;
  Array.iteri
    (fun ki k ->
      let w = lat (List.filter (fun s -> s.key = ki) warm) in
      Printf.printf "warm key=%d %s: %d requests, median %.2f ms\n" ki (key_to_string k) (List.length w)
        (median w))
    keys;
  let v = Catalog.v in
  let end_to_end =
    [
      v ~samples:(List.length setup_cpu) "setup_s" (setup_scale *. median setup_cpu);
      v ~samples:(List.length key_cpu) "search_norm_s"
        (cold_scale *. geomean (List.map cold_cpu_s kernels));
      v ~samples:nwarm "warm_norm_ms" (1e3 *. warm_scale *. ratio warm_cpu (float_of_int nwarm));
      v ~samples:nsetups "setup_wall_s" (median (List.map (fun (t, _, _) -> t) setups));
      v ~samples:(List.length setup_cpu) "setup_cpu_s" (median setup_cpu);
      v ~samples:(List.length key_cpu) "search_cpu_s" (geomean (List.map cold_cpu_s kernels));
      v ~samples:nwarm "warm_cpu_ms" (1e3 *. ratio warm_cpu (float_of_int nwarm));
      v ~samples:(Calib.count ()) "calib_ms" (1e3 *. Calib.mean_s ());
      v ~samples:(List.length judged) "repl_miss_pct" (Judge.aggregate_pct judged);
      v ~samples:(List.length cold) "search_s" (geomean (List.map cold_s kernels));
      v ~samples:(List.length key_ms) "cold_p50_ms" (median (List.map snd key_ms));
      v ~samples:(List.length warm) "warm_p50_ms" (median (lat warm));
      v ~samples:(List.length warm) "warm_p90_ms"
        (geomean (List.map (fun k -> quantile 0.9 (warm_of k)) kernels));
      v ~samples:3 "peak_rss_mb" rss;
      v "steal_pct" steal_pct;
    ]
  in
  let layers =
    if not traced then []
    else
      let d a b f = f b -. f a in
      let requests = float_of_int (!cold_ops + nwarm) in
      let traced_of l = List.filter (fun s -> s.traced) l in
      let opt f l = List.filter_map f l in
      let all_traced = traced_of cold @ traced_of warm in
      let untraced_warm = List.filter (fun s -> not s.traced) warm in
      let store_lookups a b =
        d a b (fun s -> workers_sum s [ "store"; "hits" ] +. workers_sum s [ "store"; "misses" ])
      in
      let fresh = d s0 s2 (fun s -> counter_sum s "search.memo.miss") in
      let hits = d s0 s2 (fun s -> counter_sum s "search.memo.hit") in
      let per_eval name = ratio (d s0 s2 (fun s -> counter_sum s name)) fresh in
      let fwd =
        List.map2 (fun (_, a) (_, b) -> b -. a) (forwards s0.router_stats) (forwards s2.router_stats)
      in
      let nt = List.length all_traced in
      let router_delta p = d s0 s2 (fun s -> num s.router_stats [ "requests"; p ]) in
      [
        v ~samples:(List.length cold) "eval.fresh" (ratio fresh (float_of_int !cold_ops));
        v ~samples:(List.length cold) "eval.memo_hit_ratio" (ratio hits (hits +. fresh));
        v ~samples:(int_of_float requests) "ga.generations"
          (ratio (d s0 s2 (fun s -> counter_sum s "ga.generations")) requests);
        v "cme.engines_per_eval" (per_eval "cme.engines.created");
        v "cme.classify_per_eval"
          (per_eval "cme.classify.hit" +. per_eval "cme.classify.replacement"
          +. per_eval "cme.classify.compulsory");
        v "cme.residues_computed_per_eval" (per_eval "cme.residues.shared.miss");
        v "cme.residue_l1_hit_ratio"
          (let h = d s0 s2 (fun s -> counter_sum s "cme.residues.memo.hit")
           and m = d s0 s2 (fun s -> counter_sum s "cme.residues.memo.miss") in
           ratio h (h +. m));
        v "cme.residue_shared_hit_ratio"
          (let h = d s0 s2 (fun s -> counter_sum s "cme.residues.shared.hit")
           and m = d s0 s2 (fun s -> counter_sum s "cme.residues.shared.miss") in
           ratio h (h +. m));
        v "cme.fallbacks" (d s0 s2 (fun s -> counter_sum s "cme.fallbacks"));
        v "symbolic.fallbacks" (d s0 s2 (fun s -> counter_sum s "symbolic.fallbacks"));
        v ~samples:nt "scheduler.queue_ms.p50" (median (opt (fun s -> s.queue_ms) all_traced));
        v ~samples:nt "scheduler.queue_ms.p95" (quantile 0.95 (opt (fun s -> s.queue_ms) all_traced));
        v ~samples:(List.length (traced_of warm)) "scheduler.run_ms.warm.p50"
          (median (opt (fun s -> s.run_ms) (traced_of warm)));
        v ~samples:(List.length (traced_of cold)) "scheduler.run_ms.cold.p50"
          (median (opt (fun s -> s.run_ms) (traced_of cold)));
        v "scheduler.coalesced" (d s0 s2 (fun s -> workers_sum s [ "requests"; "coalesced" ]));
        v "scheduler.rejected" (d s0 s2 (fun s -> workers_sum s [ "requests"; "rejected" ]));
        v ~samples:nwarm "store.lookups_per_warm_request"
          (ratio (store_lookups s1 s2) (float_of_int nwarm));
        v ~samples:nwarm "store.warm_hit_ratio"
          (ratio (d s1 s2 (fun s -> workers_sum s [ "store"; "hits" ])) (store_lookups s1 s2));
        v ~samples:!cold_ops "store.appends_per_cold_request"
          (ratio (d s0 s1 (fun s -> workers_sum s [ "store"; "appends" ])) (float_of_int !cold_ops));
        v "store.refreshes" (d s0 s2 (fun s -> counter_sum s "server.store.refreshes"));
        v "store.compactions" (d s0 s2 (fun s -> workers_sum s [ "store"; "compactions" ]));
        (let ms, n = Option.value hop ~default:(0., 0) in
         v ~samples:n "router.overhead_ms.p50" ms);
        v ~samples:(int_of_float requests) "router.coalesced_share"
          (ratio (router_delta "coalesced") requests);
        v ~samples:(List.length fwd) "router.shard_imbalance"
          (ratio (List.fold_left Float.max 0. fwd) (mean fwd));
        v "router.retries" (router_delta "retried");
        v "router.failed" (router_delta "failed");
        v ~samples:(List.length warm) "trace.overhead_pct"
          (100. *. (ratio (median (lat (traced_of warm))) (median (lat untraced_warm)) -. 1.));
      ]
  in
  if traced then write_spans (Filename.concat work_dir "spans.json");
  (end_to_end, layers)
