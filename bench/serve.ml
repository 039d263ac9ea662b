(* serve-latency: end-to-end request latency against a live daemon.

   Boots the daemon in-process on a throwaway Unix socket with a fresh
   result store, then times [tile] requests for MM through the real wire
   path (client -> NDJSON -> scheduler -> search -> response) in two
   phases: store-cold (every request a distinct seed, so every candidate
   evaluation reaches the backend) and store-warm (the same requests
   again, answered out of the persistent store).  p50/p95 per phase land
   in BENCH_results.json under "serve_latency". *)

module Json = Tiling_obs.Json
module Server = Tiling_server.Server
module Client = Tiling_server.Client
module Netio = Tiling_util.Netio

type row = {
  s_kernel : string;
  s_n : int;
  s_phase : string; (* "cold" | "warm" *)
  s_requests : int;
  s_p50_ms : float;
  s_p95_ms : float;
  s_wall_s : float;
}

let rows : row list ref = ref []

let json_of_row r =
  Json.Obj
    [
      ("kernel", Json.String r.s_kernel);
      ("n", Json.Int r.s_n);
      ("phase", Json.String r.s_phase);
      ("requests", Json.Int r.s_requests);
      ("p50_ms", Json.Float r.s_p50_ms);
      ("p95_ms", Json.Float r.s_p95_ms);
      ("wall_s", Json.Float r.s_wall_s);
    ]

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0. else sorted.(min (n - 1) (n * q / 100))

let temp_path suffix =
  let f = Filename.temp_file "tiling_bench_serve" suffix in
  Sys.remove f;
  f

let run () =
  Fmt.pr "@.== serve-latency: daemon round-trip, store-cold vs store-warm ==@.";
  let quick = Experiments.bench_quick () in
  let kernel = "MM" in
  let n = if quick then 12 else 32 in
  let requests = if quick then 3 else 8 in
  let sock = temp_path ".sock" and store = temp_path ".store" in
  let cfg =
    {
      Server.default_config with
      addr = Netio.Unix_sock sock;
      store_path = Some store;
      workers = 2;
    }
  in
  let server = Thread.create (fun () -> ignore (Server.run cfg)) () in
  let rec await tries =
    if Sys.file_exists sock then ()
    else if tries = 0 then failwith "daemon never bound its socket"
    else (
      Thread.delay 0.05;
      await (tries - 1))
  in
  await 100;
  let client =
    match Client.connect (Netio.Unix_sock sock) with
    | Ok c -> c
    | Error m -> failwith m
  in
  let one seed =
    let params =
      [
        ("kernel", Json.String kernel);
        ("n", Json.Int n);
        ("seed", Json.Int seed);
      ]
    in
    let t0 = Unix.gettimeofday () in
    (match Client.call client ~meth:"tile" ~params with
    | Ok envelope -> (
        match Client.result_of_response envelope with
        | Ok _ -> ()
        | Error e -> failwith e.Tiling_server.Protocol.message)
    | Error m -> failwith m);
    (Unix.gettimeofday () -. t0) *. 1e3
  in
  let phase name =
    let t0 = Unix.gettimeofday () in
    let lats = Array.init requests (fun i -> one (100 + i)) in
    let wall = Unix.gettimeofday () -. t0 in
    Array.sort compare lats;
    let p50 = percentile lats 50 and p95 = percentile lats 95 in
    Fmt.pr "%-4s n=%-3d %-5s %2d requests  p50 %8.1f ms  p95 %8.1f ms@." kernel
      n name requests p50 p95;
    rows :=
      {
        s_kernel = kernel;
        s_n = n;
        s_phase = name;
        s_requests = requests;
        s_p50_ms = p50;
        s_p95_ms = p95;
        s_wall_s = wall;
      }
      :: !rows
  in
  phase "cold";
  phase "warm";
  (match Client.call client ~meth:"shutdown" ~params:[] with
  | Ok _ -> ()
  | Error m -> Fmt.epr "shutdown: %s@." m);
  Client.close client;
  Thread.join server;
  if Sys.file_exists store then Sys.remove store;
  if Sys.file_exists sock then Sys.remove sock

(* serve-telemetry: what does the PR-6 telemetry stack cost?

   Same in-process daemon and the same warm MM requests (store seeded by a
   first pass), measured twice: with the metrics/events registries disabled
   and no trace requested, then with both registries live and every request
   carrying ["trace": true] — per-request span trees, progress
   subscription plumbing and counters all engaged.  The two rows land in
   "serve_latency" (phases "telemetry-off" / "telemetry-on"); the target
   is a p50 regression under a few percent. *)
let run_telemetry () =
  Fmt.pr "@.== serve-telemetry: warm request latency, telemetry off vs on ==@.";
  let quick = Experiments.bench_quick () in
  let kernel = "MM" in
  let n = if quick then 12 else 32 in
  let requests = if quick then 8 else 40 in
  let sock = temp_path ".sock" and store = temp_path ".store" in
  let cfg =
    {
      Server.default_config with
      addr = Netio.Unix_sock sock;
      store_path = Some store;
      workers = 2;
    }
  in
  let server = Thread.create (fun () -> ignore (Server.run cfg)) () in
  let rec await tries =
    if Sys.file_exists sock then ()
    else if tries = 0 then failwith "daemon never bound its socket"
    else (
      Thread.delay 0.05;
      await (tries - 1))
  in
  await 100;
  let client =
    match Client.connect (Netio.Unix_sock sock) with
    | Ok c -> c
    | Error m -> failwith m
  in
  let one ~trace seed =
    let params =
      [
        ("kernel", Json.String kernel);
        ("n", Json.Int n);
        ("seed", Json.Int seed);
      ]
      @ if trace then [ ("trace", Json.Bool true) ] else []
    in
    let t0 = Unix.gettimeofday () in
    (match Client.call client ~meth:"tile" ~params with
    | Ok envelope -> (
        match Client.result_of_response envelope with
        | Ok _ -> ()
        | Error e -> failwith e.Tiling_server.Protocol.message)
    | Error m -> failwith m);
    (Unix.gettimeofday () -. t0) *. 1e3
  in
  (* Seed the store once so both measured phases run warm. *)
  for i = 1 to requests do
    ignore (one ~trace:false (100 + i))
  done;
  let phase name ~trace =
    let t0 = Unix.gettimeofday () in
    let lats = Array.init requests (fun i -> one ~trace (100 + 1 + i)) in
    let wall = Unix.gettimeofday () -. t0 in
    Array.sort compare lats;
    let p50 = percentile lats 50 and p95 = percentile lats 95 in
    Fmt.pr "%-4s n=%-3d %-13s %3d requests  p50 %7.2f ms  p95 %7.2f ms@."
      kernel n name requests p50 p95;
    rows :=
      {
        s_kernel = kernel;
        s_n = n;
        s_phase = name;
        s_requests = requests;
        s_p50_ms = p50;
        s_p95_ms = p95;
        s_wall_s = wall;
      }
      :: !rows;
    p50
  in
  Tiling_obs.Metrics.set_enabled false;
  Tiling_obs.Events.set_enabled false;
  let off = phase "telemetry-off" ~trace:false in
  Tiling_obs.Metrics.set_enabled true;
  Tiling_obs.Events.set_enabled true;
  let on = phase "telemetry-on" ~trace:false in
  let traced = phase "telemetry-trace" ~trace:true in
  Tiling_obs.Metrics.set_enabled false;
  Tiling_obs.Events.set_enabled false;
  if off > 0. then begin
    (* The always-on cost (what `serve` pays unconditionally) vs the
       per-request cost of asking for a full span tree. *)
    Fmt.pr "metrics+events p50 overhead: %+.1f%% (target < 3%%)@."
      (100. *. (on -. off) /. off);
    Fmt.pr "per-request --trace p50 overhead: %+.1f%%@."
      (100. *. (traced -. off) /. off)
  end;
  (match Client.call client ~meth:"shutdown" ~params:[] with
  | Ok _ -> ()
  | Error m -> Fmt.epr "shutdown: %s@." m);
  Client.close client;
  Thread.join server;
  if Sys.file_exists store then Sys.remove store;
  if Sys.file_exists sock then Sys.remove sock

(* serve-fanout: the PR-10 fleet under concurrent clients.

   Three topologies — one daemon, a router over two workers and (full
   mode) a router over four — each take the same load: N client
   connections issuing tile requests concurrently.  Phases per topology:
   store-cold (distinct seeds), store-warm (the same seeds again,
   answered out of the shared store), and coalesce (every client sends
   the {e same} request at once, so the fleet must evaluate it exactly
   once).  In full mode the router topologies add a failover phase that
   SIGKILLs one worker mid-stream; every request must still answer.
   Rows land in BENCH_results.json under "serve_fanout"; the headline
   check is router+2 warm p50 within 2x of the single daemon's. *)

module Router = Tiling_fleet.Router

type fan_row = {
  f_topology : string; (* "single" | "router+2" | "router+4" *)
  f_phase : string; (* "cold" | "warm" | "coalesce" | "failover" *)
  f_clients : int;
  f_requests : int; (* total across all clients *)
  f_p50_ms : float;
  f_p95_ms : float;
  f_coalesce_hits : int; (* fleet-wide shared answers during the phase *)
  f_wall_s : float;
}

let fanout_rows : fan_row list ref = ref []

let json_of_fan_row r =
  Json.Obj
    [
      ("topology", Json.String r.f_topology);
      ("phase", Json.String r.f_phase);
      ("clients", Json.Int r.f_clients);
      ("requests", Json.Int r.f_requests);
      ("p50_ms", Json.Float r.f_p50_ms);
      ("p95_ms", Json.Float r.f_p95_ms);
      ("coalesce_hits", Json.Int r.f_coalesce_hits);
      ("wall_s", Json.Float r.f_wall_s);
    ]

let tiler_exe =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/tiler.exe"

let spawn_worker ~sock ~store =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close null)
    (fun () ->
      Unix.create_process tiler_exe
        [|
          tiler_exe; "serve";
          "--socket"; "unix:" ^ sock;
          "--store"; store;
          "--workers"; "2";
          "--queue"; "64";
        |]
        Unix.stdin null null)

let connect sock =
  match Client.connect (Netio.Unix_sock sock) with
  | Ok c -> c
  | Error m -> failwith m

let await_socket sock =
  let rec await tries =
    if Sys.file_exists sock then ()
    else if tries = 0 then failwith "daemon never bound its socket"
    else (
      Thread.delay 0.05;
      await (tries - 1))
  in
  await 200

(* Run [f front daemons pids] with the topology up: [workers = 0] is the
   plain in-process daemon, otherwise [workers] tiler subprocesses behind
   an in-process router.  [f] gets the front socket, the sockets of the
   daemons that evaluate (and coalesce) and the worker pids (for the
   failover phase); teardown drains the whole tree. *)
let with_topology ~workers f =
  let store = temp_path ".store" in
  let rm_store () =
    if Sys.file_exists store then Sys.remove store;
    if Sys.file_exists (store ^ ".lock") then Sys.remove (store ^ ".lock")
  in
  if workers = 0 then begin
    let sock = temp_path ".sock" in
    let cfg =
      {
        Server.default_config with
        addr = Netio.Unix_sock sock;
        store_path = Some store;
        workers = 2;
        capacity = 256;
      }
    in
    let server = Thread.create (fun () -> ignore (Server.run cfg)) () in
    await_socket sock;
    Fun.protect
      ~finally:(fun () ->
        Thread.join server;
        rm_store ();
        if Sys.file_exists sock then Sys.remove sock)
      (fun () ->
        f sock [| sock |] [||];
        let c = connect sock in
        ignore (Client.call c ~meth:"shutdown" ~params:[]);
        Client.close c)
  end
  else begin
    if not (Sys.file_exists tiler_exe) then
      failwith ("serve-fanout needs " ^ tiler_exe ^ "; run dune build first");
    let wsocks =
      Array.init workers (fun i -> temp_path (Fmt.str ".w%d.sock" i))
    in
    let pids = Array.map (fun sock -> spawn_worker ~sock ~store) wsocks in
    let rsock = temp_path ".router.sock" in
    Array.iter await_socket wsocks;
    let router =
      Thread.create
        (fun () ->
          match
            Router.run
              {
                Router.addr = Netio.Unix_sock rsock;
                workers =
                  Array.to_list (Array.map (fun s -> Netio.Unix_sock s) wsocks);
                health_period_s = 2.0;
                io_timeout_s = 2.0;
                max_line_bytes = 1 lsl 20;
                metrics_addr = None;
              }
          with
          | Ok () -> ()
          | Error m -> Fmt.epr "router: %s@." m)
        ()
    in
    await_socket rsock;
    let reap pid =
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()
    in
    Fun.protect
      ~finally:(fun () ->
        Array.iter
          (fun pid ->
            try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ())
          pids;
        Array.iter reap pids;
        Thread.join router;
        rm_store ();
        Array.iter (fun s -> if Sys.file_exists s then Sys.remove s) wsocks;
        if Sys.file_exists rsock then Sys.remove rsock)
      (fun () ->
        f rsock wsocks pids;
        let c = connect rsock in
        ignore (Client.call c ~meth:"shutdown" ~params:[]);
        Client.close c)
  end

let run_fanout () =
  Fmt.pr "@.== serve-fanout: concurrent clients, one daemon vs a fleet ==@.";
  let quick = Experiments.bench_quick () in
  let clients = if quick then 4 else 8 in
  let per_client = if quick then 2 else 4 in
  let n = if quick then 12 else 24 in
  let warm_p50 : (string, float) Hashtbl.t = Hashtbl.create 4 in
  (* requests.coalesced summed over the daemons' schedulers, the one
     layer that coalesces; a daemon killed by the failover phase counts 0 *)
  let coalesced_total daemons =
    Array.fold_left
      (fun acc sock ->
        match Client.connect (Netio.Unix_sock sock) with
        | Error _ -> acc
        | Ok c -> (
            let r = Client.call c ~meth:"stats" ~params:[] in
            Client.close c;
            match Result.map Client.result_of_response r with
            | Ok (Ok stats) -> (
                match
                  Option.bind (Json.member "requests" stats)
                    (Json.member "coalesced")
                with
                | Some (Json.Int i) -> acc + i
                | _ -> acc)
            | _ -> acc))
      0 daemons
  in
  let measure ~topology ~phase ~sock ~daemons ~seed_of ~requests_per_client ()
      =
    let before = coalesced_total daemons in
    let lats = Array.make (clients * requests_per_client) 0. in
    let t0 = Unix.gettimeofday () in
    let threads =
      List.init clients (fun c ->
          Thread.create
            (fun c ->
              let client = connect sock in
              for i = 0 to requests_per_client - 1 do
                let params =
                  [
                    ("kernel", Json.String "mm");
                    ("n", Json.Int n);
                    ("seed", Json.Int (seed_of c i));
                  ]
                in
                let s0 = Unix.gettimeofday () in
                (match Client.call client ~meth:"tile" ~params with
                | Ok envelope -> (
                    match Client.result_of_response envelope with
                    | Ok _ -> ()
                    | Error e -> failwith e.Tiling_server.Protocol.message)
                | Error m -> failwith m);
                lats.((c * requests_per_client) + i) <-
                  (Unix.gettimeofday () -. s0) *. 1e3
              done;
              Client.close client)
            c)
    in
    List.iter Thread.join threads;
    let wall = Unix.gettimeofday () -. t0 in
    let hits = max 0 (coalesced_total daemons - before) in
    Array.sort compare lats;
    let p50 = percentile lats 50 and p95 = percentile lats 95 in
    Fmt.pr
      "%-9s %-8s %d clients x %d  p50 %8.1f ms  p95 %8.1f ms  shared %d@."
      topology phase clients requests_per_client p50 p95 hits;
    if phase = "warm" then Hashtbl.replace warm_p50 topology p50;
    fanout_rows :=
      {
        f_topology = topology;
        f_phase = phase;
        f_clients = clients;
        f_requests = clients * requests_per_client;
        f_p50_ms = p50;
        f_p95_ms = p95;
        f_coalesce_hits = hits;
        f_wall_s = wall;
      }
      :: !fanout_rows
  in
  let topo_phases topology sock daemons (pids : int array) =
    (* distinct seeds per (client, slot): every evaluation is fresh *)
    measure ~topology ~phase:"cold" ~sock ~daemons
      ~seed_of:(fun c i -> 1000 + (c * per_client) + i)
      ~requests_per_client:per_client ();
    (* the same seeds again: answered out of the shared store *)
    measure ~topology ~phase:"warm" ~sock ~daemons
      ~seed_of:(fun c i -> 1000 + (c * per_client) + i)
      ~requests_per_client:per_client ();
    (* every client asks for the same fresh search at once: the fleet
       must evaluate once and share the answer *)
    measure ~topology ~phase:"coalesce" ~sock ~daemons
      ~seed_of:(fun _ _ -> 777777)
      ~requests_per_client:1 ();
    if (not quick) && Array.length pids > 0 then begin
      (* fresh seeds again, and one worker dies mid-stream: the router
         must re-home its keys with no client-visible error *)
      let killer =
        Thread.create
          (fun () ->
            Thread.delay 0.2;
            try Unix.kill pids.(0) Sys.sigkill with Unix.Unix_error _ -> ())
          ()
      in
      measure ~topology ~phase:"failover" ~sock ~daemons
        ~seed_of:(fun c i -> 5000 + (c * per_client) + i)
        ~requests_per_client:per_client ();
      Thread.join killer
    end
  in
  with_topology ~workers:0 (topo_phases "single");
  with_topology ~workers:2 (topo_phases "router+2");
  if not quick then with_topology ~workers:4 (topo_phases "router+4");
  match
    (Hashtbl.find_opt warm_p50 "single", Hashtbl.find_opt warm_p50 "router+2")
  with
  | Some s, Some r when s > 0. ->
      Fmt.pr "router+2 warm p50 / single warm p50 = %.2fx (target <= 2x)@."
        (r /. s)
  | _ -> ()
