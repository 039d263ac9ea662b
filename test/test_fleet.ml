(* Fleet mode: rendezvous placement, client backoff, request keys,
   scheduler-level coalescing, the shared warm tier under concurrent
   writer processes, pipelined client demux, and the router's
   coalesce/failover path against live worker daemons. *)

module Json = Tiling_obs.Json
module Netio = Tiling_util.Netio
module Protocol = Tiling_server.Protocol
module Scheduler = Tiling_server.Scheduler
module Server = Tiling_server.Server
module Store = Tiling_server.Store
module Client = Tiling_server.Client
module Memo = Tiling_search.Memo
module Rendezvous = Tiling_fleet.Rendezvous
module Backoff = Tiling_fleet.Backoff
module Key = Tiling_fleet.Key
module Router = Tiling_fleet.Router

let get path json =
  List.fold_left
    (fun acc key -> match acc with Some j -> Json.member key j | None -> None)
    (Some json) path

let get_int path json =
  match get path json with
  | Some (Json.Int i) -> i
  | _ -> Alcotest.failf "missing int at %s" (String.concat "." path)

let temp_path suffix =
  let f = Filename.temp_file "tiling_fleet_test" suffix in
  Sys.remove f;
  f

let mkey values = Memo.Key.of_values values

let rm_f path = try Sys.remove path with Sys_error _ -> ()

(* The store keeps a lock sidecar next to the log; tests clean up both. *)
let rm_store path =
  rm_f path;
  rm_f (path ^ ".lock")

(* ------------------------------------------------------------------ *)
(* Rendezvous hashing                                                   *)

let test_rendezvous () =
  let nodes = [ "unix:/w1.sock"; "unix:/w2.sock"; "unix:/w3.sock"; "unix:/w4.sock" ] in
  let keys =
    List.init 400 (fun i ->
        Printf.sprintf "tile {\"kernel\":\"mm\",\"n\":%d,\"seed\":%d}"
          (8 + (i mod 56)) i)
  in
  let owner ~nodes key =
    match Rendezvous.owner ~nodes ~key with
    | Some o -> o
    | None -> Alcotest.fail "no owner for a non-empty node set"
  in
  (* deterministic, and [rank] is a permutation with the owner at head *)
  List.iter
    (fun key ->
      let r = Rendezvous.rank ~nodes ~key in
      Alcotest.(check (list string))
        "rank permutes the node set" (List.sort compare nodes)
        (List.sort compare r);
      Alcotest.(check string) "owner is the head of rank" (owner ~nodes key)
        (List.hd r))
    keys;
  (* no node starves: the hash spreads keys over every member *)
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (n ^ " owns a share of the keys")
        true
        (List.exists (fun k -> owner ~nodes k = n) keys))
    nodes;
  (* minimal reshuffle: dropping one node re-homes only its keys, and
     each orphan lands on its (already determined) second choice *)
  let dead = "unix:/w2.sock" in
  let survivors = List.filter (fun n -> n <> dead) nodes in
  let moved = ref 0 in
  List.iter
    (fun key ->
      let before = Rendezvous.rank ~nodes ~key in
      let after = owner ~nodes:survivors key in
      if List.hd before = dead then begin
        incr moved;
        Alcotest.(check string) "orphan falls to its second choice"
          (List.nth before 1) after
      end
      else
        Alcotest.(check string) "survivor keys never move" (List.hd before)
          after)
    keys;
  Alcotest.(check bool) "the dead node owned something" true (!moved > 0);
  Alcotest.(check bool) "empty node set has no owner" true
    (Rendezvous.owner ~nodes:[] ~key:"k" = None)

(* ------------------------------------------------------------------ *)
(* Backoff                                                              *)

let test_backoff () =
  let b = Backoff.create ~base:0.5 ~cap:30. ~seed:7 () in
  (* attempt k targets base * 2^k, jittered into [0.5, 1.0] x target *)
  for k = 0 to 9 do
    let d = Backoff.next b in
    let target = Float.min 30. (0.5 *. (2. ** float_of_int k)) in
    if d < (0.5 *. target) -. 1e-9 || d > target +. 1e-9 then
      Alcotest.failf "attempt %d slept %.3fs outside [%.3f, %.3f]" k d
        (0.5 *. target) target
  done;
  Alcotest.(check int) "attempt counter advanced" 10 (Backoff.attempts b);
  (* a positive server hint replaces the schedule, still never sleeping
     under half the ask... *)
  let d = Backoff.next ~hint:4.0 b in
  Alcotest.(check bool) "hint honored within [2, 4]" true (d >= 2.0 && d <= 4.0);
  (* ...a nonsense hint is ignored (attempt 11 targets the 30s cap) *)
  let d = Backoff.next ~hint:(-1.) b in
  Alcotest.(check bool) "negative hint falls back to the schedule" true
    (d >= 15.0 && d <= 30.0);
  Backoff.reset b;
  Alcotest.(check int) "reset rewinds to attempt 0" 0 (Backoff.attempts b);
  let d = Backoff.next b in
  Alcotest.(check bool) "back to the base delay" true (d >= 0.25 && d <= 0.5)

(* ------------------------------------------------------------------ *)
(* Request keys                                                         *)

let test_keys () =
  let params order =
    Json.Obj
      (if order then
         [ ("kernel", Json.String "mm"); ("n", Json.Int 16); ("seed", Json.Int 3) ]
       else
         [ ("seed", Json.Int 3); ("n", Json.Int 16); ("kernel", Json.String "mm") ])
  in
  Alcotest.(check string) "field order never splits the shard key"
    (Key.shard_key ~meth:"tile" ~params:(params true))
    (Key.shard_key ~meth:"tile" ~params:(params false));
  (* delivery options are invisible to placement *)
  let traced =
    Json.Obj
      [
        ("trace", Json.Bool true);
        ("deadline_s", Json.Float 5.);
        ("kernel", Json.String "mm");
        ("n", Json.Int 16);
        ("seed", Json.Int 3);
      ]
  in
  Alcotest.(check string) "a traced twin keeps the same owner"
    (Key.shard_key ~meth:"tile" ~params:(params true))
    (Key.shard_key ~meth:"tile" ~params:traced);
  Alcotest.(check bool) "the method is part of the key" true
    (Key.shard_key ~meth:"tile" ~params:(params true)
    <> Key.shard_key ~meth:"pad-tile" ~params:(params true));
  (* canonicalisation sorts objects recursively, leaves list order alone *)
  let nested =
    Json.Obj
      [
        ("b", Json.Obj [ ("y", Json.Int 1); ("x", Json.Int 2) ]);
        ("a", Json.List [ Json.Int 2; Json.Int 1 ]);
      ]
  in
  Alcotest.(check string) "recursive canonicalisation"
    {|{"a":[2,1],"b":{"x":2,"y":1}}|}
    (Json.to_string (Key.canon nested))

(* ------------------------------------------------------------------ *)
(* Scheduler-level coalescing                                           *)

let test_scheduler_coalescing () =
  let sched = Scheduler.create ~workers:1 ~capacity:8 () in
  let release = Atomic.make false in
  let started = Atomic.make false in
  let blocker ~cancelled:_ =
    Atomic.set started true;
    while not (Atomic.get release) do
      Thread.yield ()
    done;
    Json.Null
  in
  (match
     Scheduler.submit sched ~label:"blocker" ~work:blocker
       ~deliver:(fun ~coalesced:_ _ -> ())
       ()
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "blocker rejected");
  let rec await tries =
    if (not (Atomic.get started)) && tries > 0 then (
      Thread.delay 0.01;
      await (tries - 1))
  in
  await 500;
  Alcotest.(check bool) "the single worker is occupied" true (Atomic.get started);
  (* eight identical keyed requests: the first queues as the group
     leader, the other seven attach without consuming a slot *)
  let evaluations = Atomic.make 0 in
  let results = ref [] in
  let work ~cancelled:_ =
    Atomic.incr evaluations;
    Json.Int 42
  in
  let deliver who ~coalesced r =
    (* deliveries all happen on the one worker thread, in order *)
    let v = match r with Ok (Json.Int v) -> v | _ -> -1 in
    results := (who, coalesced, v) :: !results
  in
  let fp = "tile|mm|16|8192:32:1|cme-sample|7" in
  for i = 1 to 8 do
    let who = Printf.sprintf "r%d" i in
    match
      Scheduler.submit sched ~label:"tile" ~key:fp ~work ~deliver:(deliver who) ()
    with
    | Ok () -> ()
    | Error _ -> Alcotest.failf "%s rejected" who
  done;
  Alcotest.(check int) "seven waiters attached" 7 (Scheduler.waiting sched);
  Alcotest.(check int) "seven coalesce hits" 7 (Scheduler.coalesced sched);
  Alcotest.(check int) "one queue slot for the whole group" 1
    (Scheduler.depth sched);
  (* telemetry stays coherent with waiters attached: in-flight shows the
     one running job, and the backpressure hint stays in its clamp *)
  (match Scheduler.inflight sched with
  | [ (label, _, _) ] ->
      Alcotest.(check string) "only the blocker is executing" "blocker" label
  | l -> Alcotest.failf "expected 1 in-flight job, got %d" (List.length l));
  let hint = Scheduler.retry_after sched in
  Alcotest.(check bool) "retry hint sane with waiters attached" true
    (hint >= 0.1 && hint <= 60.);
  Atomic.set release true;
  Scheduler.drain sched;
  Alcotest.(check int) "one evaluation served eight requests" 1
    (Atomic.get evaluations);
  let rs = List.rev !results in
  Alcotest.(check int) "eight deliveries" 8 (List.length rs);
  Alcotest.(check (list string)) "leader first, waiters in join order"
    (List.init 8 (fun i -> Printf.sprintf "r%d" (i + 1)))
    (List.map (fun (w, _, _) -> w) rs);
  List.iter
    (fun (who, coalesced, v) ->
      Alcotest.(check bool) (who ^ " flagged coalesced") true coalesced;
      Alcotest.(check int) (who ^ " got the shared result") 42 v)
    rs;
  Alcotest.(check int) "blocker + one group leader completed" 2
    (Scheduler.completed sched);
  Alcotest.(check int) "no waiters left after delivery" 0
    (Scheduler.waiting sched)

(* ------------------------------------------------------------------ *)
(* The shared warm tier, in-process: two handles on one log             *)

let test_store_shared_log () =
  let path = temp_path ".store" in
  let open_handle ?compact_min_dead () =
    match Store.open_ ?compact_min_dead ~path () with
    | Ok s -> s
    | Error m -> Alcotest.fail m
  in
  let a = open_handle ~compact_min_dead:2 () in
  let b = open_handle () in
  Fun.protect ~finally:(fun () -> rm_store path) @@ fun () ->
  (* a's append becomes visible to b on refresh, without b writing *)
  Store.append a ~fingerprint:"shared" (mkey [| 1 |]) 1.0;
  Store.sync a;
  Alcotest.(check (option (float 0.))) "b cannot see unflushed siblings yet"
    None
    (Store.find b ~fingerprint:"shared" (mkey [| 1 |]));
  Store.refresh b;
  Alcotest.(check (option (float 0.))) "b folds a's append on refresh"
    (Some 1.0)
    (Store.find b ~fingerprint:"shared" (mkey [| 1 |]));
  (* and the other direction *)
  Store.append b ~fingerprint:"shared" (mkey [| 2 |]) 2.0;
  Store.sync b;
  Store.refresh a;
  Alcotest.(check (option (float 0.))) "a folds b's append"
    (Some 2.0)
    (Store.find a ~fingerprint:"shared" (mkey [| 2 |]));
  (* a sibling's compaction rotates the file under b: supersede key 1
     until a's dead-record threshold trips, then make sure b both
     survives the inode swap and still sees everything *)
  Store.append a ~fingerprint:"shared" (mkey [| 1 |]) 1.5;
  Store.sync a;
  Store.append a ~fingerprint:"shared" (mkey [| 1 |]) 1.75;
  Store.sync a;
  Alcotest.(check bool) "a compacted the log" true (Store.compactions a > 0);
  Store.refresh b;
  Alcotest.(check (option (float 0.))) "b re-reads the rewritten log"
    (Some 1.75)
    (Store.find b ~fingerprint:"shared" (mkey [| 1 |]));
  Alcotest.(check (option (float 0.))) "b's own record survived the rotation"
    (Some 2.0)
    (Store.find b ~fingerprint:"shared" (mkey [| 2 |]));
  (* b keeps writing through its reopened descriptor *)
  Store.append b ~fingerprint:"shared" (mkey [| 3 |]) 3.0;
  Store.sync b;
  Store.refresh a;
  Alcotest.(check (option (float 0.))) "post-rotation appends flow back"
    (Some 3.0)
    (Store.find a ~fingerprint:"shared" (mkey [| 3 |]));
  Store.close a;
  Store.close b;
  match Store.open_ ~path () with
  | Error m -> Alcotest.fail m
  | Ok s ->
      Alcotest.(check int) "the shared log reloads clean" 0
        (Store.skipped_on_load s);
      Alcotest.(check int) "all three keys live" 3 (Store.entries s);
      Store.close s

(* ------------------------------------------------------------------ *)
(* The shared warm tier, cross-process: a two-writer torture test        *)

(* Re-entrant writer body: test/main.ml calls this (and exits) when
   TILING_STORE_TORTURE="path|id|n" is set, so each writer is a real
   separate process and the advisory file lock actually arbitrates. *)
let store_torture_child spec =
  match String.split_on_char '|' spec with
  | [ path; id; n ] -> (
      let id = int_of_string id and n = int_of_string n in
      match Store.open_ ~compact_min_dead:8 ~path () with
      | Error m ->
          prerr_endline ("torture writer: " ^ m);
          exit 1
      | Ok s ->
          let fp = Printf.sprintf "torture|w%d" id in
          for i = 0 to n - 1 do
            Store.append s ~fingerprint:fp (mkey [| id; i |]) (float_of_int i);
            if i mod 5 = id then Store.sync s
          done;
          (* supersede every key so compactions fire while the sibling
             is mid-write *)
          for i = 0 to n - 1 do
            Store.append s ~fingerprint:fp
              (mkey [| id; i |])
              (float_of_int (i + 1000));
            if i mod 3 = id then Store.sync s
          done;
          Store.close s;
          exit 0)
  | _ -> exit 2

let test_store_two_writer_processes () =
  let path = temp_path ".store" in
  let n = 40 in
  let spawn id =
    let env =
      Array.append (Unix.environment ())
        [| Printf.sprintf "TILING_STORE_TORTURE=%s|%d|%d" path id n |]
    in
    Unix.create_process_env Sys.executable_name
      [| Sys.executable_name |]
      env Unix.stdin Unix.stdout Unix.stderr
  in
  Fun.protect ~finally:(fun () -> rm_store path) @@ fun () ->
  let pids = [ spawn 1; spawn 2 ] in
  List.iter
    (fun pid ->
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _, _ -> Alcotest.fail "a writer process failed")
    pids;
  match Store.open_ ~path () with
  | Error m -> Alcotest.fail m
  | Ok s ->
      Alcotest.(check int) "no torn or interleaved lines" 0
        (Store.skipped_on_load s);
      Alcotest.(check int) "every key from both writers survived" (2 * n)
        (Store.entries s);
      for i = 0 to n - 1 do
        List.iter
          (fun id ->
            let fp = Printf.sprintf "torture|w%d" id in
            match Store.find s ~fingerprint:fp (mkey [| id; i |]) with
            | Some v when v = float_of_int (i + 1000) -> ()
            | Some v -> Alcotest.failf "w%d key %d: stale value %g" id i v
            | None -> Alcotest.failf "w%d key %d lost" id i)
          [ 1; 2 ]
      done;
      Store.close s

(* ------------------------------------------------------------------ *)
(* Daemon helpers                                                       *)

let await_socket sock =
  let rec go tries =
    if Sys.file_exists sock then ()
    else if tries = 0 then Alcotest.fail "daemon never bound its socket"
    else (
      Thread.delay 0.05;
      go (tries - 1))
  in
  go 200

let connect sock =
  match Client.connect (Netio.Unix_sock sock) with
  | Ok c -> c
  | Error m -> Alcotest.failf "connect: %s" m

let call_ok client ~meth ~params =
  match Client.call client ~meth ~params with
  | Error m -> Alcotest.failf "%s: transport error: %s" meth m
  | Ok envelope -> (
      match Client.result_of_response envelope with
      | Ok result -> result
      | Error e ->
          Alcotest.failf "%s: server error %s: %s" meth
            (Protocol.code_to_string e.Protocol.code)
            e.Protocol.message)

(* Ask the daemon behind [client] to stop, ignoring every error: it may
   already be draining or gone. *)
let shutdown_client client =
  try ignore (Client.call client ~meth:"shutdown" ~params:[]) with _ -> ()

let strip_id = function
  | Json.Obj fields -> Json.Obj (List.filter (fun (k, _) -> k <> "id") fields)
  | other -> other

(* The test binary lives at _build/default/test/main.exe and the CLI at
   _build/default/bin/tiler.exe; resolving relative to the executable
   works from both `dune runtest` and `dune exec` cwds. *)
let tiler_exe =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/tiler.exe"

(* ------------------------------------------------------------------ *)
(* Pipelined client demux                                               *)

let test_client_pipelining () =
  let sock = temp_path ".sock" in
  let cfg =
    { Server.default_config with addr = Netio.Unix_sock sock; workers = 2 }
  in
  let server = Thread.create (fun () -> Server.run cfg) () in
  await_socket sock;
  let client = connect sock in
  Fun.protect
    ~finally:(fun () ->
      (* a failed assertion skips the body's shutdown: send one here, or
         [Thread.join server] never returns *)
      shutdown_client client;
      Client.close client;
      Thread.join server)
  @@ fun () ->
  (* a slow tile and a quick stats share one connection: the stats
     submitter must get its (out-of-order) envelope while the tile
     caller is parked on the same socket.  The tile must outlast the
     0.15 s delay plus the stats round trip, which can take a scheduler
     tick or two while the search holds the runtime: LU 80's search
     runs well past its 0.8 s deadline on one domain (about 1.5 s on a
     2-vCPU guest), where MM 24's now ends in about 0.2 s. *)
  let tile_done = Atomic.make false in
  let tile_result = ref None in
  let tile_thread =
    Thread.create
      (fun () ->
        tile_result :=
          Some
            (Client.call client ~meth:"tile"
               ~params:
                 [
                   ("kernel", Json.String "lu");
                   ("n", Json.Int 80);
                   ("seed", Json.Int 41);
                   ("deadline_s", Json.Float 0.8);
                 ]);
        Atomic.set tile_done true)
      ()
  in
  Thread.delay 0.15;
  let stats = call_ok client ~meth:"stats" ~params:[] in
  Alcotest.(check bool) "stats overtook the slow tile on one socket" true
    (not (Atomic.get tile_done));
  Alcotest.(check bool) "the stats envelope routed to its submitter" true
    (get [ "queue"; "capacity" ] stats <> None);
  Thread.join tile_thread;
  (match !tile_result with
  | Some (Ok envelope) -> (
      match Client.result_of_response envelope with
      | Ok _ -> ()
      | Error { Protocol.code = Protocol.Deadline_exceeded; _ } -> ()
      | Error e -> Alcotest.failf "tile failed oddly: %s" e.Protocol.message)
  | Some (Error m) -> Alcotest.failf "tile transport error: %s" m
  | None -> Alcotest.fail "tile never delivered");
  ignore (call_ok client ~meth:"shutdown" ~params:[])

(* ------------------------------------------------------------------ *)
(* Eight identical requests, one daemon, one evaluation                 *)

let test_daemon_coalescing_e2e () =
  let sock = temp_path ".sock" and store = temp_path ".store" in
  let cfg =
    {
      Server.default_config with
      addr = Netio.Unix_sock sock;
      store_path = Some store;
      workers = 1;
    }
  in
  let server = Thread.create (fun () -> Server.run cfg) () in
  await_socket sock;
  let client = connect sock in
  Fun.protect
    ~finally:(fun () ->
      shutdown_client client;
      Client.close client;
      Thread.join server;
      rm_store store)
  @@ fun () ->
  (* occupy the single worker so the identical burst below overlaps the
     same in-flight window deterministically *)
  let blocker =
    Thread.create
      (fun () ->
        ignore
          (Client.call client ~meth:"tile"
             ~params:
               [
                 ("kernel", Json.String "mm");
                 ("n", Json.Int 16);
                 ("seed", Json.Int 99);
                 ("deadline_s", Json.Float 1.0);
               ]))
      ()
  in
  let rec await_busy tries =
    if tries = 0 then Alcotest.fail "blocker never started running";
    let stats = call_ok client ~meth:"stats" ~params:[] in
    match get [ "inflight" ] stats with
    | Some (Json.List (_ :: _)) -> ()
    | _ ->
        Thread.delay 0.02;
        await_busy (tries - 1)
  in
  await_busy 200;
  let params =
    [ ("kernel", Json.String "mm"); ("n", Json.Int 12); ("seed", Json.Int 11) ]
  in
  let results = Array.make 8 None in
  let threads =
    List.init 8 (fun i ->
        Thread.create (fun i -> results.(i) <- Some (Client.call client ~meth:"tile" ~params)) i)
  in
  List.iter Thread.join threads;
  let envelopes =
    Array.to_list results
    |> List.map (function
         | Some (Ok e) -> e
         | Some (Error m) -> Alcotest.failf "burst transport error: %s" m
         | None -> Alcotest.fail "a burst request never returned")
  in
  List.iter
    (fun e ->
      (match Client.result_of_response e with
      | Ok _ -> ()
      | Error err ->
          Alcotest.failf "burst server error: %s" err.Protocol.message);
      Alcotest.(check bool) "every group member is flagged coalesced" true
        (Json.member "coalesced" e = Some (Json.Bool true)))
    envelopes;
  (match envelopes with
  | first :: rest ->
      let bytes e = Json.to_string (strip_id e) in
      List.iter
        (fun e ->
          Alcotest.(check string) "byte-identical modulo request id"
            (bytes first) (bytes e))
        rest
  | [] -> assert false);
  Thread.join blocker;
  let stats = call_ok client ~meth:"stats" ~params:[] in
  Alcotest.(check int) "blocker + exactly one shared evaluation" 2
    (get_int [ "requests"; "completed" ] stats);
  Alcotest.(check int) "seven requests coalesced" 7
    (get_int [ "requests"; "coalesced" ] stats);
  Alcotest.(check int) "no waiters left attached" 0
    (get_int [ "requests"; "waiting" ] stats);
  ignore (call_ok client ~meth:"shutdown" ~params:[])

(* ------------------------------------------------------------------ *)
(* Router end-to-end: coalescing, crash failover, drain                 *)

(* Ask the daemon or router on [sock] to stop, ignoring every error: it
   may already be gone. *)
let shutdown_quietly sock =
  match Client.connect (Netio.Unix_sock sock) with
  | Error _ -> ()
  | Ok c ->
      shutdown_client c;
      Client.close c

let spawn_worker ~sock ~store =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close null) @@ fun () ->
  Unix.create_process tiler_exe
    [|
      tiler_exe; "serve";
      "--socket"; "unix:" ^ sock;
      "--store"; store;
      "--workers"; "2";
      "--queue"; "32";
    |]
    Unix.stdin null null

(* ------------------------------------------------------------------ *)
(* Concurrent clients on separate connections                           *)

(* Four client connections at once, each sending [requests] MM 12 tile
   requests one after another; [seed_of c i] is connection [c]'s [i]-th
   seed.  Every reply must be ok.  Returns each reply's tiles, by
   connection and slot.  Threads only record; the checks run here. *)
let fanout_round sock ~label ~requests ~seed_of =
  let replies = Array.make_matrix 4 requests None in
  let threads =
    List.init 4 (fun c ->
        Thread.create
          (fun c ->
            match Client.connect (Netio.Unix_sock sock) with
            | Error m -> replies.(c).(0) <- Some (Error ("connect: " ^ m))
            | Ok client ->
                Fun.protect ~finally:(fun () -> Client.close client)
                @@ fun () ->
                for i = 0 to requests - 1 do
                  let params =
                    [
                      ("kernel", Json.String "mm");
                      ("n", Json.Int 12);
                      ("seed", Json.Int (seed_of c i));
                    ]
                  in
                  replies.(c).(i) <-
                    Some (Client.call client ~meth:"tile" ~params)
                done)
          c)
  in
  List.iter Thread.join threads;
  Array.mapi
    (fun c row ->
      Array.mapi
        (fun i reply ->
          let where =
            Printf.sprintf "%s round, connection %d, request %d" label c i
          in
          match reply with
          | None -> Alcotest.failf "%s: no reply" where
          | Some (Error m) -> Alcotest.failf "%s: transport error: %s" where m
          | Some (Ok envelope) -> (
              match Client.result_of_response envelope with
              | Error e ->
                  Alcotest.failf "%s: server error %s: %s" where
                    (Protocol.code_to_string e.Protocol.code)
                    e.Protocol.message
              | Ok r -> (
                  match get [ "outcome"; "tiles" ] r with
                  | Some tiles -> Json.to_string tiles
                  | None -> Alcotest.failf "%s: no tiles" where)))
        row)
    replies

(* Cold, warm and coalesce rounds through the daemon or router on [sock]:
   eight distinct-seed searches, the same eight again (answered from the
   store, so the tiles must be byte-identical), then one fresh search
   asked by every connection at once, which must get one answer. *)
let fanout_rounds sock =
  let seed_of c i = 1000 + (c * 2) + i in
  let cold = fanout_round sock ~label:"cold" ~requests:2 ~seed_of in
  let warm = fanout_round sock ~label:"warm" ~requests:2 ~seed_of in
  Alcotest.(check (array (array string)))
    "warm tiles byte-identical to cold" cold warm;
  let same =
    fanout_round sock ~label:"coalesce" ~requests:1 ~seed_of:(fun _ _ -> 777)
  in
  Array.iter
    (fun row ->
      Alcotest.(check string) "one answer to the shared request"
        same.(0).(0) row.(0))
    same

let test_daemon_fanout () =
  let sock = temp_path ".sock" and store = temp_path ".store" in
  let cfg =
    {
      Server.default_config with
      addr = Netio.Unix_sock sock;
      store_path = Some store;
      workers = 2;
    }
  in
  let server = Thread.create (fun () -> Server.run cfg) () in
  await_socket sock;
  Fun.protect
    ~finally:(fun () ->
      shutdown_quietly sock;
      Thread.join server;
      rm_store store;
      rm_f sock)
  @@ fun () ->
  fanout_rounds sock;
  let client = connect sock in
  Fun.protect ~finally:(fun () -> Client.close client) @@ fun () ->
  let stats = call_ok client ~meth:"stats" ~params:[] in
  Alcotest.(check bool) "the warm round read the store" true
    (get_int [ "store"; "hits" ] stats > 0)

let test_router_e2e () =
  let w1 = temp_path ".w1.sock"
  and w2 = temp_path ".w2.sock"
  and rsock = temp_path ".router.sock"
  and store = temp_path ".store" in
  let pid1 = spawn_worker ~sock:w1 ~store in
  let pid2 = spawn_worker ~sock:w2 ~store in
  await_socket w1;
  await_socket w2;
  let router_result = ref (Ok ()) in
  let router =
    Thread.create
      (fun () ->
        router_result :=
          Router.run
            {
              Router.addr = Netio.Unix_sock rsock;
              workers = [ Netio.Unix_sock w1; Netio.Unix_sock w2 ];
              health_period_s = 60.;
              io_timeout_s = 2.0;
              max_line_bytes = 1 lsl 20;
              metrics_addr = None;
            })
      ()
  in
  await_socket rsock;
  let client = connect rsock in
  let workers = [ (pid1, Netio.addr_to_string (Netio.Unix_sock w1));
                  (pid2, Netio.addr_to_string (Netio.Unix_sock w2)) ] in
  let owner_of params =
    let skey = Key.shard_key ~meth:"tile" ~params:(Json.Obj params) in
    match Rendezvous.owner ~nodes:(List.map snd workers) ~key:skey with
    | Some o -> o
    | None -> assert false
  in
  let tile_params seed n =
    [ ("kernel", Json.String "mm"); ("n", Json.Int n); ("seed", Json.Int seed) ]
  in
  let reap pid = ignore (Unix.waitpid [] pid) in
  Fun.protect
    ~finally:(fun () ->
      Client.close client;
      (try Unix.kill pid1 Sys.sigkill with Unix.Unix_error _ -> ());
      (try Unix.kill pid2 Sys.sigkill with Unix.Unix_error _ -> ());
      (try reap pid1 with Unix.Unix_error _ -> ());
      (try reap pid2 with Unix.Unix_error _ -> ());
      (* the router stops only on a signal or a wire shutdown: stop it
         here too, or a failed assertion above hangs the join *)
      shutdown_quietly rsock;
      Thread.join router;
      rm_store store;
      List.iter rm_f [ w1; w2; rsock ])
  @@ fun () ->
  (* a plain forward answers through whichever worker owns the key *)
  let first = call_ok client ~meth:"tile" ~params:(tile_params 21 12) in
  Alcotest.(check bool) "forwarded tile carries tiles" true
    (get [ "outcome"; "tiles" ] first <> None);
  (* four separate connections at once, cold, warm and coalesced *)
  fanout_rounds rsock;
  (* duplicate concurrent requests share a shard key, so they meet on
     one worker, whose scheduler evaluates once and flags every member *)
  let params = tile_params 22 12 in
  let results = Array.make 4 None in
  let threads =
    List.init 4 (fun i ->
        Thread.create (fun i -> results.(i) <- Some (Client.call client ~meth:"tile" ~params)) i)
  in
  List.iter Thread.join threads;
  let envelopes =
    Array.to_list results
    |> List.map (function
         | Some (Ok e) -> e
         | Some (Error m) -> Alcotest.failf "coalesce burst transport: %s" m
         | None -> Alcotest.fail "a coalesced request never returned")
  in
  let tiles e =
    match Client.result_of_response e with
    | Ok r -> Json.to_string (Option.value (get [ "outcome"; "tiles" ] r) ~default:Json.Null)
    | Error err -> Alcotest.failf "coalesce burst server error: %s" err.Protocol.message
  in
  (match envelopes with
  | first :: rest ->
      List.iter
        (fun e ->
          Alcotest.(check string) "all four answers agree" (tiles first) (tiles e))
        rest
  | [] -> assert false);
  let flagged =
    List.length
      (List.filter
         (fun e -> Json.member "coalesced" e = Some (Json.Bool true))
         envelopes)
  in
  Alcotest.(check bool) "at least one group shared a forward" true (flagged >= 2);
  let stats = call_ok client ~meth:"stats" ~params:[] in
  Alcotest.(check string) "the router answers stats itself" "router"
    (match get [ "role" ] stats with
    | Some (Json.String r) -> r
    | _ -> "?");
  let worker_coalesced sock =
    let c = connect sock in
    Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
    get_int [ "requests"; "coalesced" ] (call_ok c ~meth:"stats" ~params:[])
  in
  Alcotest.(check bool) "coalesce hits recorded" true
    (worker_coalesced w1 + worker_coalesced w2 >= 1);
  (* kill a worker mid-request: the router must re-answer from the
     survivor with no client-visible error *)
  let mid_params = tile_params 23 16 in
  let victim_name = owner_of mid_params in
  let victim_pid = fst (List.find (fun (_, n) -> n = victim_name) workers) in
  let mid_result = ref None in
  let mid =
    Thread.create
      (fun () -> mid_result := Some (Client.call client ~meth:"tile" ~params:mid_params))
      ()
  in
  Thread.delay 0.3;
  Unix.kill victim_pid Sys.sigkill;
  reap victim_pid;
  Thread.join mid;
  (match !mid_result with
  | Some (Ok e) -> (
      match Client.result_of_response e with
      | Ok _ -> ()
      | Error err ->
          Alcotest.failf "mid-flight kill leaked an error: %s" err.Protocol.message)
  | Some (Error m) -> Alcotest.failf "mid-flight kill broke transport: %s" m
  | None -> Alcotest.fail "mid-flight request never returned");
  (* a key owned by the dead worker fails over to the survivor *)
  let rec owned_by_victim seed =
    if seed > 400 then Alcotest.fail "no seed owned by the dead worker"
    else if owner_of (tile_params seed 12) = victim_name then seed
    else owned_by_victim (seed + 1)
  in
  let seed = owned_by_victim 100 in
  let r = call_ok client ~meth:"tile" ~params:(tile_params seed 12) in
  Alcotest.(check bool) "the survivor answered the orphaned key" true
    (get [ "outcome"; "tiles" ] r <> None);
  let stats = call_ok client ~meth:"stats" ~params:[] in
  Alcotest.(check bool) "the failover was a retry, not an error" true
    (get_int [ "requests"; "retried" ] stats >= 1);
  Alcotest.(check int) "no request exhausted the fleet" 0
    (get_int [ "requests"; "failed" ] stats);
  (* clean drain: wire shutdown stops the router; SIGTERM drains the
     surviving worker to exit 0 *)
  ignore (call_ok client ~meth:"shutdown" ~params:[]);
  Thread.join router;
  (match !router_result with
  | Ok () -> ()
  | Error m -> Alcotest.failf "router exited with: %s" m);
  Alcotest.(check bool) "router socket unlinked on drain" false
    (Sys.file_exists rsock);
  let survivor_pid = if victim_pid = pid1 then pid2 else pid1 in
  Unix.kill survivor_pid Sys.sigterm;
  match Unix.waitpid [] survivor_pid with
  | _, Unix.WEXITED 0 -> ()
  | _, _ -> Alcotest.fail "surviving worker did not drain cleanly"

(* ------------------------------------------------------------------ *)
(* Traced twins through the router never share an answer                *)

let test_router_traced_twins () =
  let w1 = temp_path ".w1.sock"
  and w2 = temp_path ".w2.sock"
  and rsock = temp_path ".router.sock" in
  let daemon sock =
    Thread.create Server.run
      { Server.default_config with addr = Netio.Unix_sock sock }
  in
  let workers = [ daemon w1; daemon w2 ] in
  List.iter await_socket [ w1; w2 ];
  let router =
    Thread.create Router.run
      {
        Router.default_config with
        addr = Netio.Unix_sock rsock;
        workers = [ Netio.Unix_sock w1; Netio.Unix_sock w2 ];
        health_period_s = 60.;
      }
  in
  await_socket rsock;
  let client = connect rsock in
  Fun.protect
    ~finally:(fun () ->
      Client.close client;
      List.iter shutdown_quietly [ rsock; w1; w2 ];
      Thread.join router;
      List.iter Thread.join workers)
  @@ fun () ->
  (* identical traced requests, sent at once, reach the same worker; each
     must come back with its own span tree and unflagged *)
  let params =
    [
      ("kernel", Json.String "mm");
      ("n", Json.Int 12);
      ("seed", Json.Int 24);
      ("trace", Json.Bool true);
    ]
  in
  let twin = ref (Error "never returned") in
  let call () = Client.call client ~meth:"tile" ~params in
  let t = Thread.create (fun () -> twin := call ()) () in
  let mine = call () in
  Thread.join t;
  let trace_id = function
    | Error m -> Alcotest.failf "traced twin transport: %s" m
    | Ok e -> (
        Alcotest.(check bool) "a traced request is never flagged coalesced"
          true
          (Json.member "coalesced" e = None);
        match Client.result_of_response e with
        | Ok r -> get_int [ "trace"; "trace_id" ] r
        | Error err -> Alcotest.failf "traced twin: %s" err.Protocol.message)
  in
  Alcotest.(check bool) "each twin carries its own trace" true
    (trace_id mine <> trace_id !twin)

(* ------------------------------------------------------------------ *)
(* tiler request --retries against a saturated daemon                   *)

let test_cli_request_retries () =
  let sock = temp_path ".sock" in
  let cfg =
    {
      Server.default_config with
      addr = Netio.Unix_sock sock;
      workers = 1;
      capacity = 1;
    }
  in
  let server = Thread.create (fun () -> Server.run cfg) () in
  await_socket sock;
  let client = connect sock in
  let blockers = ref [] in
  Fun.protect
    ~finally:(fun () ->
      (* shutdown here, not in the body: an assertion failure above must
         still drain the daemon or [Thread.join server] never returns *)
      shutdown_client client;
      List.iter Thread.join !blockers;
      Client.close client;
      Thread.join server)
  @@ fun () ->
  let blocker seed =
    Thread.create
      (fun () ->
        ignore
          (Client.call client ~meth:"tile"
             ~params:
               [
                 ("kernel", Json.String "mm");
                 ("n", Json.Int 24);
                 ("seed", Json.Int seed);
                 ("backend", Json.String "cme-exact");
                 ("deadline_s", Json.Float 2.0);
               ]))
      ()
  in
  (* one blocker on the worker, one in the single queue slot *)
  let b1 = blocker 31 in
  blockers := [ b1 ];
  let rec await_running tries =
    if tries = 0 then Alcotest.fail "first blocker never started";
    let stats = call_ok client ~meth:"stats" ~params:[] in
    match get [ "inflight" ] stats with
    | Some (Json.List (_ :: _)) -> ()
    | _ ->
        Thread.delay 0.02;
        await_running (tries - 1)
  in
  await_running 200;
  let b2 = blocker 32 in
  blockers := b2 :: !blockers;
  let rec await_queued tries =
    if tries = 0 then Alcotest.fail "second blocker never queued";
    let stats = call_ok client ~meth:"stats" ~params:[] in
    if get_int [ "queue"; "depth" ] stats < 1 then (
      Thread.delay 0.02;
      await_queued (tries - 1))
  in
  await_queued 200;
  (* the daemon is saturated: a --retries client must back off on the
     overloaded reject (printing its retry line) and still exit 0 once
     the blockers expire *)
  let errfile = temp_path ".stderr" in
  let out = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let err =
    Unix.openfile errfile [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600
  in
  let pid =
    Unix.create_process tiler_exe
      [|
        tiler_exe; "request"; "tile";
        "--kernel"; "mm";
        "--size"; "8";
        "--seed"; "34";
        "--retries"; "8";
        "--socket"; "unix:" ^ sock;
      |]
      Unix.stdin out err
  in
  Unix.close out;
  Unix.close err;
  let _, status = Unix.waitpid [] pid in
  let stderr_text =
    let ic = open_in_bin errfile in
    let text = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Sys.remove errfile;
    text
  in
  (match status with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED c ->
      Alcotest.failf "request --retries exited %d; stderr:\n%s" c stderr_text
  | _ -> Alcotest.failf "request --retries killed; stderr:\n%s" stderr_text);
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "the client backed off at least once" true
    (contains stderr_text "retrying")

let suite =
  [
    Alcotest.test_case "rendezvous: deterministic, minimal reshuffle" `Quick
      test_rendezvous;
    Alcotest.test_case "backoff: schedule, hints, jitter bounds" `Quick
      test_backoff;
    Alcotest.test_case "request keys: canonical, delivery-option aware" `Quick
      test_keys;
    Alcotest.test_case "router: traced twins keep their own traces" `Quick
      test_router_traced_twins;
    Alcotest.test_case "scheduler coalesces identical in-flight requests"
      `Quick test_scheduler_coalescing;
    Alcotest.test_case "store: two handles share one log" `Quick
      test_store_shared_log;
    Alcotest.test_case "store: two writer processes, locked log" `Quick
      test_store_two_writer_processes;
    Alcotest.test_case "client demuxes pipelined out-of-order replies" `Quick
      test_client_pipelining;
    Alcotest.test_case "daemon: 8 identical requests, 1 evaluation" `Quick
      test_daemon_coalescing_e2e;
    Alcotest.test_case "daemon: four connections, cold and warm rounds"
      `Quick test_daemon_fanout;
    Alcotest.test_case "router: coalesce, kill-one-worker failover, drain"
      `Quick test_router_e2e;
    Alcotest.test_case "tiler request --retries rides out overload" `Quick
      test_cli_request_retries;
  ]
