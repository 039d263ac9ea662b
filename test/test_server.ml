(* The tiling daemon: store persistence and crash-safety, scheduler
   admission control and deadlines, and one end-to-end socket session
   against a live server. *)

module Json = Tiling_obs.Json
module Store = Tiling_server.Store
module Scheduler = Tiling_server.Scheduler
module Protocol = Tiling_server.Protocol
module Server = Tiling_server.Server
module Client = Tiling_server.Client
module Netio = Tiling_util.Netio
module Memo = Tiling_search.Memo
module Eval = Tiling_search.Eval

let get path json =
  List.fold_left
    (fun acc key -> match acc with Some j -> Json.member key j | None -> None)
    (Some json) path

let get_int path json =
  match get path json with
  | Some (Json.Int i) -> i
  | _ -> Alcotest.failf "missing int at %s" (String.concat "." path)

let temp_path suffix =
  let f = Filename.temp_file "tiling_server_test" suffix in
  Sys.remove f;
  f

let key values = Memo.Key.of_values values

(* ------------------------------------------------------------------ *)
(* Store                                                                *)

let test_store_roundtrip () =
  let path = temp_path ".store" in
  let fp_plain = "tile|mm|32|8192:32:1|cme-sample|7" in
  let fp_hostile = "weird fp\nwith spaces\tand%percent" in
  (match Store.open_ ~path () with
  | Error m -> Alcotest.fail m
  | Ok s ->
      Store.append s ~fingerprint:fp_plain (key [| 1; 2; 3 |]) 42.5;
      Store.append s ~fingerprint:fp_plain (key [| -4; 0; 9 |]) 0x1.fp-3;
      Store.append s ~fingerprint:fp_hostile (key [| 7 |]) 1e300;
      Store.sync s;
      Store.close s);
  match Store.open_ ~path () with
  | Error m -> Alcotest.fail m
  | Ok s ->
      Alcotest.(check int) "no skipped lines" 0 (Store.skipped_on_load s);
      Alcotest.(check int) "3 live entries" 3 (Store.entries s);
      Alcotest.(check int) "2 fingerprints" 2 (Store.fingerprints s);
      Alcotest.(check (option (float 0.))) "exact float back"
        (Some 42.5)
        (Store.find s ~fingerprint:fp_plain (key [| 1; 2; 3 |]));
      Alcotest.(check (option (float 0.))) "negative key values"
        (Some 0x1.fp-3)
        (Store.find s ~fingerprint:fp_plain (key [| -4; 0; 9 |]));
      Alcotest.(check (option (float 0.))) "hostile fingerprint"
        (Some 1e300)
        (Store.find s ~fingerprint:fp_hostile (key [| 7 |]));
      Alcotest.(check (option (float 0.))) "absent key"
        None
        (Store.find s ~fingerprint:fp_plain (key [| 9; 9; 9 |]));
      Store.close s;
      Sys.remove path

let test_store_tolerates_truncation () =
  let path = temp_path ".store" in
  (match Store.open_ ~path () with
  | Error m -> Alcotest.fail m
  | Ok s ->
      Store.append s ~fingerprint:"fp" (key [| 1 |]) 1.0;
      Store.append s ~fingerprint:"fp" (key [| 2 |]) 2.0;
      Store.sync s;
      Store.close s);
  (* simulate a crash mid-append: a final half-written line *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "r fp 3,3";
  close_out oc;
  (match Store.open_ ~path () with
  | Error m -> Alcotest.fail m
  | Ok s ->
      Alcotest.(check int) "truncated line skipped" 1 (Store.skipped_on_load s);
      Alcotest.(check int) "intact records survive" 2 (Store.entries s);
      Alcotest.(check (option (float 0.))) "value intact" (Some 2.0)
        (Store.find s ~fingerprint:"fp" (key [| 2 |]));
      Store.close s);
  Sys.remove path

let test_store_refuses_foreign_file () =
  let path = temp_path ".store" in
  let oc = open_out path in
  output_string oc "this is not a tiling store\n";
  close_out oc;
  (match Store.open_ ~path () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "opened a foreign file as a store");
  Sys.remove path

let test_store_compaction () =
  let path = temp_path ".store" in
  (match Store.open_ ~compact_min_dead:4 ~path () with
  | Error m -> Alcotest.fail m
  | Ok s ->
      (* 6 appends, 2 distinct keys: 4 dead records trigger compaction *)
      for i = 1 to 3 do
        Store.append s ~fingerprint:"fp" (key [| 1 |]) (float_of_int i);
        Store.append s ~fingerprint:"fp" (key [| 2 |]) (float_of_int (10 * i))
      done;
      Alcotest.(check int) "6 records before sync" 6 (Store.records s);
      Store.sync s;
      Alcotest.(check int) "compaction ran" 1 (Store.compactions s);
      Alcotest.(check int) "log rewritten to live set" 2 (Store.records s);
      Store.close s);
  (match Store.open_ ~path () with
  | Error m -> Alcotest.fail m
  | Ok s ->
      Alcotest.(check int) "compacted log loads clean" 0 (Store.skipped_on_load s);
      Alcotest.(check (option (float 0.))) "last write wins" (Some 3.0)
        (Store.find s ~fingerprint:"fp" (key [| 1 |]));
      Alcotest.(check (option (float 0.))) "other key too" (Some 30.0)
        (Store.find s ~fingerprint:"fp" (key [| 2 |]));
      Store.close s);
  Sys.remove path

(* Save -> restart -> identical fitness, across every paper kernel: a
   fresh evaluation service backed only by the reloaded store must
   reproduce each candidate's objective bit-for-bit with zero fresh
   backend evaluations. *)
let test_memo_roundtrip_all_kernels () =
  let kernels = Tiling_kernels.Kernels.all in
  Alcotest.(check int) "the paper's 17 kernels" 17 (List.length kernels);
  let n = 8 in
  let cache = Tiling_cache.Config.make ~size:1024 ~line:32 ~assoc:1 () in
  let backend = Tiling_search.Backend.sim in
  let fp (spec : Tiling_kernels.Kernels.spec) =
    Store.fingerprint ~method_:"memo-test" ~kernel:spec.name ~n ~cache
      ~backend:backend.Tiling_search.Backend.name ~seed:42
  in
  let candidates (spec : Tiling_kernels.Kernels.spec) =
    (* valid tile vectors for any loop bounds: fractions of each span *)
    let spans = Tiling_ir.Transform.tile_spans (spec.build n) in
    [
      Array.map (fun s -> max 1 (s / 2)) spans;
      Array.map (fun s -> max 1 (s / 3)) spans;
      spans;
    ]
  in
  let eval_with store (spec : Tiling_kernels.Kernels.spec) =
    let nest = spec.build n in
    let eval =
      Eval.create ~backend ~cache
        ~prepare:(fun tiles ->
          (Tiling_ir.Transform.tile nest (Array.copy tiles), [||]))
        ()
    in
    Memo.set_tier (Eval.memo eval) (Some (Store.tier store ~fingerprint:(fp spec)));
    eval
  in
  let path = temp_path ".store" in
  let first =
    match Store.open_ ~path () with
    | Error m -> Alcotest.fail m
    | Ok store ->
        let values =
          List.map
            (fun spec ->
              let eval = eval_with store spec in
              let vs = List.map (Eval.objective eval) (candidates spec) in
              Alcotest.(check bool)
                (spec.name ^ ": first run computes fresh")
                true
                (Eval.fresh eval > 0);
              (spec.name, vs))
            kernels
        in
        Store.sync store;
        Store.close store;
        values
  in
  match Store.open_ ~path () with
  | Error m -> Alcotest.fail m
  | Ok store ->
      List.iter2
        (fun spec (name, saved) ->
          let eval = eval_with store spec in
          let again = List.map (Eval.objective eval) (candidates spec) in
          List.iter2
            (fun a b ->
              if a <> b then
                Alcotest.failf "%s: fitness drifted across restart (%h vs %h)"
                  name a b)
            saved again;
          Alcotest.(check int)
            (name ^ ": zero fresh evaluations after restart")
            0 (Eval.fresh eval))
        kernels first;
      Store.close store;
      Sys.remove path

(* ------------------------------------------------------------------ *)
(* Scheduler                                                            *)

let drain_error_code = function
  | Ok _ -> Alcotest.fail "expected an error result"
  | Error e -> e.Protocol.code

let test_scheduler_backpressure () =
  let sched = Scheduler.create ~workers:1 ~capacity:1 () in
  let release = Atomic.make false in
  let delivered = Atomic.make 0 in
  let blocker ~cancelled:_ =
    while not (Atomic.get release) do
      Thread.yield ()
    done;
    Json.Null
  in
  let deliver ~coalesced:_ _ = Atomic.incr delivered in
  (* first job occupies the worker... *)
  (match Scheduler.submit sched ~work:blocker ~deliver () with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "first job rejected");
  (* give the worker time to pick it up, then fill the one queue slot *)
  let rec wait_pickup tries =
    if Scheduler.depth sched > 0 && tries > 0 then (
      Thread.yield ();
      Thread.delay 0.01;
      wait_pickup (tries - 1))
  in
  wait_pickup 200;
  (match Scheduler.submit sched ~work:blocker ~deliver () with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "queued job rejected");
  (* ...and the next submission must bounce with a retry hint *)
  (match Scheduler.submit sched ~work:blocker ~deliver () with
  | Ok () -> Alcotest.fail "over-capacity job admitted"
  | Error (Scheduler.Overloaded retry) ->
      Alcotest.(check bool) "positive retry hint" true (retry > 0.)
  | Error Scheduler.Draining -> Alcotest.fail "not draining yet");
  Alcotest.(check int) "one admission reject" 1 (Scheduler.rejected sched);
  Atomic.set release true;
  Scheduler.drain sched;
  Alcotest.(check int) "both admitted jobs delivered" 2 (Atomic.get delivered);
  Alcotest.(check int) "completed counter" 2 (Scheduler.completed sched);
  (* after drain: immediate Draining *)
  match Scheduler.submit sched ~work:blocker ~deliver () with
  | Error Scheduler.Draining -> ()
  | _ -> Alcotest.fail "post-drain submission not refused"

let test_scheduler_retry_hint_tracks_depth () =
  let sched = Scheduler.create ~workers:1 ~capacity:8 () in
  let deliver ~coalesced:_ _ = () in
  (* seed the latency ring with one completion of measurable duration so
     the hint formula has a p50 to work from *)
  (match
     Scheduler.submit sched
       ~work:(fun ~cancelled:_ ->
         Thread.delay 0.2;
         Json.Null)
       ~deliver ()
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "warm-up job rejected");
  let rec wait_done tries =
    if Scheduler.completed sched < 1 && tries > 0 then (
      Thread.delay 0.01;
      wait_done (tries - 1))
  in
  wait_done 500;
  Alcotest.(check int) "warm-up completed" 1 (Scheduler.completed sched);
  let hint_empty = Scheduler.retry_after sched in
  (* occupy the worker... *)
  let release = Atomic.make false in
  let blocker ~cancelled:_ =
    while not (Atomic.get release) do
      Thread.yield ()
    done;
    Json.Null
  in
  (match Scheduler.submit sched ~work:blocker ~deliver () with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "blocker rejected");
  let rec wait_pickup tries =
    if Scheduler.depth sched > 0 && tries > 0 then (
      Thread.delay 0.01;
      wait_pickup (tries - 1))
  in
  wait_pickup 200;
  (* ...then grow the backlog and watch the hint grow with it.  The old
     bug multiplied p50 by the configured capacity, so the hint sat at
     the same (inflated) value at every depth. *)
  let hint_at_depth d =
    while Scheduler.depth sched < d do
      match Scheduler.submit sched ~work:blocker ~deliver () with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "queued job rejected"
    done;
    Scheduler.retry_after sched
  in
  let h1 = hint_at_depth 1 in
  let h3 = hint_at_depth 3 in
  Alcotest.(check bool) "hint grows with backlog" true (h3 > h1);
  Alcotest.(check bool) "deep hint above empty-queue hint" true
    (h3 > hint_empty);
  (* capacity 8 x p50 ~0.2s would put the buggy hint at ~1.6s even with
     nothing queued; the depth-based hint stays near p50 *)
  Alcotest.(check bool) "empty-queue hint is small" true (hint_empty < 0.5);
  Atomic.set release true;
  Scheduler.drain sched;
  (* drain clears the roster before joining: report no crew, not a dead one *)
  Alcotest.(check int) "no workers after drain" 0 (Scheduler.workers sched)

let test_scheduler_deadlines () =
  let sched = Scheduler.create ~workers:1 ~capacity:8 () in
  let results = Atomic.make [] in
  let deliver ~coalesced:_ r = Atomic.set results (r :: Atomic.get results) in
  let ran = Atomic.make false in
  (* already expired: must fail without running *)
  (match
     Scheduler.submit sched
       ~deadline_s:(Unix.gettimeofday () -. 1.)
       ~work:(fun ~cancelled:_ ->
         Atomic.set ran true;
         Json.Null)
       ~deliver ()
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "expired job rejected at admission");
  (* cooperative cancellation: the work polls its probe and bails *)
  (match
     Scheduler.submit sched
       ~deadline_s:(Unix.gettimeofday () +. 0.1)
       ~work:(fun ~cancelled ->
         while not (cancelled ()) do
           Thread.delay 0.005
         done;
         raise Eval.Cancelled)
       ~deliver ()
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "cancellable job rejected at admission");
  Scheduler.drain sched;
  Alcotest.(check bool) "expired job never ran" false (Atomic.get ran);
  Alcotest.(check int) "both count as timeouts" 2 (Scheduler.timeouts sched);
  List.iter
    (fun r ->
      match drain_error_code r with
      | Protocol.Deadline_exceeded -> ()
      | c -> Alcotest.failf "wrong code %s" (Protocol.code_to_string c))
    (Atomic.get results)

let test_scheduler_survives_handler_crash () =
  let sched = Scheduler.create ~workers:1 ~capacity:8 () in
  let got = Atomic.make None in
  (match
     Scheduler.submit sched
       ~work:(fun ~cancelled:_ -> failwith "handler bug")
       ~deliver:(fun ~coalesced:_ r -> Atomic.set got (Some r))
       ()
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "rejected");
  Scheduler.drain sched;
  match Atomic.get got with
  | Some (Error e) when e.Protocol.code = Protocol.Internal -> ()
  | _ -> Alcotest.fail "handler exception not mapped to internal error"

(* ------------------------------------------------------------------ *)
(* End-to-end over a Unix socket                                        *)

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

let call_err client ~meth ~params =
  match Client.call client ~meth ~params with
  | Error m -> Alcotest.failf "%s: transport error: %s" meth m
  | Ok envelope -> (
      match Client.result_of_response envelope with
      | Ok _ -> Alcotest.failf "%s: expected a server error" meth
      | Error e -> e)

let test_end_to_end () =
  let sock = temp_path ".sock" in
  let store = temp_path ".store" in
  let cfg =
    {
      Server.default_config with
      addr = Netio.Unix_sock sock;
      store_path = Some store;
      workers = 2;
    }
  in
  let server = Thread.create (fun () -> Server.run cfg) () in
  let rec await_socket tries =
    if Sys.file_exists sock then ()
    else if tries = 0 then Alcotest.fail "server never bound its socket"
    else (
      Thread.delay 0.05;
      await_socket (tries - 1))
  in
  await_socket 100;
  let client =
    match Client.connect (Netio.Unix_sock sock) with
    | Ok c -> c
    | Error m -> Alcotest.failf "connect: %s" m
  in
  Fun.protect
    ~finally:(fun () ->
      (* a failed assertion skips the body's shutdown: send one here, or
         [Thread.join server] never returns *)
      shutdown_client client;
      Client.close client;
      Thread.join server;
      if Sys.file_exists store then Sys.remove store)
  @@ fun () ->
  let params =
    [
      ("kernel", Json.String "mm");
      ("n", Json.Int 12);
      ("seed", Json.Int 11);
    ]
  in
  (* the daemon must agree with the one-shot CLI path, same seed *)
  let served = call_ok client ~meth:"tile" ~params in
  let direct =
    let nest = (Tiling_kernels.Kernels.find "mm").build 12 in
    let cache = Tiling_cache.Config.make ~size:8192 ~line:32 ~assoc:1 () in
    let opts = { Tiling_core.Tiler.default_opts with seed = 11 } in
    (Tiling_core.Tiler.optimize ~opts nest cache).Tiling_core.Tiler.tiles
  in
  (match get [ "outcome"; "tiles" ] served with
  | Some (Json.List tiles) ->
      let tiles =
        List.map (function Json.Int i -> i | _ -> Alcotest.fail "tile") tiles
      in
      Alcotest.(check (list int))
        "served tiles match the one-shot optimizer"
        (Array.to_list direct) tiles
  | _ -> Alcotest.fail "no tiles in tile result");
  (* repeat request: answered from the persistent store *)
  ignore (call_ok client ~meth:"tile" ~params);
  let stats = call_ok client ~meth:"stats" ~params:[] in
  Alcotest.(check int) "two requests completed" 2
    (get_int [ "requests"; "completed" ] stats);
  Alcotest.(check bool) "store warmed the repeat request" true
    (get_int [ "store"; "hits" ] stats > 0);
  Alcotest.(check bool) "store persisted evaluations" true
    (get_int [ "store"; "appends" ] stats > 0);
  (* error paths stay structured *)
  let e = call_err client ~meth:"frobnicate" ~params:[] in
  Alcotest.(check string) "unknown method" "unknown_method"
    (Protocol.code_to_string e.Protocol.code);
  let e =
    call_err client ~meth:"tile" ~params:[ ("kernel", Json.String "zzz") ]
  in
  Alcotest.(check string) "bad kernel is bad_request" "bad_request"
    (Protocol.code_to_string e.Protocol.code);
  (* raw garbage on a second connection neither kills the daemon nor
     goes unanswered *)
  (match Netio.connect (Netio.Unix_sock sock) with
  | Error m -> Alcotest.fail m
  | Ok fd ->
      (match Netio.write_line fd "this is not json" with
      | Ok () -> ()
      | Error m -> Alcotest.fail m);
      let r = Netio.reader fd in
      (match Netio.read_line ~max_bytes:65536 r with
      | `Line l -> (
          match Json.of_string l with
          | Ok j ->
              Alcotest.(check bool) "structured bad_request" true
                (get [ "error"; "code" ] j = Some (Json.String "bad_request"))
          | Error m -> Alcotest.fail m)
      | _ -> Alcotest.fail "no reply to garbage");
      Unix.close fd);
  (* graceful shutdown over the wire *)
  let r = call_ok client ~meth:"shutdown" ~params:[] in
  Alcotest.(check bool) "acknowledged" true
    (Json.member "stopping" r = Some (Json.Bool true));
  Thread.join server;
  Alcotest.(check bool) "socket unlinked on drain" false (Sys.file_exists sock)

(* A client that pipelines requests and never reads the replies must not
   hold up the drain: once its socket buffers are full, the stuck reply
   write times out and the connection is hung up. *)
let test_drain_with_unread_replies () =
  let sock = temp_path ".sock" in
  let cfg = { Server.default_config with addr = Netio.Unix_sock sock } in
  let returned = Atomic.make false in
  let server =
    Thread.create
      (fun () ->
        ignore (Server.run cfg);
        Atomic.set returned true)
      ()
  in
  let rec await_socket tries =
    if Sys.file_exists sock then ()
    else if tries = 0 then Alcotest.fail "server never bound its socket"
    else (
      Thread.delay 0.05;
      await_socket (tries - 1))
  in
  await_socket 100;
  let connect () =
    match Netio.connect (Netio.Unix_sock sock) with
    | Ok fd -> fd
    | Error m -> Alcotest.failf "connect: %s" m
  in
  let stuck = connect () in
  (* 2 000 [stats] replies overflow the socket buffers; the requests
     themselves fit in them, so this write does not block. *)
  let line = {|{"id":1,"method":"stats"}|} ^ "\n" in
  let requests = String.concat "" (List.init 2000 (fun _ -> line)) in
  (match Netio.write_all stuck requests with
  | Ok () -> ()
  | Error m -> Alcotest.failf "pipelining: %s" m);
  Thread.delay 0.5;
  let client =
    match Client.connect (Netio.Unix_sock sock) with
    | Ok c -> c
    | Error m -> Alcotest.failf "connect: %s" m
  in
  let r = call_ok client ~meth:"shutdown" ~params:[] in
  Client.close client;
  Alcotest.(check bool) "shutdown acknowledged" true
    (Json.member "stopping" r = Some (Json.Bool true));
  let deadline =
    Unix.gettimeofday () +. Tiling_server.Frontend.send_timeout_s +. 5.0
  in
  while (not (Atomic.get returned)) && Unix.gettimeofday () < deadline do
    Thread.delay 0.05
  done;
  let in_time = Atomic.get returned in
  (* Hanging up the stuck client unblocks a daemon that missed the
     deadline, so a failure cannot hang the suite. *)
  Unix.close stuck;
  Thread.join server;
  Alcotest.(check bool) "drain finished within the send timeout plus 5 s"
    true in_time

(* ------------------------------------------------------------------ *)
(* Telemetry: inflight tracking, metrics export, traces and progress    *)

let test_scheduler_inflight () =
  let sched = Scheduler.create ~workers:1 ~capacity:4 () in
  let release = Atomic.make false in
  let started = Atomic.make false in
  (match
     Scheduler.submit sched ~label:"blocker"
       ~work:(fun ~cancelled:_ ->
         Atomic.set started true;
         while not (Atomic.get release) do
           Thread.yield ()
         done;
         Json.Null)
       ~deliver:(fun ~coalesced:_ _ -> ())
       ()
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "rejected");
  let rec await tries =
    if (not (Atomic.get started)) && tries > 0 then (
      Thread.delay 0.01;
      await (tries - 1))
  in
  await 200;
  (match Scheduler.inflight sched with
  | [ (label, queued_s, running_s) ] ->
      Alcotest.(check string) "label is the wire method" "blocker" label;
      Alcotest.(check bool) "sane queue/run times" true
        (queued_s >= 0. && running_s >= 0.)
  | l -> Alcotest.failf "expected 1 inflight job, got %d" (List.length l));
  Atomic.set release true;
  Scheduler.drain sched;
  Alcotest.(check int) "idle after drain" 0
    (List.length (Scheduler.inflight sched))

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* One daemon exercising every PR-6 telemetry surface: the [metrics]
   wire method in both formats, the HTTP scrape listener, the stats
   histogram/inflight extensions (including the no-samples case), a
   traced request whose span tree decomposes its latency, and progress
   events streamed ahead of the final response. *)
let test_telemetry_end_to_end () =
  let sock = temp_path ".sock" in
  let msock = temp_path ".msock" in
  let store = temp_path ".store" in
  Tiling_obs.Metrics.reset ();
  Tiling_obs.Metrics.set_enabled true;
  Tiling_obs.Events.set_enabled true;
  Fun.protect ~finally:(fun () ->
      Tiling_obs.Metrics.set_enabled false;
      Tiling_obs.Events.set_enabled false;
      Tiling_obs.Events.clear ();
      Tiling_obs.Metrics.reset ())
  @@ fun () ->
  let cfg =
    {
      Server.default_config with
      addr = Netio.Unix_sock sock;
      store_path = Some store;
      workers = 2;
      metrics_addr = Some (Netio.Unix_sock msock);
    }
  in
  let server = Thread.create (fun () -> Server.run cfg) () in
  let rec await_socket tries =
    if Sys.file_exists sock then ()
    else if tries = 0 then Alcotest.fail "server never bound its socket"
    else (
      Thread.delay 0.05;
      await_socket (tries - 1))
  in
  await_socket 100;
  let client =
    match Client.connect (Netio.Unix_sock sock) with
    | Ok c -> c
    | Error m -> Alcotest.failf "connect: %s" m
  in
  Fun.protect
    ~finally:(fun () ->
      (* a failed assertion skips the body's shutdown: send one here, or
         [Thread.join server] never returns *)
      shutdown_client client;
      Client.close client;
      Thread.join server;
      if Sys.file_exists store then Sys.remove store)
  @@ fun () ->
  (* stats before any scheduled request: the latency histogram exports
     its stable empty shape (no samples ever observed) *)
  let stats = call_ok client ~meth:"stats" ~params:[] in
  Alcotest.(check int) "no latency samples yet" 0
    (get_int [ "latency_ns_histogram"; "count" ] stats);
  (match get [ "latency_ns_histogram"; "buckets" ] stats with
  | Some (Json.List []) -> ()
  | _ -> Alcotest.fail "empty histogram should have no buckets");
  (match get [ "inflight" ] stats with
  | Some (Json.List []) -> ()
  | _ -> Alcotest.fail "nothing should be in flight");
  (* a traced, progress-streaming tile request *)
  let progress = ref [] in
  let envelope =
    match
      Client.call client
        ~on_progress:(fun ev -> progress := ev :: !progress)
        ~meth:"tile"
        ~params:
          [
            ("kernel", Json.String "mm");
            ("n", Json.Int 12);
            ("seed", Json.Int 11);
            ("trace", Json.Bool true);
            ("progress", Json.Bool true);
          ]
    with
    | Ok e -> e
    | Error m -> Alcotest.failf "traced tile: %s" m
  in
  let result =
    match Client.result_of_response envelope with
    | Ok r -> r
    | Error e -> Alcotest.failf "traced tile: %s" e.Protocol.message
  in
  (* progress notifications preceded the final response on the wire (the
     client consumed them from the same stream before the envelope) *)
  Alcotest.(check bool) "per-generation progress arrived" true
    (List.exists
       (fun ev -> get [ "kind" ] ev = Some (Json.String "ga.generation"))
       !progress);
  (* the span tree decomposes the request's latency: queue + run account
     for the total wall clock within 5% *)
  let trace =
    match get [ "trace" ] result with
    | Some t -> t
    | None -> Alcotest.fail "no trace in result"
  in
  let fnum path j =
    match get path j with
    | Some v -> Option.get (Json.to_float v)
    | None -> Alcotest.failf "missing %s" (String.concat "." path)
  in
  let total_us = fnum [ "total_us" ] trace in
  let spans =
    match get [ "spans" ] trace with
    | Some (Json.List l) -> l
    | _ -> Alcotest.fail "no spans"
  in
  let dur name =
    match
      List.find_opt
        (fun s -> Json.member "name" s = Some (Json.String name))
        spans
    with
    | Some s -> fnum [ "dur_us" ] s
    | None -> Alcotest.failf "span %s missing" name
  in
  let accounted = dur "request.queue" +. dur "request.run" in
  Alcotest.(check bool)
    (Printf.sprintf "queue+run (%.0fus) within 5%% of total (%.0fus)"
       accounted total_us)
    true
    (total_us > 0. && accounted >= 0.95 *. total_us
   && accounted <= 1.05 *. total_us);
  (* stats with the events param returns journal entries *)
  let stats =
    call_ok client ~meth:"stats" ~params:[ ("events", Json.Int 16) ]
  in
  (match get [ "events" ] stats with
  | Some (Json.List (_ :: _)) -> ()
  | _ -> Alcotest.fail "stats returned no events");
  Alcotest.(check int) "one latency sample now" 1
    (get_int [ "latency_ns_histogram"; "count" ] stats);
  (* the metrics wire method, both formats *)
  let om = call_ok client ~meth:"metrics" ~params:[] in
  (match get [ "body" ] om with
  | Some (Json.String body) ->
      Alcotest.(check bool) "openmetrics body has requests counter" true
        (contains body "tiling_server_requests_ok_total");
      Alcotest.(check bool) "openmetrics body has request histogram" true
        (contains body "tiling_server_request_ns_bucket");
      Alcotest.(check bool) "openmetrics body terminates" true
        (contains body "# EOF")
  | _ -> Alcotest.fail "metrics: no body");
  let js =
    call_ok client ~meth:"metrics" ~params:[ ("format", Json.String "json") ]
  in
  (match get [ "snapshot"; "counters"; "server.requests.ok" ] js with
  | Some (Json.Int n) -> Alcotest.(check bool) "ok counter moved" true (n >= 1)
  | _ -> Alcotest.fail "metrics json: no snapshot");
  let e =
    call_err client ~meth:"metrics" ~params:[ ("format", Json.String "xml") ]
  in
  Alcotest.(check string) "unknown format is bad_request" "bad_request"
    (Protocol.code_to_string e.Protocol.code);
  (* the HTTP scrape listener on its own socket *)
  (match Netio.connect (Netio.Unix_sock msock) with
  | Error m -> Alcotest.failf "metrics listener: %s" m
  | Ok fd ->
      (match Netio.write_all fd "GET /metrics HTTP/1.0\r\nHost: x\r\n\r\n" with
      | Ok () -> ()
      | Error m -> Alcotest.fail m);
      let r = Netio.reader fd in
      let buf = Buffer.create 4096 in
      let rec slurp () =
        match Netio.read_line ~max_bytes:(1 lsl 20) r with
        | `Line l ->
            Buffer.add_string buf l;
            Buffer.add_char buf '\n';
            slurp ()
        | `Eof | `Too_long -> ()
      in
      slurp ();
      Unix.close fd;
      let body = Buffer.contents buf in
      Alcotest.(check bool) "HTTP 200" true (contains body "200 OK");
      Alcotest.(check bool) "openmetrics content type" true
        (contains body "application/openmetrics-text");
      Alcotest.(check bool) "scrape body present" true
        (contains body "tiling_server_requests_ok_total");
      Alcotest.(check bool) "scrape terminates with EOF" true
        (contains body "# EOF"));
  (* shutdown also stops the HTTP listener and unlinks its socket *)
  ignore (call_ok client ~meth:"shutdown" ~params:[]);
  Thread.join server;
  Alcotest.(check bool) "metrics socket unlinked" false (Sys.file_exists msock)

(* ------------------------------------------------------------------ *)
(* Address parsing                                                      *)

let test_addr_parsing () =
  let ok s expect =
    match Netio.addr_of_string s with
    | Ok a -> Alcotest.(check string) s expect (Netio.addr_to_string a)
    | Error m -> Alcotest.failf "%s: %s" s m
  in
  ok "unix:/tmp/t.sock" "unix:/tmp/t.sock";
  ok "tcp:localhost:7070" "tcp:localhost:7070";
  ok "localhost:7070" "tcp:localhost:7070";
  ok "./relative.sock" "unix:./relative.sock";
  ok "/abs/path.sock" "unix:/abs/path.sock";
  match Netio.addr_of_string "tcp:nohost" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "tcp:nohost parsed"

let suite =
  [
    Alcotest.test_case "store round-trips exactly" `Quick test_store_roundtrip;
    Alcotest.test_case "store tolerates a truncated tail" `Quick
      test_store_tolerates_truncation;
    Alcotest.test_case "store refuses foreign files" `Quick
      test_store_refuses_foreign_file;
    Alcotest.test_case "store compacts dead records" `Quick test_store_compaction;
    Alcotest.test_case "memo save/restart/identical fitness on all 17 kernels"
      `Quick test_memo_roundtrip_all_kernels;
    Alcotest.test_case "scheduler backpressure and drain" `Quick
      test_scheduler_backpressure;
    Alcotest.test_case "retry hint tracks queue depth, drain clears roster"
      `Quick test_scheduler_retry_hint_tracks_depth;
    Alcotest.test_case "scheduler deadlines, queued and cooperative" `Quick
      test_scheduler_deadlines;
    Alcotest.test_case "handler crash maps to internal error" `Quick
      test_scheduler_survives_handler_crash;
    Alcotest.test_case "end-to-end daemon session over a Unix socket" `Quick
      test_end_to_end;
    Alcotest.test_case "scheduler tracks in-flight jobs" `Quick
      test_scheduler_inflight;
    Alcotest.test_case "telemetry end-to-end: metrics, traces, progress" `Quick
      test_telemetry_end_to_end;
    Alcotest.test_case "address parsing" `Quick test_addr_parsing;
    Alcotest.test_case "drain: a client that never reads cannot hold it up"
      `Quick test_drain_with_unread_replies;
  ]
