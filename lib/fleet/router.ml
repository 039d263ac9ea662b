module Json = Tiling_obs.Json
module Metrics = Tiling_obs.Metrics
module Netio = Tiling_util.Netio
module Protocol = Tiling_server.Protocol
module Frontend = Tiling_server.Frontend

let m_requests = Metrics.counter "fleet.router.requests"
let m_forwarded = Metrics.counter "fleet.router.forwarded"
let m_retries = Metrics.counter "fleet.router.retries"
let m_backpressure = Metrics.counter "fleet.router.backpressure"
let m_failed = Metrics.counter "fleet.router.failed"
let g_workers_up = Metrics.gauge "fleet.workers.up"

let log = Logs.Src.create "tiling.router" ~doc:"tiling fleet router"

module Log = (val Logs.src_log log)

type config = {
  addr : Netio.addr;
  workers : Netio.addr list;
  health_period_s : float;
  io_timeout_s : float;
  max_line_bytes : int;
  metrics_addr : Netio.addr option;
}

let default_config =
  {
    addr = Netio.Unix_sock "tiler-router.sock";
    workers = [];
    health_period_s = 2.0;
    io_timeout_s = 2.0;
    max_line_bytes = 1 lsl 20;
    metrics_addr = None;
  }

type state = {
  cfg : config;
  fe : Frontend.t;
  workers : Worker.t list;
  started_at : float;
  received : int Atomic.t;
  forwarded : int Atomic.t;
  retried : int Atomic.t;
  backpressure : int Atomic.t;
  failed : int Atomic.t;
}

let reply = Frontend.reply

(* ------------------------------------------------------------------ *)
(* Envelope surgery                                                     *)

(* A worker's envelope answers the caller under the caller's own id. *)
let rewrite_envelope ~id = function
  | Json.Obj fields ->
      Json.Obj
        (List.map (fun (k, v) -> if k = "id" then (k, id) else (k, v)) fields)
  | other -> other

let response_code j =
  match Json.member "error" j with
  | Some e -> (
      match Json.member "code" e with
      | Some (Json.String s) -> Protocol.code_of_string s
      | _ -> None)
  | None -> None

(* ------------------------------------------------------------------ *)
(* Forwarding                                                           *)

let worker_by_name st name =
  List.find_opt (fun w -> Worker.name w = name) st.workers

(* All workers in rendezvous order for [key], the live ones first.  Down
   workers stay as a last resort: health state may be stale, and a
   request that would otherwise fail outright is worth one optimistic
   dial. *)
let candidates st ~key =
  let ranked =
    Rendezvous.rank ~nodes:(List.map Worker.name st.workers) ~key
    |> List.filter_map (worker_by_name st)
  in
  let up, down = List.partition Worker.up ranked in
  up @ down

(* Forward [req] to [w] and relay until the final envelope.  Progress
   frames are relayed upstream as they arrive, with the id rewritten.
   [Error] means a transport-level failure — the worker died or spoke
   garbage — and the caller should retry elsewhere; a server-side error
   envelope is a successful forward. *)
let forward_once st conn ~(req : Protocol.request) w =
  match Worker.dial w with
  | Error m -> Error m
  | Ok fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let downstream =
            Json.Obj
              [
                ("v", Json.Int Protocol.version);
                ("id", Json.Int 1);
                ("method", Json.String req.meth);
                ("params", req.params);
              ]
          in
          match Netio.write_line fd (Json.to_string downstream) with
          | Error m -> Error m
          | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
          | Ok () ->
              let r = Netio.reader fd in
              let rec relay () =
                match Netio.read_line ~max_bytes:st.cfg.max_line_bytes r with
                | `Eof -> Error "worker closed mid-request"
                | `Too_long ->
                    Error
                      (Printf.sprintf "worker reply exceeds %d bytes"
                         st.cfg.max_line_bytes)
                | exception Unix.Unix_error (e, _, _) ->
                    Error (Unix.error_message e)
                | `Line line -> (
                    match
                      Json.of_string ~max_depth:Frontend.max_request_depth
                        ~max_size:st.cfg.max_line_bytes line
                    with
                    | Error m -> Error ("malformed worker reply: " ^ m)
                    | Ok j -> (
                        match Json.member "status" j with
                        | Some (Json.String "progress") ->
                            reply conn (rewrite_envelope ~id:req.id j);
                            relay ()
                        | _ -> Ok j))
              in
              relay ())

let no_live_worker =
  Protocol.err Protocol.Internal "no live worker could serve the request"

(* Walk the candidate list until a worker answers.  Transport failures
   mark the worker down and move on (a retried request may replay
   progress frames already relayed — documented in docs/SERVER.md);
   backpressure and every other server-side error propagate as-is,
   because the rendezvous owner being saturated is a signal for the
   CLIENT to back off, not for the router to pile the same key onto a
   second node and wreck its warm locality. *)
let forward st conn ~(req : Protocol.request) ~key =
  let rec go = function
    | [] ->
        Atomic.incr st.failed;
        Metrics.incr m_failed;
        Protocol.error_response ~id:req.id no_live_worker
    | w :: rest -> (
        match forward_once st conn ~req w with
        | Error m ->
            Log.info (fun f ->
                f "worker %s failed (%s); retrying on the next node"
                  (Worker.name w) m);
            Worker.mark_down w;
            if rest <> [] then begin
              Atomic.incr st.retried;
              Metrics.incr m_retries
            end;
            go rest
        | Ok envelope ->
            Worker.mark_up w;
            Worker.count_forward w;
            Atomic.incr st.forwarded;
            Metrics.incr m_forwarded;
            (match response_code envelope with
            | Some (Protocol.Overloaded | Protocol.Draining) ->
                Atomic.incr st.backpressure;
                Metrics.incr m_backpressure
            | _ -> ());
            envelope)
  in
  go (candidates st ~key)

(* ------------------------------------------------------------------ *)
(* Local methods                                                        *)

let stats_json st =
  Json.Obj
    [
      ("pid", Json.Int (Unix.getpid ()));
      ("version", Json.Int Protocol.version);
      ("role", Json.String "router");
      ("uptime_s", Json.Float (Unix.gettimeofday () -. st.started_at));
      ("workers", Json.List (List.map Worker.to_json st.workers));
      ( "requests",
        Json.Obj
          [
            ("received", Json.Int (Atomic.get st.received));
            ("forwarded", Json.Int (Atomic.get st.forwarded));
            ("retried", Json.Int (Atomic.get st.retried));
            ("backpressure", Json.Int (Atomic.get st.backpressure));
            ("failed", Json.Int (Atomic.get st.failed));
          ] );
      ("connections", Json.Int (Frontend.connections st.fe));
    ]

(* ------------------------------------------------------------------ *)
(* Dispatch                                                             *)

let dispatch st conn (req : Protocol.request) =
  Atomic.incr st.received;
  Metrics.incr m_requests;
  match req.meth with
  | "stats" -> reply conn (Protocol.ok_response ~id:req.id (stats_json st))
  | meth ->
      (* Everything else belongs to a worker.  The router does not know
         the method table — an unknown method comes back from the worker
         as its own [unknown_method] error, which keeps router and
         worker versions decoupled.  Identical concurrent requests share
         a shard key, so they reach the same worker, whose scheduler
         coalesces them. *)
      let key = Key.shard_key ~meth ~params:req.params in
      Frontend.conn_begin conn;
      let serve () =
        Fun.protect
          ~finally:(fun () -> Frontend.conn_end conn)
          (fun () ->
            let envelope =
              try forward st conn ~req ~key
              with e ->
                Protocol.error_response ~id:req.id
                  (Protocol.err Protocol.Internal (Printexc.to_string e))
            in
            reply conn (rewrite_envelope ~id:req.id envelope))
      in
      (* One thread per forwarded request: the connection read loop stays
         free to accept pipelined requests while this one blocks on a
         worker. *)
      ignore (Thread.create serve ())

(* ------------------------------------------------------------------ *)
(* Health sweeping                                                      *)

let set_up_gauge st =
  let up = List.length (List.filter Worker.up st.workers) in
  Metrics.set g_workers_up (float_of_int up)

let health_thread st () =
  (* First sweep immediately: the optimistic initial [up] should meet
     reality before the first health period elapses. *)
  let sweep () =
    List.iter
      (fun w ->
        if not (Frontend.stopping st.fe) then
          ignore (Worker.check ~timeout_s:st.cfg.io_timeout_s w))
      st.workers;
    set_up_gauge st
  in
  sweep ();
  while not (Frontend.stopping st.fe) do
    let slept = ref 0. in
    while (not (Frontend.stopping st.fe)) && !slept < st.cfg.health_period_s do
      Thread.delay 0.2;
      slept := !slept +. 0.2
    done;
    if not (Frontend.stopping st.fe) then sweep ()
  done

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                            *)

let run (cfg : config) =
  if cfg.workers = [] then Error "a router needs at least one --worker address"
  else
    match
      Frontend.start ~addr:cfg.addr ~max_line_bytes:cfg.max_line_bytes
        ~metrics_addr:cfg.metrics_addr
    with
    | Error m -> Error m
    | Ok fe ->
        let st =
          {
            cfg;
            fe;
            workers = List.map Worker.make cfg.workers;
            started_at = Unix.gettimeofday ();
            received = Atomic.make 0;
            forwarded = Atomic.make 0;
            retried = Atomic.make 0;
            backpressure = Atomic.make 0;
            failed = Atomic.make 0;
          }
        in
        set_up_gauge st;
        let health = Thread.create (health_thread st) () in
        Log.app (fun f ->
            f "routing on %s for %d workers (pid %d)"
              (Netio.addr_to_string cfg.addr)
              (List.length st.workers) (Unix.getpid ()));
        (* In-flight forwards finish on their own before their readers
           close; only the health thread needs stopping. *)
        Frontend.serve fe ~dispatch:(dispatch st) ~drain:(fun () ->
            Thread.join health);
        Ok ()
