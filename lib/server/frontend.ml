module Json = Tiling_obs.Json
module Metrics = Tiling_obs.Metrics
module Netio = Tiling_util.Netio

let m_accepted = Metrics.counter "server.connections.accepted"
let m_bad_lines = Metrics.counter "server.protocol.bad_lines"
let m_scrapes = Metrics.counter "server.metrics.scrapes"
let g_connections = Metrics.gauge "server.connections"

let log = Logs.Src.create "tiling.frontend" ~doc:"NDJSON front end"

module Log = (val Logs.src_log log)

(* JSON nesting in requests never legitimately exceeds a handful of
   levels; a tight cap shuts the deep-nesting parser-recursion vector. *)
let max_request_depth = 64

type conn = {
  fd : Unix.file_descr;
  wlock : Mutex.t;  (* one response line at a time *)
  plock : Mutex.t;  (* guards [pending] *)
  idle : Condition.t;
  mutable pending : int;  (* work that will still write to [fd] *)
}

type t = {
  addr : Netio.addr;
  max_line_bytes : int;
  lfd : Unix.file_descr;
  http : Http.t option;
  stop : bool Atomic.t;
  lock : Mutex.t;  (* guards [conns] and the closing of their descriptors *)
  closed : Condition.t;  (* a connection left [conns] *)
  conns : (int, conn) Hashtbl.t;
}

(* ------------------------------------------------------------------ *)
(* Connection bookkeeping                                               *)

(* A reply write that makes no progress for this long gives up.  Only a
   peer that has stopped reading leaves a socket buffer full for seconds:
   any client still reading, even one descheduled on a loaded host, drains
   some bytes well within it.  Without the bound, such a peer pins its
   reader thread in [reply] and holds up the drain until it hangs up. *)
let send_timeout_s = 5.0

(* A failed write hangs up the connection: its reader sees end of input,
   and later replies fail at once instead of each waiting out the send
   timeout. *)
let reply conn j =
  Mutex.protect conn.wlock (fun () ->
      match Netio.write_line conn.fd (Json.to_string j) with
      | Ok () -> ()
      | Error m -> (
          Log.debug (fun f -> f "dropping reply, hanging up: %s" m);
          try Unix.shutdown conn.fd Unix.SHUTDOWN_ALL
          with Unix.Unix_error _ -> ()))

let conn_begin c = Mutex.protect c.plock (fun () -> c.pending <- c.pending + 1)

let conn_end c =
  Mutex.protect c.plock (fun () ->
      c.pending <- c.pending - 1;
      if c.pending = 0 then Condition.broadcast c.idle)

let conn_wait_idle c =
  Mutex.protect c.plock (fun () ->
      while c.pending > 0 do
        Condition.wait c.idle c.plock
      done)

let stopping t = Atomic.get t.stop
let connections t = Mutex.protect t.lock (fun () -> Hashtbl.length t.conns)

(* ------------------------------------------------------------------ *)
(* Local methods                                                        *)

let bad_request ~id m =
  Protocol.error_response ~id (Protocol.err Protocol.Bad_request m)

let metrics conn (req : Protocol.request) =
  Metrics.incr m_scrapes;
  let ok fields =
    reply conn (Protocol.ok_response ~id:req.id (Json.Obj fields))
  in
  match Protocol.Params.string req.params "format" with
  | Error m -> reply conn (bad_request ~id:req.id m)
  | Ok (Some "json") ->
      ok [ ("format", Json.String "json"); ("snapshot", Metrics.snapshot ()) ]
  | Ok (None | Some "openmetrics") ->
      ok
        [
          ("format", Json.String "openmetrics");
          ("body", Json.String (Tiling_obs.Openmetrics.render ()));
        ]
  | Ok (Some other) ->
      reply conn
        (bad_request ~id:req.id
           (Printf.sprintf "unknown format %S (expected openmetrics or json)"
              other))

let handle t dispatch conn (req : Protocol.request) =
  match req.meth with
  | "metrics" -> metrics conn req
  | "shutdown" ->
      reply conn
        (Protocol.ok_response ~id:req.id
           (Json.Obj [ ("stopping", Json.Bool true) ]));
      Log.info (fun f -> f "shutdown requested over the wire");
      Atomic.set t.stop true
  | _ -> dispatch conn req

(* ------------------------------------------------------------------ *)
(* Per-connection read loop                                             *)

let salvage_id j = Option.value (Json.member "id" j) ~default:Json.Null

let serve_conn t dispatch conn =
  let max_bytes = t.max_line_bytes in
  let r = Netio.reader conn.fd in
  let rec loop () =
    match Netio.read_line ~max_bytes r with
    | `Eof -> ()
    | `Too_long ->
        Metrics.incr m_bad_lines;
        reply conn
          (Protocol.error_response ~id:Json.Null
             (Protocol.err Protocol.Payload_too_large
                (Printf.sprintf "request line exceeds %d bytes" max_bytes)))
    | `Line line ->
        if String.trim line = "" then loop ()
        else begin
          (match
             Json.of_string ~max_depth:max_request_depth ~max_size:max_bytes
               line
           with
          | Error m ->
              Metrics.incr m_bad_lines;
              reply conn (bad_request ~id:Json.Null ("invalid JSON: " ^ m))
          | Ok j -> (
              match Protocol.request_of_json j with
              | Error e ->
                  Metrics.incr m_bad_lines;
                  reply conn (Protocol.error_response ~id:(salvage_id j) e)
              | Ok req -> handle t dispatch conn req));
          loop ()
        end
  in
  (try loop ()
   with e ->
     Log.err (fun f -> f "connection loop died: %s" (Printexc.to_string e)));
  conn_wait_idle conn

let set_gauge t =
  Metrics.set g_connections (float_of_int (Hashtbl.length t.conns))

(* The descriptor is closed under [t.lock], in the same step that drops
   the connection from [conns], so the drain's shutdown sweep never
   touches a descriptor number the process has since reused. *)
let open_conn t dispatch key fd =
  let conn =
    {
      fd;
      wlock = Mutex.create ();
      plock = Mutex.create ();
      idle = Condition.create ();
      pending = 0;
    }
  in
  Mutex.protect t.lock (fun () ->
      Hashtbl.replace t.conns key conn;
      set_gauge t);
  ignore
    (Thread.create
       (fun () ->
         serve_conn t dispatch conn;
         Mutex.protect t.lock (fun () ->
             Hashtbl.remove t.conns key;
             (try Unix.close fd with Unix.Unix_error _ -> ());
             set_gauge t;
             Condition.broadcast t.closed))
       ())

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                            *)

let install_signals stop =
  (match Sys.signal Sys.sigpipe Sys.Signal_ignore with _ -> ());
  List.iter
    (fun s ->
      try Sys.set_signal s (Sys.Signal_handle (fun _ -> Atomic.set stop true))
      with Invalid_argument _ | Sys_error _ -> ())
    [ Sys.sigterm; Sys.sigint ]

let start ~addr ~max_line_bytes ~metrics_addr =
  match Netio.listen addr with
  | Error m ->
      Error
        (Printf.sprintf "cannot listen on %s: %s" (Netio.addr_to_string addr) m)
  | Ok lfd -> (
      let http =
        match metrics_addr with
        | None -> Ok None
        | Some addr ->
            Result.map Option.some
              (Http.start ~addr ~body:(fun () ->
                   Metrics.incr m_scrapes;
                   Tiling_obs.Openmetrics.render ()))
      in
      match http with
      | Error m ->
          (try Unix.close lfd with Unix.Unix_error _ -> ());
          Error (Printf.sprintf "cannot start metrics listener: %s" m)
      | Ok http ->
          let stop = Atomic.make false in
          install_signals stop;
          Ok
            {
              addr;
              max_line_bytes;
              lfd;
              http;
              stop;
              lock = Mutex.create ();
              closed = Condition.create ();
              conns = Hashtbl.create 16;
            })

let serve t ~dispatch ~drain =
  let next = ref 0 in
  while not (Atomic.get t.stop) do
    match Unix.select [ t.lfd ] [] [] 0.2 with
    | [], _, _ -> ()
    | _ -> (
        match Unix.accept ~cloexec:true t.lfd with
        | exception
            Unix.Unix_error
              ((Unix.EINTR | Unix.EAGAIN | Unix.ECONNABORTED), _, _) ->
            ()
        | fd, _ ->
            Metrics.incr m_accepted;
            (try Unix.setsockopt_float fd Unix.SO_SNDTIMEO send_timeout_s
             with Unix.Unix_error _ -> ());
            incr next;
            open_conn t dispatch !next fd)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  (* No new connections, then the role quiesces (the daemon lets every
     admitted job finish), then readers are unblocked; each one waits out
     its connection's pending work before it closes. *)
  Log.app (fun f -> f "draining");
  (try Unix.close t.lfd with Unix.Unix_error _ -> ());
  Option.iter Http.stop t.http;
  drain ();
  Mutex.protect t.lock (fun () ->
      Hashtbl.iter
        (fun _ c ->
          try Unix.shutdown c.fd Unix.SHUTDOWN_RECEIVE
          with Unix.Unix_error _ -> ())
        t.conns;
      while Hashtbl.length t.conns > 0 do
        Condition.wait t.closed t.lock
      done);
  (match t.addr with
  | Netio.Unix_sock p -> ( try Sys.remove p with Sys_error _ -> ())
  | Netio.Tcp _ -> ());
  Log.app (fun f -> f "stopped")
