(** The NDJSON front end that the tiling daemon ({!Server}) and the fleet
    router both run on: listener, accept loop, per-connection readers,
    the local [metrics] and [shutdown] methods, signals and drain.  A
    role supplies a dispatch policy for every other method.

    Each accepted connection gets a reader thread.  The reader caps line
    length (a longer line is answered [payload_too_large], then the
    connection is dropped: the stream cannot be re-synchronised) and
    JSON nesting depth, answers invalid JSON and bad envelopes with
    [bad_request], and hands each well-formed request to [dispatch] in
    arrival order.  [dispatch] may answer inline with {!reply}, or
    bracket work that answers later, from any thread, with {!conn_begin}
    and {!conn_end}: a reader never closes a descriptor that such work
    will still write to.  A reply that cannot be written within
    {!send_timeout_s} — the peer has stopped reading — hangs up the
    connection, so such a peer cannot hold up the drain.

    Metrics: [server.connections.accepted], the [server.connections]
    gauge, [server.protocol.bad_lines] and [server.metrics.scrapes]
    (wire method and HTTP). *)

type t
type conn

val max_request_depth : int
(** JSON nesting cap for request lines (and for the router's reading of
    worker replies). *)

val send_timeout_s : float
(** How long a reply write may make no progress before the connection is
    hung up. *)

val start :
  addr:Tiling_util.Netio.addr ->
  max_line_bytes:int ->
  metrics_addr:Tiling_util.Netio.addr option ->
  (t, string) result
(** Bind [addr] and, when [metrics_addr] is set, an {!Http} listener
    serving [GET /metrics] there; install SIGTERM/SIGINT handlers that
    stop the accept loop, and ignore SIGPIPE.  Request lines longer than
    [max_line_bytes] are answered [payload_too_large].  [Error] names
    the address that could not be bound. *)

val serve :
  t ->
  dispatch:(conn -> Protocol.request -> unit) ->
  drain:(unit -> unit) ->
  unit
(** Accept until a signal or a [shutdown] request, then drain: close the
    listener, stop the metrics listener, run [drain] (the role's own
    quiescing), shut down every reader, wait until every connection has
    closed, and unlink a Unix socket path. *)

val stopping : t -> bool
(** The accept loop has been asked to stop. *)

val connections : t -> int
(** Connections currently open. *)

val reply : conn -> Tiling_obs.Json.t -> unit
(** Write one response line.  Lines never interleave; a write to a gone
    peer, or one that times out, is dropped and hangs up the
    connection. *)

val conn_begin : conn -> unit
(** One more piece of work will {!reply} on this connection later. *)

val conn_end : conn -> unit
(** That work has written its last line. *)
