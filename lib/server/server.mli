(** The tiling daemon: request handlers and the result store, as a
    dispatch policy over {!Frontend}.

    [run config] binds the configured address and serves until a
    [shutdown] request or a SIGTERM/SIGINT arrives, then drains: the
    listener closes, queued requests finish, the result store is flushed,
    in-flight connections are unblocked and closed, and a Unix socket
    path is unlinked.  Malformed input — bad JSON, bad envelopes, bad
    parameters, oversized lines — is answered with a structured error (or
    at worst drops that one connection); it never takes the daemon down.

    Methods: [analyze], [tile], [pad-tile], [fuzz-case], [stats],
    [metrics], [shutdown].  The first four go through the {!Scheduler}
    (admission control, deadlines) and accept two telemetry opt-ins:
    ["trace": true] attaches the request's {!Tiling_obs.Span} tree to the
    result under ["trace"], and ["progress": true] streams the search's
    {!Tiling_obs.Events} as interleaved [status:"progress"] notifications
    ahead of the final response.  [stats], [metrics] and [shutdown] are
    answered inline so they work even when the queue is saturated.  The
    parameter schema of each method is documented in docs/SERVER.md. *)

type config = {
  addr : Tiling_util.Netio.addr;
  workers : int;        (** scheduler worker threads *)
  capacity : int;       (** admission queue slots *)
  store_path : string option;
      (** result-store log; [None] = no persistence (per-request memo only) *)
  default_deadline_s : float option;
      (** applied to requests that carry no [deadline_s] of their own *)
  domains : int;        (** OCaml domains per search ({!Tiling_util.Pool}) *)
  max_line_bytes : int; (** request-line cap (payload_too_large beyond) *)
  metrics_addr : Tiling_util.Netio.addr option;
      (** when set, an {!Http} listener serving [GET /metrics] here *)
}

val default_config : config
(** [unix:tiler.sock], 2 workers, 64 slots, no store, no deadline,
    1 domain, 1 MiB lines, no HTTP metrics listener. *)

val run : config -> (unit, string) result
(** Serve until shutdown; [Error] only for startup failures (bind or
    store open).  Installs SIGTERM/SIGINT handlers and ignores
    SIGPIPE. *)
