(** The fleet front door: a dispatch policy over
    {!Tiling_server.Frontend} that owns no scheduler and no evaluations —
    it shards searching requests across worker daemons.

    Topology and semantics (docs/SERVER.md "Fleet mode"):

    - {b placement} — each request's {!Key.shard_key} picks a worker by
      {!Rendezvous} hashing, so the same search always lands on the same
      node (warm store locality) and a worker loss re-homes only that
      worker's keys;
    - {b coalescing} — none here: concurrent identical requests share a
      shard key, so they reach the same worker, whose scheduler
      evaluates once and flags every member ["coalesced": true].  The
      router only swaps each caller's id into the worker's envelope;
    - {b failover} — a transport failure (connection refused, EOF from a
      killed worker) marks the node down and replays the request on the
      next node in rendezvous order; the client sees one successful
      response, never the crash.  Server-side errors — including
      [overloaded]/[draining] backpressure with their [retry_after_s]
      hints — propagate upstream verbatim: a saturated owner is the
      client's cue to back off, not a reason to wreck another node's
      locality;
    - {b health} — a background thread [stats]-probes every worker each
      [health_period_s] under [io_timeout_s]; the forward path also
      updates health opportunistically.

    [stats] is answered by the router itself (["role": "router"],
    per-worker health and forwarding counters), [metrics] and
    [shutdown] by the shared front end.  Unknown methods are forwarded:
    the worker's own [unknown_method] reply keeps router and worker
    decoupled.

    Metrics: [fleet.router.requests] / [.forwarded] / [.retries] /
    [.backpressure] / [.failed], the [fleet.workers.up] gauge, plus the
    front end's [server.connections*], [server.protocol.bad_lines] and
    [server.metrics.scrapes]. *)

type config = {
  addr : Tiling_util.Netio.addr;
  workers : Tiling_util.Netio.addr list;
  health_period_s : float;
  io_timeout_s : float;  (** health-probe dial/read timeout *)
  max_line_bytes : int;
  metrics_addr : Tiling_util.Netio.addr option;
}

val default_config : config
(** No workers (a router refuses to start without at least one), 2s
    health period, 2s probe timeout, 1 MiB line cap. *)

val run : config -> (unit, string) result
(** Serve until SIGTERM/SIGINT or a [shutdown] request, then drain:
    stop accepting, stop the health thread, let in-flight forwards
    finish.  [Error] covers setup failures (bind, metrics listener,
    empty worker list). *)
