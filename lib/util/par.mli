(** Minimal fork-join parallelism over OCaml 5 domains.

    Used to fan the GA's population evaluation (and the fuzzer's trial
    batches) out over cores: each work unit builds its own solver state,
    so the units are independent and embarrassingly parallel.

    [map] is a thin facade over {!Pool}: worker domains are spawned once
    per process and fed small self-scheduled chunks, instead of [d - 1]
    fresh domains being spawned and joined on every call. *)

val map : domains:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map ~domains f xs] is [Array.map f xs], computed by [domains] domains
    (the calling domain included).  [domains <= 1] degrades to the
    sequential map, and a call made from inside a pool worker (a nested
    parallel map) runs sequentially on that worker.  [f] must be safe to
    run concurrently with itself.  Exceptions raised by [f] are re-raised
    in the caller once the batch has completed.

    Results are written by item index, so the output — and everything
    downstream of it — is byte-identical for any [domains] value.

    When the {!Tiling_obs.Metrics} registry is enabled, each parallel
    chunk records its wall-clock into the [par.chunk_ns] histogram and
    bumps the [par.chunks] counter; when the {!Tiling_obs.Span} tracer is
    enabled, each chunk emits a [par.chunk] span on its domain's track.
    The two instrumentation paths are independent: neither pays the
    other's cost. *)
