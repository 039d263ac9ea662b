(* The metric names and units the benchmark reports, in output order.
   BENCHMARK.json lists the same names; the self-test checks that every
   run prints each of them with this unit. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("search_norm_s", "s");
    ("warm_norm_ms", "ms");
    ("repl_miss_pct", "%");
    ("peak_rss_mb", "MB");
  ]

(* Printed with the end-to-end table but not gated: the same timings as
   measured -- wall-clock, which on a shared host follows its load, and
   CPU seconds before calibration -- the calibration samples' mean and
   the host's steal over the timed phases, to read them against, and
   cold_p50_ms, a median over a mixture of four kernels that jumps
   whenever the two middle kernels trade places (see README.md). *)
let informational =
  [
    ("setup_wall_s", "s");
    ("setup_cpu_s", "s");
    ("search_s", "s");
    ("search_cpu_s", "s");
    ("cold_p50_ms", "ms");
    ("warm_p50_ms", "ms");
    ("warm_p90_ms", "ms");
    ("warm_cpu_ms", "ms");
    ("calib_ms", "ms");
    ("steal_pct", "%");
  ]

let per_layer =
  [
    ("tiler.search_s.mm", "s");
    ("tiler.search_s.t2d", "s");
    ("tiler.search_s.sor", "s");
    ("tiler.search_s.lu", "s");
    ("tiler.self_ms", "ms");
    ("ga.generations", "count");
    ("ga.generation_ms.p50", "ms");
    ("ga.self_ms.p50", "ms");
    ("eval.fresh", "count");
    ("eval.memo_hit_ratio", "ratio");
    ("eval.fresh_per_s", "1/s");
    ("backend.call_ms.p50", "ms");
    ("backend.call_ms.p90", "ms");
    ("backend.busy_share", "ratio");
    ("cme.engines_per_eval", "count");
    ("cme.classify_per_eval", "count");
    ("cme.residues_computed_per_eval", "count");
    ("cme.residue_l1_hit_ratio", "ratio");
    ("cme.residue_shared_hit_ratio", "ratio");
    ("cme.fallbacks", "count");
    ("symbolic.rows_per_eval", "count");
    ("symbolic.probed_per_eval", "count");
    ("symbolic.extrapolated_per_eval", "count");
    ("symbolic.points_per_eval", "count");
    ("symbolic.fallbacks", "count");
    ("pool.busy_share", "ratio");
    ("pool.chunks_per_batch", "count");
    ("gc.minor_words_per_eval", "words");
    ("gc.major_words_per_eval", "words");
    ("gc.minor_collections", "count");
    ("gc.major_collections", "count");
    ("gc.pause_ms", "ms");
    ("scheduler.queue_ms.p50", "ms");
    ("scheduler.queue_ms.p95", "ms");
    ("scheduler.run_ms.warm.p50", "ms");
    ("scheduler.run_ms.cold.p50", "ms");
    ("scheduler.coalesced", "count");
    ("scheduler.rejected", "count");
    ("store.lookups_per_warm_request", "count");
    ("store.warm_hit_ratio", "ratio");
    ("store.appends_per_cold_request", "count");
    ("store.refreshes", "count");
    ("store.compactions", "count");
    ("router.overhead_ms.p50", "ms");
    ("router.coalesced_share", "ratio");
    ("router.shard_imbalance", "ratio");
    ("router.retries", "count");
    ("router.failed", "count");
    ("trace.overhead_pct", "%");
  ]

(* A workload's measurement: name, value and sample count. *)
type measured = string * float * int

let v ?(samples = 1) name value : measured = (name, value, samples)

(* Fill a catalogue from the workload's measurements: a name the
   workload did not measure (a layer it does not load) reads 0 with 0
   samples. *)
let fill catalog (measured : measured list) =
  List.map
    (fun (name, unit_) ->
      let value, samples =
        match List.find_opt (fun (n, _, _) -> n = name) measured with
        | Some (_, value, samples) -> (value, samples)
        | None -> (0., 0)
      in
      Measure.metric ~samples name unit_ value)
    catalog
