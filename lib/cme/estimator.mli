(** Miss-ratio estimation from the CME point solver.

    Two drivers: [exact] visits every iteration point (only viable for tiny
    spaces; used by tests and the optimality oracle), and [sample]
    implements the paper's Simple Random Sampling scheme — a fixed number of
    points chosen uniformly, each access classified independently, and the
    population miss ratio inferred through a binomial confidence interval
    (width 0.1 at 90 % confidence needs 164 points, section 2.3). *)

type ref_counts = { r_accesses : int; r_misses : int; r_compulsory : int }
(** Per-reference classification totals (the CME property that "each memory
    reference can be studied independently of the others", section 2.3). *)

type report = {
  points : int;        (** iteration points examined *)
  accesses : int;      (** [points * number of references] *)
  misses : int;
  compulsory : int;
  per_ref : ref_counts array;  (** indexed by [ref_id] *)
  miss_ratio : Tiling_util.Stats.interval;
  replacement_ratio : Tiling_util.Stats.interval;
}

val replacement : report -> int
(** Replacement (capacity + conflict) misses observed. *)

val exact : Engine.t -> report
(** Classify every access of the nest. *)

val sample : ?width:float -> ?confidence:float -> seed:int -> Engine.t -> report
(** Paper defaults: [width = 0.1], [confidence = 0.9] (164 points).  The
    sample size and the reported intervals both honour the requested
    [confidence]: the half-width is the [confidence]-level normal quantile
    around the sampled ratio, not a relabelled default. *)

val sample_at : ?confidence:float -> Engine.t -> int array array -> report
(** Classify exactly the given points (common-random-number evaluation: the
    genetic algorithm passes the same underlying sample to every candidate
    tiling to make objective values comparable).  Intervals are computed at
    [confidence] (default 0.9); an empty point set yields degenerate
    zero-width intervals. *)

val default_points : unit -> int
(** The paper's sample size: [required_sample_size ~width:0.1
    ~confidence:0.9] = 164. *)

val census_report :
  points:int -> per_ref:ref_counts array -> report
(** Assemble a census-shaped report (degenerate exact intervals,
    [accesses = points * Array.length per_ref]) from per-reference counts
    aggregated elsewhere — the closed-form solver builds its reports this
    way.  Every reference must have been charged one access per point. *)

val to_json : report -> Tiling_obs.Json.t
(** Machine-readable rendering of a report: totals, both confidence
    intervals and per-reference counts. *)

val pp : report Fmt.t

val pp_per_ref : Tiling_ir.Nest.t -> report Fmt.t
(** One line per reference: array name, access kind, miss/replacement
    ratios. *)
