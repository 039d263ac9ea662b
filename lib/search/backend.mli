(** Pluggable cost backends: how much does a candidate cost?

    Every search strategy in this reproduction (GA tiling, padding, joint
    pad+tile, loop-order, and all the baselines) ultimately asks one
    question of a fully transformed nest: how many replacement misses does
    it suffer?  A backend answers that question.  The search layer never
    hardcodes the cost model, so swapping the CME sampler for an exact
    enumeration or for the trace-driven simulator — the ground-truth
    oracle the CMEs approximate — is a one-argument change.

    A backend receives the *prepared* candidate: the nest after tiling /
    padding / interchange has been applied, plus the common iteration-point
    sample embedded into that nest's coordinates.  Preparing candidates is
    the strategy's job (see {!Eval}); costing them is the backend's.

    Every answer is exact or sampled: [cme-exact] and [sim] count every
    access, [cme-sample] classifies the embedded sample, and [symbolic]
    answers each candidate with an exact census where that costs no more
    than the sample, else with the sample. *)

type t = {
  name : string;  (** CLI / report identifier, e.g. ["cme-sample"] *)
  cost :
    Tiling_cache.Config.t -> Tiling_ir.Nest.t -> points:int array array -> float;
      (** [cost cache nest ~points] is the candidate's objective value
          (lower is better): its replacement-miss count.  [points] is the
          embedded common sample; backends that enumerate the whole
          iteration space ignore it.  Must be pure and safe to call from
          several domains at once. *)
}

val cme_sample : t
(** The paper's objective: CME point solver over the embedded sample
    ({!Tiling_cme.Estimator.sample_at}).  Name: ["cme-sample"]. *)

val cme_exact : t
(** CME point solver over every iteration point
    ({!Tiling_cme.Estimator.exact}) — exact but only viable on small
    spaces.  Name: ["cme-exact"]. *)

val sim : t
(** Trace-driven cache simulation ({!Tiling_trace.Run.simulate}): replays
    the nest's full address trace through the LRU simulator.  The
    ground-truth oracle the CME backends are validated against.
    Name: ["sim"]. *)

val symbolic : t
(** Closed-form CME census ({!Tiling_cme.Closed_form.estimate}) under the
    embedded sample's cost: the census may spend [points × refs]
    classifications, what {!cme_sample} spends on the candidate.  Where it
    fits, the answer is the exact whole-space replacement count; where it
    refuses (affine-coupled bounds, or a census dearer than the sample),
    the whole embedded sample is classified and its count scaled to
    whole-space magnitude, so objectives stay comparable within one
    search, and the [symbolic.fallbacks] metric counts one.  Every answer
    is thus exact or sampled.  Name: ["symbolic"]. *)

val default : t
(** [cme_sample]. *)

val all : t list
val names : string list

val of_string : string -> (t, string) result
(** Look a backend up by [name]; the error message lists valid names. *)
