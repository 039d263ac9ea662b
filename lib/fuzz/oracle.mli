(** The differential oracle: the CME point solver, driven through
    {!Tiling_cme.Estimator.exact}, must assign every reference the same
    access, miss and compulsory-miss counts as the trace-driven
    set-associative LRU simulator ({!Tiling_cache.Sim} fed by
    {!Tiling_trace}).

    The solver is exact on every nest it accepts, so any disagreement is a
    {!Mismatch}: a bug. *)

type ref_delta = {
  ref_id : int;
  cme : int * int * int;  (** (accesses, misses, compulsory) per the solver *)
  sim : int * int * int;  (** the same triple per the simulator *)
}

type verdict =
  | Agree
  | Mismatch of ref_delta list  (** any disagreement: a bug *)
  | Inconclusive  (** the closed form refused the nest; nothing compared *)

type result = {
  verdict : verdict;
  points : int;     (** iteration points classified *)
  accesses : int;   (** total accesses compared *)
}

val check :
  ?mode:[ `Exact | `Closed_form ] ->
  Tiling_ir.Nest.t ->
  Tiling_cache.Config.t ->
  result
(** Runs both sides on the same nest and geometry and compares per-ref.
    [mode] selects the CME side: [`Exact] (default) classifies every point
    through {!Tiling_cme.Estimator.exact}; [`Closed_form] aggregates through
    {!Tiling_cme.Closed_form.estimate}, so a run differentially validates
    the extrapolating solver itself.  A closed-form refusal (affine nest,
    budget) is reported as [Inconclusive] — outside the regime, not a
    disagreement — and is the only way to get one. *)

val check_case : ?mode:[ `Exact | `Closed_form ] -> Case.t -> result
(** {!check} on a regenerated case. *)

val pp_result : result Fmt.t
(** Human-readable verdict with per-reference deltas on disagreement. *)
