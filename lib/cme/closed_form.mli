(** Closed-form aggregation of the Cache Miss Equations.

    Where {!Estimator.exact} classifies every iteration point and
    {!Estimator.sample} classifies a small random sample, this solver
    aggregates whole-space replacement counts analytically.  The iteration
    space is sliced into the path slicer's convex boxes ({!Path.full_space});
    inside a box every reference's address is affine in the box's lattice
    coordinates, so along the innermost entry the per-point outcome vector is
    eventually periodic with period dividing

      [pi = lcm over refs of M / gcd(step_r, M)],   [M = sets * line]

    (shifting the counter by [pi] moves every address by a multiple of the
    cache modulus, leaving every interference residue — and hence every
    replacement answer — unchanged).  For a line-aligned step
    [s = k * line] the per-reference factor collapses into *set space*:
    [M / gcd(s, M) = sets / gcd(k, sets)] — at most [sets], the line-offset
    component divides out.

    The estimate is a census: exact or refused, never approximate.  When
    [pi] is small enough for boundary windows of [2*pi] points to be
    affordable, each row classifies a prefix and a suffix window and
    extrapolates the middle per reference from the smallest period the
    verified [2*pi] span supports (a span of [pi + p] points of observed
    p-periodicity pins the whole pi-periodic middle, so the extrapolation
    is sound); references whose observed period defeats the ladder are
    classified exhaustively on their own, without dragging the other
    references along.  When [pi] exceeds the cap the row is classified
    exhaustively, so the census is always equal to {!Estimator.exact}.
    Rows whose reference addresses agree modulo [M] and whose outer
    counters sit at the same period-capped boundary distances share one
    classification through a per-box memo; with [domains > 1] the
    outermost entry is additionally chunked over the process pool
    ({!Tiling_util.Pool}), each chunk classifying through its own engine
    and memo shard — counts are merged as integer sums in chunk order, so
    the parallel census is byte-identical to the sequential one.

    Set-associative caches need no special casing here: periodicity is a
    property of the address lattice, not of the eviction rule, so the same
    argument covers the engine's k-way distinct-line counting (the
    wrap-variable lattice of {!Symbolic.distinct_interfering_lines}).

    The solver refuses (rather than degrades) when its premises fail:
    [`Affine] for nests with affine-coupled loop bounds (row shape varies
    pointwise, the box decomposition pins dimensions and the row lattice
    argument no longer amortises), and [`Budget] when the classification
    work cannot fit the budget.  Both budget guards fire {e upfront},
    before any classification: one on the raw row count, checked before
    reuse analysis and box planning, one on a lower bound of the
    classification cost (distinct residue rows times their minimal window
    cost), so hopeless geometries refuse in microseconds instead of
    grinding to the same answer.  The oracle and the fuzzer compare the
    census against the simulator; the [symbolic] search backend gives it
    the budget of the embedded sample and answers a refusal with that
    sample. *)

type reason = [ `Affine | `Budget ]

val pp_reason : reason Fmt.t

val entry_reach : Tiling_reuse.Vectors.t list array -> Box.entry -> int
(** How far (in counters of the given box entry) a reuse source can sit
    from its destination: bounds the boundary zone a row window must
    absorb before the periodic regime starts.  Exposed for tests pinning
    the reach values the window sizing depends on. *)

val estimate :
  ?budget:int -> ?domains:int -> Engine.t -> (Estimator.report, reason) result
(** Whole-space census of the nest: the totals are identical to
    {!Estimator.exact}.  [budget] caps the number of (point, reference)
    classifications spent (default 2e6) and exceeding it — decided upfront
    where possible — returns [Error `Budget].  [domains > 1] parallelises
    row walks over the process pool without changing any count. *)
