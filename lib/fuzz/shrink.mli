(** Delta-debugging minimizer for oracle mismatches.

    Greedy descent over spec and geometry reductions: drop references and
    arrays, shrink extents, offsets, coefficients and steps toward
    {!Tiling_kernels.Random_kernel.default_spec}'s trivial values, and
    halve the cache geometry.  A reduction is kept iff the reduced case
    still produces an {!Oracle.Mismatch} — any mismatch, not
    necessarily the original one: every fixpoint is a minimal failing
    input, which is what a bug report needs.

    Kernel regeneration is seed-driven, so a spec reduction yields a
    *different* (smaller) kernel; this is the standard trade-off of
    shrinking through a generator and is why the corpus stores the seed
    and the full spec. *)

val minimize :
  ?max_checks:int ->
  ?mode:[ `Exact | `Closed_form ] ->
  Case.t ->
  Case.t * int
(** [minimize case] is [(smallest, checks)] where [checks] counts the
    oracle runs spent (also accumulated in the [fuzz.shrink.steps]
    metric).  [case] itself need not mismatch; then it is returned
    unchanged with [checks = 0].  Default [max_checks] is 400.  [mode] is
    the oracle mode reductions are re-checked under (default [`Exact]). *)
