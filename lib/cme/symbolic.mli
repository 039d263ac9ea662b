(** Cache Miss Equations materialised as integer polyhedra.

    This is the paper's section 2.1/2.2 taken literally: for a reference
    [R_A], a reuse vector [r] and a destination iteration point, the

    - *compulsory equation* holds when the source [p - r] falls outside the
      iteration space (no earlier access to reuse from), and the
    - *replacement equations*, one per interfering reference [R_B] and per
      convex region of the reuse path, are diophantine systems over the
      path's iteration variables plus one auxiliary "cache wrap" variable
      [w]: [Addr_B(j) = set(A) * L + w * (S * L) + t], [0 <= t < L],
      excluding [R_A]'s own memory line.

    Deciding a miss means deciding whether any such polyhedron has an
    integer solution ("the resulting polyhedron is non-empty", section
    2.2); this module does exactly that with the general Fourier–Motzkin /
    enumeration machinery of {!Tiling_polyhedra.Polyhedron}.  It is
    exponential and only usable on small kernels — which is the paper's
    motivation for the fast solver ({!Engine}); the test suite checks that
    both agree point by point.

    Set-associative caches go through the associativity lattice: the wrap
    variable [w] of each integer solution names the interfering memory
    line [set + w * sets], so the distinct [w] values across an edge's
    polyhedra are exactly the lattice collisions in the destination's set,
    and a k-way LRU cache evicts the reused line iff at least [k] of them
    occur ({!distinct_interfering_lines}).  [assoc = 1] degenerates to the
    paper's direct-mapped emptiness test. *)

type outcome = Hit | Compulsory_miss | Replacement_miss

val classify :
  Tiling_ir.Nest.t ->
  Tiling_cache.Config.t ->
  int array ->
  int ->
  outcome
(** [classify nest cache point ref_id] decides the access outcome by
    building and solving the equations: the access hits iff some reuse
    source's edge has fewer than [cache.assoc] distinct interfering lines.
    Takes its reuse sources from {!Engine.reuse_sources}, so
    discrepancies with the engine isolate the replacement-query
    machinery. *)

val distinct_interfering_lines :
  ?cap:int ->
  Tiling_ir.Nest.t ->
  Tiling_cache.Config.t ->
  src:int array ->
  src_ref:int ->
  dst:int array ->
  dst_ref:int ->
  int
(** Distinct interfering memory lines on one reuse edge, counted as the
    distinct wrap values across the edge's replacement polyhedra (the
    associativity-lattice construction).  Counting stops at [cap]
    (default unbounded); callers deciding a k-way miss pass [~cap:assoc].
    The destination's own line never counts. *)

val replacement_polyhedra :
  Tiling_ir.Nest.t ->
  Tiling_cache.Config.t ->
  src:int array ->
  src_ref:int ->
  dst:int array ->
  dst_ref:int ->
  Tiling_polyhedra.Polyhedron.t list
(** The replacement-equation polyhedra for one reuse edge: one polyhedron
    per (interfering reference, path box, above/below-line half), each over
    [box entry coordinates + 1] variables (the last is the wrap variable).
    The edge misses iff any of them has an integer point. *)

val count_interference_points :
  Tiling_ir.Nest.t ->
  Tiling_cache.Config.t ->
  src:int array ->
  src_ref:int ->
  dst:int array ->
  dst_ref:int ->
  int
(** Total integer points of {!replacement_polyhedra} — the quantity whose
    counting cost the paper's section 2.2 analyses.  Small kernels only. *)
