(** The fast CME point solver (sections 2.2–2.4 of the paper).

    [classify] decides, for one iteration point and one reference, whether
    the access hits or misses, and classifies the miss:

    - each *reuse source* is an earlier access to the destination's memory
      line; the *compulsory equations* correspond to there being none;
    - the *replacement equations* of a source correspond to some access
      between source and destination mapping to the same cache set with a
      different memory line; in a k-way cache, [k] distinct such lines are
      needed (§2.2).

    The access is a miss iff it solves the replacement equations of every
    source, and a compulsory miss iff it has no source at all.  The path
    from the latest source lies inside the path from every earlier one, so
    the latest source decides alone: the access hits iff fewer than
    [assoc] distinct lines interfere on its path.

    That source is the latest earlier reference at the point itself on the
    line, if any, and otherwise the answer of one exact search over the
    earlier iteration points, the same for every nest shape.  The search
    takes the points before the destination slice by slice, latest first,
    and descends each slice outermost dim first along the highest values
    whose address hull still reaches the line.  A dead end is answered by
    an exact query — does any reference's image over the rest of the dim's
    range meet the line? — and bisection on the answer.  A slice with no
    access to the line is dismissed by its hulls or its queries, so a
    compulsory miss is proved in closed form; the search has no budget and
    no fallback.

    The path from the source is never built.  {!Path.walk_between} walks
    its boxes last first; each reference's image over the current box is
    evaluated into the engine's scratch and counted at once, and the walk
    stops as soon as [assoc] distinct lines interfere.  The search's exact
    queries walk their boxes forward and stop at the first box and
    reference that meets the line.  Neither builds a list, and the rest of
    the per-access work runs in the engine's scratch: classifying an
    access allocates only when a residue signature misses the engine's
    memo (the key's copy and, on a shared-cache miss, the residue image).
    On [test_engine]'s 164-point samples with the shared cache emptied
    first, that is 19, 0.01, 0.01 and 0.02 words per classification
    (tiled MM 24, SOR 32, LU 16, T2D 64: 9, 0, 0 and 0 misses of about
    1 000 to 1 500 words each), and a second pass over the same sample
    allocates under 0.01.

    The engine assumes the geometry {!Tiling_cache.Config.make} enforces:
    the line size, the set count and their product [sets * line] are
    powers of two.  {!create} takes their logarithms once, and every
    division or remainder by them on the per-access path is a shift or a
    mask; there is no other arithmetic path.

    Ranges come first.  Before it walks a path, the count tests each
    reference's address hull over the whole path against the cache set's
    windows, [sets * line] bytes apart: the terms over the dims above the
    first dim where source and destination differ are fixed at the
    source, that dim ranges between the two, and the deeper dims range
    over their static bounds, read from per-engine suffix tables ([depth +
    1] entries per reference, built by {!create}).  A reference whose
    hull meets no window but the reused line's own is left out of the
    walk, and the path is not walked at all when every reference is.
    Within the walk, each box image's value range, taken from its
    generators in entry order, is tested the same way before the
    generator sort, the denseness test and the residue prefilter; the
    source search's queries likewise test an image's range against the
    line before sorting its generators.  A hull or range that holds no
    address in another window of the set holds no interfering line, and
    one that misses the line holds no access to it, so a skipped image or
    walk can neither add a window nor meet the line: every answer is the
    one the exact machinery gives.  At 32 KB the hulls alone settle every
    count of one-domain MM 32, SOR 48 and LU 24 searches, which build no
    residue image.

    Replacement queries are answered analytically: the image of a
    reference's address function over a path box is a constant plus a
    small set of generators (steps and counts).  When the image is dense —
    exactly the lattice [c + g*Z] over its value range — the windows of the
    destination's cache set that it meets follow in closed form: with [g]
    at most the line size every window inside the range holds a point, and
    with a larger [g] the points that land in the set's windows form a few
    residue classes found with one modular inverse ({!lattice_windows}).
    Other images have their residues modulo [sets * line] computed once per
    generator signature (memoised), probed against the set's window, and
    their distinct interfering lines identified by exact interval queries.

    The count is exact and has no budget.  A non-dense image over
    [\[min, max\]] is walked window by window, at most [(max - min) /
    (sets * line) + 2] windows, stopping once [assoc] distinct lines are
    found.  Each window's interval query branches on the largest remaining
    generator, keeps only the translates whose remaining span can still
    reach the window, and stops at a dense sub-image (a single generator
    always is one).  With [n] generators whose counts are [c_1, ..., c_n]
    in decreasing order of step magnitude, a query therefore visits at
    most [n * c_1 * ... * c_(n-1)] nodes of [O(n)] work each.  The pruning
    keeps far below that in practice: the one-domain [tiler tile T3DJIK -n
    200] search at 32 KB peaks at 617 windows walked in one segment and
    1 185 query nodes in one classification's count. *)

type outcome = Hit | Compulsory_miss | Replacement_miss

type t
(** An engine keeps its per-query scratch — the path walk's plan and box,
    one reference's image and its generator orders, the interfering
    windows found, the search's candidate point — and an unlocked residue
    memo, so it serves one domain at a time.  Callers build one engine per
    candidate, per fuzz case or per census chunk. *)

val create : Tiling_ir.Nest.t -> Tiling_cache.Config.t -> t
(** Builds the solver context: address forms, static loop bounds and the
    path hulls' suffix tables, the cache geometry's logarithms, the path
    plan, memo tables and scratch. *)

val nest : t -> Tiling_ir.Nest.t
val cache : t -> Tiling_cache.Config.t

val classify : t -> int array -> int -> outcome
(** [classify t point ref_id] decides the outcome of reference [ref_id] at
    [point]: [Compulsory_miss] if no earlier access touched its line, [Hit]
    if the path from the latest one is interference-free, and
    [Replacement_miss] otherwise.  [point] must be an iteration point of the
    nest. *)

val reuse_sources : t -> int array -> int -> (int array * int) list
(** [reuse_sources t point ref_id] lists, as (point, reference) pairs, the
    latest same-line access by an earlier reference at [point] and then the
    latest same-line access at an earlier iteration point, each if it
    exists.  The first listed is the reuse source {!classify} tests; when
    there are two, the second's path contains the first's.  Empty means
    the access is a compulsory miss.  Exposed for the symbolic solver and
    for tests. *)

val lattice_windows :
  base:int ->
  modulus:int ->
  line:int ->
  mn:int ->
  mx:int ->
  g:int ->
  m0:int ->
  (int -> bool) ->
  unit
(** The interference walk over a sparse path image, exposed for tests.
    The image is the lattice [{mn + g*j : 0 <= j <= (mx - mn) / g}] with
    [g > line], and window [m] is [\[base + m*modulus, base + m*modulus +
    line)], with [modulus] a power of two.  [lattice_windows ... take]
    offers [take], in increasing order, every window index other than
    [m0] whose window holds a lattice point, and stops as soon as [take]
    answers [false].  Since [g > line], a
    window holds at most one point; the walk jumps from one such point to
    the next in closed form ({!Tiling_util.Intmath.next_lattice_hit}) and
    never visits an empty window. *)

val path_hull : t -> src:int array -> dst:int array -> int -> int * int
(** [path_hull t ~src ~dst b] is the address interval [(lo, hi)] the
    interference count takes as reference [b]'s hull over the path from
    [src] to [dst]: [b]'s terms over the dims above their first differing
    dim [m] fixed at [src], dim [m] between [src.(m)] and [dst.(m)], and
    the deeper dims over their static bounds, read from the engine's
    suffix tables.  Every access of [b] at a point [q] with [src < q <
    dst] lies in it.  Requires [src < dst]; exposed for tests. *)

val memo_size : t -> int
(** Number of distinct residue images in this engine's private table
    (ablation metric). *)

(** {2 Cross-engine residue cache}

    Residue images are built only for path images that are not dense
    lattices.  Canonical generator signatures recur across the hundreds of
    engines a GA run creates (the modulus is fixed by the cache
    configuration and nearby tile vectors share generators), so residue
    images are also cached in a process-wide, sharded, mutex-protected
    table keyed by [(modulus, canonical generators)].  Each engine's private table acts
    as an L1 in front of it.  The shared cache is bounded and evicts in
    FIFO insertion order; eviction only ever costs a recompute, never
    correctness.  Hits, misses and evictions are counted in the
    [cme.residues.shared.{hit,miss,evictions}] metrics. *)

val set_shared_residue_capacity : int -> unit
(** Bound the shared cache to roughly [n] entries (rounded up to at least
    one entry per shard; default 4096), evicting immediately if the new
    bound is tighter.  @raise Invalid_argument if [n < 0]. *)

val clear_shared_residues : unit -> unit
(** Empty the shared cache (benchmarks use this to measure cold-cache
    evaluation; engines remain valid, their private tables untouched). *)

val shared_residue_size : unit -> int
(** Number of residue images currently in the shared cache. *)
