(** Decomposition of reuse paths into constant-shape boxes.

    Given a source and a destination iteration point, the points that
    execute strictly between them are covered by disjoint {!Box.t} values.
    The decomposition is the classic prefix splitting of a lexicographic
    interval (at most [2*depth - 1] slices); on tiled nests each slice
    additionally splits per tiled dimension into full-tile and partial-tile
    variants — these are exactly the multiple convex regions of section 2.4
    of the paper — and dimensions that affine bounds depend on split into
    one variant per value.

    There is one decomposition, a depth-first walk over a per-nest {!plan}.
    It builds each box in the plan's {!Box.cursor}, rewriting the origin
    and pushing and popping entries in place, and offers it to a callback:
    the walk allocates nothing per box.  The forward walk visits the boxes
    in execution order of their slices; the reverse walk visits every
    fork's children last first and so yields exactly the reverse sequence.
    The callback stops a walk early by answering [false].  The list
    functions {!between} and {!full_space} collect a forward walk. *)

type plan
(** What the walk needs of a nest, computed once (which dimensions affine
    bounds depend on, each control dimension's element and whether the
    pair takes the full/partial-tile fork), and the walk's scratch.  A plan
    serves one walk at a time. *)

val plan : Tiling_ir.Nest.t -> plan

val walk_between :
  plan ->
  src:int array ->
  dst:int array ->
  rev:bool ->
  ('a -> Box.cursor -> bool) ->
  'a ->
  bool
(** [walk_between p ~src ~dst ~rev f x] offers [f x] each box of the
    points [q] with [src < q < dst], forward or, with [rev], in reverse.
    [f] reads the box in the cursor, which is valid only during the call
    and must not be modified, and answers whether to go on; passing its
    state as [x] lets a top-level [f] run without a closure.  The result is
    [false] iff [f] stopped the walk.  Requires [src <= dst]; both must be
    valid iteration points. *)

val walk_bounded_dim :
  plan ->
  prefix:int array ->
  level:int ->
  iv_lo:int ->
  iv_hi:int ->
  rev:bool ->
  ('a -> Box.cursor -> bool) ->
  'a ->
  bool
(** The walk over the points whose dims [< level] equal [prefix]'s, whose
    dim [level] lies in [\[iv_lo, iv_hi\]], and whose deeper dims range
    freely; as {!walk_between} otherwise.  [iv_lo] must lie on the dim's
    lattice under that prefix; an empty interval has no boxes.  The points
    between two points are a union of such sets; the reuse-source search
    asks exact questions over them. *)

val between : Tiling_ir.Nest.t -> src:int array -> dst:int array -> Box.t list
(** The boxes of {!walk_between}, forward.  Returns disjoint non-empty
    boxes. *)

val full_space : Tiling_ir.Nest.t -> Box.t list
(** The whole iteration space as boxes (one per convex region). *)
