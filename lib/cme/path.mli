(** Decomposition of reuse paths into constant-shape boxes.

    Given a source and a destination iteration point, [between] covers every
    iteration point that executes strictly between them with disjoint
    {!Box.t} values.  The decomposition is the classic prefix splitting of a
    lexicographic interval (at most [2*depth - 1] slices); on tiled nests
    each slice additionally splits per tiled dimension into full-tile and
    partial-tile variants — these are exactly the multiple convex regions of
    section 2.4 of the paper. *)

val between : Tiling_ir.Nest.t -> src:int array -> dst:int array -> Box.t list
(** Points [p] with [src < p < dst] in execution (lexicographic) order.
    Requires [src <= dst]; both must be valid iteration points.  Returns
    disjoint non-empty boxes. *)

val boxes_with_bounded_dim :
  Tiling_ir.Nest.t ->
  prefix:int array ->
  level:int ->
  iv_lo:int ->
  iv_hi:int ->
  Box.t list
(** [boxes_with_bounded_dim nest ~prefix ~level ~iv_lo ~iv_hi] covers, with
    disjoint boxes, the iteration points whose dims [< level] equal
    [prefix]'s, whose dim [level] lies in [\[iv_lo, iv_hi\]], and whose
    deeper dims range freely.  [iv_lo] must lie on the dim's lattice under
    that prefix; an empty interval gives no boxes.  {!between} is a union
    of such sets; the reuse-source search asks exact questions over
    them. *)

val full_space : Tiling_ir.Nest.t -> Box.t list
(** The whole iteration space as boxes (one per convex region). *)
