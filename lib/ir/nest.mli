(** Perfectly nested affine loop nests.

    A nest is an ordered sequence of loops (outermost first) and a body that
    is a straight-line sequence of array references executed once per
    iteration point, in program order.  Loop bounds come in the shapes the
    paper's framework needs:

    - [Range]: constant bounds with a positive step (original loops);
    - [Range_affine]: bounds that are affine functions of strictly outer
      loop variables (triangular/trapezoidal loops such as LU or Cholesky);
    - [Tile_ctrl]: a tile-controlling loop stepping by the tile size;
    - [Tile_elem]: the matching element loop
      [do i = ii, min (ii + tile - 1, hi)];
    - [Tile_elem_affine]: the element loop of a tiled affine loop,
      [do i = max (ii, lo(outer)), min (ii + tile - 1, hi(outer))].

    Iteration points are integer vectors holding the value of every loop
    variable, outermost first; execution order is exactly lexicographic
    order on these vectors because all steps are positive.  Affine bounds
    may reference only strictly outer, non-control loops, so triangular
    legality is a per-loop property checked by {!make}. *)

type shape =
  | Range of { lo : int; hi : int; step : int }
  | Range_affine of { lo : Affine.t; hi : Affine.t; step : int }
      (** Bounds evaluated at the current outer-loop values.  The dynamic
          range may be empty for some outer values (the loop body is then
          skipped), but {!make} rejects nests that are empty everywhere. *)
  | Tile_ctrl of { lo : int; hi : int; tile : int }
  | Tile_elem of { ctrl : int; tile : int; hi : int }
      (** [ctrl] is the index of the matching [Tile_ctrl] loop. *)
  | Tile_elem_affine of { ctrl : int; tile : int; lo : Affine.t; hi : Affine.t }
      (** Element loop of a tiled affine range: iterates the intersection of
          the control window [ [ii, ii + tile - 1] ] with the dynamic range
          [ [lo(outer), hi(outer)] ].  The control loop spans the static
          bounding interval of the affine range, so the windows cover every
          dynamic range; empty intersections are simply skipped. *)

type loop = { var : string; shape : shape }

type access = Read | Write

type reference = {
  ref_id : int;  (** position in the body; program order within an iteration *)
  array : Array_decl.t;
  idx : Affine.t array;  (** 0-based subscript per array dimension *)
  access : access;
}

type t = private {
  name : string;
  loops : loop array;
  refs : reference array;
  arrays : Array_decl.t list;
}

val make :
  name:string ->
  loops:loop array ->
  refs:(Array_decl.t * Affine.t array * access) array ->
  arrays:Array_decl.t list ->
  t
(** Validates shapes (constant bounds non-empty, affine bounds referencing
    only strictly outer non-control loops and leaving at least one iteration
    point, [Tile_elem.ctrl] well-formed and covering, subscript depth/rank
    agreement) and numbers the references. *)

val depth : t -> int
val var_names : t -> string array

val has_affine : t -> bool
(** Whether any loop has affine ([Range_affine]/[Tile_elem_affine]) bounds.
    Rectangular nests take fast paths that are byte-identical to the
    pre-affine implementation. *)

val static_bounds : t -> int array * int array
(** Per-dimension constant bounding interval [(lo, hi)] of the loop values.
    Exact for rectangular nests; for affine bounds it is the interval hull
    (computed outermost-first), so it over-approximates triangular spaces. *)

val affine_deps : t -> bool array
(** [affine_deps t] marks the dimensions that some affine bound depends on.
    Region decomposition must enumerate these dimensions pointwise because
    their values pin the bounds of deeper loops. *)

val clone : t -> t
(** A structurally identical nest whose array declarations are independent
    copies: layout/base mutations (padding) on the clone never touch the
    original, so clones can be transformed and analysed concurrently. *)

val bounds_at : t -> int array -> int -> int * int * int
(** [bounds_at nest point l] is [(lo, hi, step)] of loop [l] when the outer
    loops take the values in [point] (entries at positions >= l are
    ignored). *)

val lo_at : t -> int array -> int -> int
val hi_at : t -> int array -> int -> int
val step_of : t -> int -> int
(** The three components of {!bounds_at}, for loops that must not allocate
    a tuple per call. *)

val mem_point : t -> int array -> bool
(** Whether the vector is an iteration point of the nest (each coordinate
    within bounds and on-step). *)

val lex_compare : int array -> int array -> int
(** Lexicographic (= execution) order on points. *)

val trip_count : t -> int
(** Total number of iteration points.  Tiled loop pairs contribute the span
    of the original loop, by construction of {!Transform.tile}.  Dimensions
    that affine bounds depend on are summed pointwise, so the count is exact
    for triangular/trapezoidal nests as well. *)

val iter_points : t -> (int array -> unit) -> unit
(** Enumerates all iteration points in execution order.  The same array is
    reused between callbacks; copy it if you keep it. *)

val random_point : t -> Tiling_util.Prng.t -> int array
(** A uniformly distributed iteration point.  Uniformity over tiled pairs is
    obtained by sampling the original loop value and deriving the tile
    coordinate.  Affine nests are sampled by rejection from the static
    bounding box (uniformity is preserved; rectangular nests keep the exact
    historical draw stream). *)

val random_point_into : t -> Tiling_util.Prng.t -> int array -> unit
(** [random_point_into t rng point] is {!random_point} written into the
    caller-provided buffer [point] (length {!depth}), drawing exactly the
    same values from [rng]: sampling loops reuse one scratch buffer
    instead of allocating a fresh array per point.
    @raise Invalid_argument on a length mismatch. *)

val address_form : t -> reference -> Affine.t
(** Flattened byte-address function of a reference under the *current*
    layout and base of its array: an affine form over the nest's loop
    variables.  Recompute after padding changes. *)

val touched_bytes : t -> int
(** Total allocated bytes of all arrays (footprint of the data set). *)

val pp : t Fmt.t
(** Fortran-flavoured pretty printer (for docs, examples and debugging). *)
