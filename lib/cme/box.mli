(** Constant-shape integer boxes over a nest's loop variables.

    A box describes a set of iteration points as an affine lattice product:
    every point is [origin + sum_e inc_e * t_e] with [t_e in [0, count_e)],
    where each entry [e] increments one or more variables (a tile-control
    variable and its element variable move together, which is how the
    coupling [i in [ii, ii + T - 1]] is linearised).  Boxes are the convex
    regions of section 2.4: the path slicer emits one box per region.

    Evaluating an affine address function over a box yields a constant plus
    one generator (step, count) per entry — the exact input shape of the
    replacement-polyhedra engine. *)

type entry = {
  targets : (int * int) list;  (** (variable, per-step increment) pairs *)
  count : int;                 (** number of lattice steps, >= 1 *)
}

type t = {
  origin : int array;  (** value of every variable at [t = 0] *)
  entries : entry list;
}

val points : t -> int
(** Number of points ([product of counts]). *)

val point_at : t -> int array -> int array
(** [point_at box ts] materialises the point for entry coordinates [ts]
    (mostly for tests). *)

val iter_points : t -> (int array -> unit) -> unit
(** Enumerates all points (tests only; exponential). *)

val eval_form : Tiling_ir.Affine.t -> t -> int * (int * int) list
(** [eval_form f box] is [(const, generators)]: the image of [f] over the
    box is [{ const + sum (step_g * t_g) }] with independent
    [t_g in [0, count_g)].  Zero-step generators are dropped. *)

val value_range : int -> (int * int) list -> int * int
(** [value_range const gens] is the (min, max) of the image. *)

(** {2 Boxes without lists}

    The path walk ({!Path.walk_between}) builds one box at a time in a
    [cursor] and evaluates address functions over it into an [image]; both
    are scratch that a caller allocates once and reuses, so the walk
    allocates nothing per box. *)

type cursor = private {
  origin : int array;  (** written in place by the walk *)
  mutable len : int;  (** entries on the stack *)
  var1 : int array;
  inc1 : int array;  (** entry [e]'s first (variable, increment) target *)
  var2 : int array;
  inc2 : int array;  (** its second target; [var2.(e) < 0] if it has one *)
  counts : int array;  (** entry [e]'s count, >= 2 *)
}
(** The box [{ origin; entries }] whose entry [e < len] has the targets
    above and count [counts.(e)]. *)

val cursor : int -> cursor
(** An empty cursor for a nest of the given depth (a box has at most one
    entry per dimension). *)

val push : cursor -> v1:int -> i1:int -> v2:int -> i2:int -> count:int -> unit
(** Push an entry ([v2 = -1] for a single target). *)

val pop : cursor -> unit
val clear : cursor -> unit

val freeze : cursor -> t
(** An immutable copy of the current box. *)

type image = private {
  mutable const : int;
  mutable len : int;  (** generators in [steps]/[counts] *)
  steps : int array;
  counts : int array;
}
(** The image [const + sum (steps.(g) * t_g)], [t_g in [0, counts.(g))],
    of an address function over a box. *)

val image : int -> image
(** An empty image for a nest of the given depth. *)

val eval_into : image -> Tiling_ir.Affine.t -> cursor -> unit
(** [eval_into img f c] stores {!eval_form}[ f (freeze c)] in [img]: same
    constant, same generators in the same (entry) order. *)

val pp : t Fmt.t
