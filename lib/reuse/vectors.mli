(** Reuse vectors (Wolf & Lam) for references of a (possibly tiled) nest.

    A reuse vector [delta] says that the data accessed by a reference at
    iteration point [p] was potentially accessed before at point
    [p - delta] — by the same reference (self reuse) or by a [leader]
    reference (group reuse).  [spatial = false] means the source touches the
    same array element (temporal); [spatial = true] means it merely lands on
    the same memory line with high probability, which holds only at some
    points.

    Vectors are expressed as deltas of loop-variable values, so the source
    point is literally [p - delta]; a delta is valid only when the source
    access precedes the destination access in program order
    (lexicographically positive, or zero with an earlier-in-body leader).

    For tiled nests the generator also emits cross-tile vectors
    [T * (e_ctrl + e_elem)], which carry reuse from the same relative
    position in the previous tile — these are what make the CMEs "see"
    the locality that tiling creates. *)

type t = {
  delta : int array;  (** source point = destination point - delta *)
  spatial : bool;     (** same line (to be confirmed per point) vs same element *)
  leader : int option; (** [Some id]: group reuse from reference [id] *)
}

val of_reference : Tiling_ir.Nest.t -> line:int -> Tiling_ir.Nest.reference -> t list
(** Candidate reuse vectors for one reference, ordered by increasing reuse
    distance (innermost, shortest vectors first).  [line] is the cache line
    size in bytes, used to decide which strides can yield spatial reuse. *)

val of_nest : Tiling_ir.Nest.t -> line:int -> t list array
(** [of_reference] for every reference, indexed by [ref_id]. *)

val pp : names:string array -> t Fmt.t
