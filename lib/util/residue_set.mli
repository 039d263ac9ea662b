(** Sets of residues modulo [m], implemented as bit vectors.

    The fast replacement-equation solver reduces the question "does some
    access of reference B on a reuse path fall into cache set [s]?" to
    computing the image of an affine function over an integer box, modulo the
    cache size [C], and probing a window of that image.  This module provides
    the modular value sets and the sumset operations that build such images:
    the image of [c0 + sum_q c_q * t_q] (with [t_q] in [\[0, n_q)]) modulo [m]
    is [singleton m c0] combined with [sum_progression] once per variable.

    Complexity notes: {!rotate} costs [O(m/62)] word operations for every
    modulus (62 residues per word; each destination word gathers from at
    most two source words), so a sumset with a progression of [count] terms
    costs [O((m/62) * log count)] word operations thanks to a doubling
    scheme, and progressions at least as long as their cyclic period
    collapse to a subgroup smear.  The CME engine builds these images only
    for path images that are not dense lattices; it answers dense ones in
    closed form. *)

type t

val modulus : t -> int
val create : int -> t
(** [create m] is the empty set of residues modulo [m > 0]. *)

val full : int -> t
(** [full m] contains every residue in [\[0, m)]. *)

val singleton : int -> int -> t
(** [singleton m r] contains exactly [r mod m] (any [r], including
    negatives). *)

val copy : t -> t
val mem : t -> int -> bool
(** [mem t r] tests membership of [r mod m]. *)

val add : t -> int -> unit
(** [add t r] inserts [r mod m] in place. *)

val cardinal : t -> int
val is_empty : t -> bool
val is_full : t -> bool
val equal : t -> t -> bool

val union_into : dst:t -> t -> unit
(** [union_into ~dst src] adds every element of [src] to [dst].  Moduli must
    agree. *)

val inter : t -> t -> t
(** Intersection (same modulus). *)

val rotate : t -> int -> t
(** [rotate t k] is [{ (r + k) mod m : r in t }]. *)

val sum_progression : t -> step:int -> count:int -> t
(** [sum_progression t ~step ~count] is the modular sumset
    [{ r + i * step mod m : r in t, 0 <= i < count }].  [count] must be
    positive.  When [count] reaches the period [m / gcd (step mod m) m], the
    progression is a full coset of the subgroup generated by [step] and the
    result is closed under adding [gcd step m]. *)

val hits_window : t -> lo:int -> len:int -> bool
(** [hits_window t ~lo ~len] tests whether any residue in the half-open,
    possibly wrapping window [\[lo, lo+len) mod m] belongs to [t].
    [len >= m] always hits a non-empty set. *)

val count_window : t -> lo:int -> len:int -> int
(** Number of members inside the wrapping window. *)

val iter : (int -> unit) -> t -> unit
(** Iterate members in increasing residue order. *)

val elements : t -> int list
(** Members in increasing order (for tests; linear in [m]). *)
