(** Exact integer arithmetic helpers used throughout the CME solver.

    All functions operate on native [int]s.  Addresses and iteration counts in
    this code base stay well below [max_int] on 64-bit platforms; functions
    that could overflow document their preconditions. *)

val gcd : int -> int -> int
(** [gcd a b] is the non-negative greatest common divisor.  [gcd 0 0 = 0]. *)

val lcm : int -> int -> int
(** [lcm a b] is the non-negative least common multiple.  [lcm 0 _ = 0]. *)

val egcd : int -> int -> int * int * int
(** [egcd a b] is [(g, x, y)] with [a*x + b*y = g] and [g = gcd a b] >= 0. *)

val floor_div : int -> int -> int
(** [floor_div a b] rounds the quotient towards negative infinity.
    [b] must be non-zero.  One division, inlined at the call site; for
    [b = 2^k] it equals [a asr k]. *)

val ceil_div : int -> int -> int
(** [ceil_div a b] rounds the quotient towards positive infinity.
    [b] must be non-zero.  One division, inlined. *)

val pos_mod : int -> int -> int
(** [pos_mod a m] is the representative of [a] modulo [m] in [\[0, m)].
    [m] must be positive.  One division, inlined; for [m = 2^k] it equals
    [a land (m - 1)]. *)

val is_pow2 : int -> bool
(** [is_pow2 n] is true iff [n] is a positive power of two. *)

val log2_pow2 : int -> int
(** [log2_pow2 n] is the [k] with [n = 2^k], for [0 <= k <= 61]: one
    multiplication and a table lookup, no division.  [n] must be a power
    of two. *)

val ceil_log2 : int -> int
(** [ceil_log2 n] is the smallest [k] with [2^k >= n].  [n] must be >= 1. *)

val pow : int -> int -> int
(** [pow b e] is [b^e] for [e >= 0], by repeated squaring.  No overflow
    checking. *)

val clamp : lo:int -> hi:int -> int -> int
(** [clamp ~lo ~hi x] limits [x] to the inclusive range [\[lo, hi\]].
    Requires [lo <= hi]. *)

val range_count : lo:int -> hi:int -> step:int -> int
(** [range_count ~lo ~hi ~step] is the number of points of the arithmetic
    progression [lo, lo+step, ...] that are <= [hi].  [step] must be
    positive; the count is 0 when [hi < lo]. *)

val multiples_in : lo:int -> hi:int -> int -> int
(** [multiples_in ~lo ~hi m] counts the multiples of [m > 0] inside the
    inclusive interval [\[lo, hi\]] (0 when the interval is empty). *)

val lattice_inverse : g:int -> m:int -> int
(** [lattice_inverse ~g ~m] is the [u] in [\[0, m)] with
    [g*u = gcd g m (mod m)]: one extended Euclid run, without allocating.
    [g] and [m] must be positive. *)

val next_lattice_hit : a:int -> g:int -> m:int -> u:int -> len:int -> int -> int
(** [next_lattice_hit ~a ~g ~m ~u ~len j0], with [u = lattice_inverse ~g
    ~m], is [next_window_hit ~a ~g ~m ~len j0] without the option: the
    least [j >= j0] with [(a + g*j) mod m < len], or [max_int] when no [j]
    qualifies.  It allocates nothing and runs no Euclid, so a walk from
    hit to hit computes [u] once. *)

val next_window_hit : a:int -> g:int -> m:int -> len:int -> int -> int option
(** [next_window_hit ~a ~g ~m ~len j0] is the least [j >= j0] with
    [(a + g*j) mod m < len], or [None] when no [j] qualifies.  With
    [h = gcd g m] and [r = a mod h], the qualifying [j] form
    [floor ((len - 1 - r) / h) + 1] residue classes modulo [m / h]; one
    modular inverse finds them, so the cost is [O(log m + len / h)]
    whatever the distance to the answer.  [g] and [m] must be positive. *)

val array_equal : int array -> int array -> bool
(** [array_equal a b] is [a = b] on [int] arrays, by an integer loop
    rather than the polymorphic comparison. *)

val crt : (int * int) -> (int * int) -> (int * int) option
(** [crt (a, m) (b, n)] solves [x = a (mod m)], [x = b (mod n)] by the
    Chinese remainder theorem for possibly non-coprime moduli.  Returns
    [Some (c, lcm m n)] such that solutions are exactly [c (mod lcm m n)],
    or [None] when the system is infeasible.  [m, n] must be positive. *)
