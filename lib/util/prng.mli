(** Deterministic pseudo-random number generator.

    A small, fast, splittable SplitMix64 generator.  Every stochastic
    component of the library (genetic algorithm, iteration-space sampling,
    baseline searches) threads an explicit [t] so that whole experiments are
    reproducible from a single seed. *)

type t
(** Mutable generator state.  Its layout is private (the implementation
    keeps it unboxed, so a draw allocates nothing); the stream is not: the
    known-answer tests in test/test_prng.ml fix the outputs of [bits64],
    [int], [float] and [bernoulli] for two seeds, and after [copy] and
    [split], so seeded searches stay reproducible across releases. *)

val create : seed:int -> t
(** [create ~seed] builds a generator from a 64-bit seed. *)

val copy : t -> t
(** [copy g] is an independent generator with the same current state. *)

val split : t -> t
(** [split g] advances [g] and returns a new generator whose stream is
    decorrelated from [g]'s subsequent output. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int g n] is uniform in [\[0, n)].  [n] must be positive.  Uses rejection
    sampling, so the distribution is exactly uniform. *)

val int_in : t -> lo:int -> hi:int -> int
(** [int_in g ~lo ~hi] is uniform in the inclusive range [\[lo, hi\]]. *)

val float : t -> float
(** [float g] is uniform in [\[0, 1)] with 53 bits of precision. *)

val bool : t -> bool
(** Fair coin flip. *)

val bernoulli : t -> p:float -> bool
(** [bernoulli g ~p] is true with probability [p] (clamped to [\[0,1\]]). *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val sample_without_replacement : t -> n:int -> k:int -> int array
(** [sample_without_replacement g ~n ~k] draws [k] distinct indices from
    [\[0, n)], in no particular order.  Requires [0 <= k <= n].  Uses
    Floyd's algorithm, so it is efficient even when [n] is huge. *)
