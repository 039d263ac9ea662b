(** Cache geometry.

    The paper evaluates direct-mapped 8 KB and 32 KB caches with 32-byte
    lines; the model here also supports k-way set-associative LRU caches
    (CMEs handle those by counting k distinct contentions, section 2.2). *)

type t = private {
  size : int;   (** total capacity in bytes (power of two) *)
  line : int;   (** line size in bytes (power of two) *)
  assoc : int;  (** associativity; 1 = direct-mapped *)
  sets : int;   (** derived: [size / (line * assoc)] *)
}

val make : size:int -> line:int -> ?assoc:int -> unit -> t
(** @raise Invalid_argument unless [line] and [size] are powers of two,
    [line <= size], [assoc >= 1] and [assoc * line] divides [size].  So
    [assoc], [line], [sets] and [sets * line] are powers of two in every
    [t] (the type is private, so [make] builds them all): the CME point
    solver divides by them with shifts and masks. *)

val dm1k : t
(** 1 KB direct-mapped, 32-byte lines — a small-modulus configuration
    ([sets * line = 1024]) whose outcome periods are short enough for the
    closed-form census to validate cheaply; used by benches and CI
    smokes. *)

val dm8k : t
(** 8 KB direct-mapped, 32-byte lines — the paper's primary configuration. *)

val dm32k : t
(** 32 KB direct-mapped, 32-byte lines — the paper's second configuration. *)

val line_of : t -> int -> int
(** Memory-line number of a byte address. *)

val set_of : t -> int -> int
(** Cache set of a byte address. *)

val set_of_line : t -> int -> int

val pp : t Fmt.t
