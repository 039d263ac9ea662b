(* The SplitMix64 state lives in 8 bytes, read and written with the
   unboxed 64-bit primitives: a mutable [int64] field would be boxed, so
   every draw would allocate a fresh state. *)
type t = Bytes.t

external get_state : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set_state : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let of_state s =
  let g = Bytes.create 8 in
  set_state g 0 s;
  g

let create ~seed = of_state (mix64 (Int64.of_int seed))

let copy = Bytes.copy

let[@inline] bits64 g =
  let s = Int64.add (get_state g 0) golden_gamma in
  set_state g 0 s;
  mix64 s

let split g = of_state (bits64 g)

let int g n =
  assert (n > 0);
  (* Rejection sampling on the top 62 bits keeps the result exactly uniform. *)
  let mask = 0x3FFF_FFFF_FFFF_FFFF in
  let bound = mask - (mask mod n) in
  let v = ref (Int64.to_int (Int64.shift_right_logical (bits64 g) 2)) in
  while !v >= bound do
    v := Int64.to_int (Int64.shift_right_logical (bits64 g) 2)
  done;
  !v mod n

let int_in g ~lo ~hi =
  assert (lo <= hi);
  lo + int g (hi - lo + 1)

let[@inline] float g =
  let v = Int64.to_int (Int64.shift_right_logical (bits64 g) 11) in
  float_of_int v *. 0x1.0p-53

let bool g = Int64.logand (bits64 g) 1L = 1L

let bernoulli g ~p = if p <= 0. then false else if p >= 1. then true else float g < p

let shuffle g a =
  for i = Array.length a - 1 downto 1 do
    let j = int g (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let sample_without_replacement g ~n ~k =
  assert (0 <= k && k <= n);
  (* Floyd's algorithm: O(k) draws, no O(n) storage. *)
  let seen = Hashtbl.create (2 * k) in
  let out = Array.make k 0 in
  let pos = ref 0 in
  for j = n - k to n - 1 do
    let t = int g (j + 1) in
    let v = if Hashtbl.mem seen t then j else t in
    Hashtbl.replace seen v ();
    out.(!pos) <- v;
    incr pos
  done;
  out
