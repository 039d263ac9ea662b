let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

let lcm a b = if a = 0 || b = 0 then 0 else abs (a / gcd a b * b)

let egcd a b =
  (* Invariants: a*x0 + b*y0 = r0 and a*x1 + b*y1 = r1. *)
  let rec loop r0 x0 y0 r1 x1 y1 =
    if r1 = 0 then (r0, x0, y0)
    else
      let q = r0 / r1 in
      loop r1 x1 y1 (r0 - (q * r1)) (x0 - (q * x1)) (y0 - (q * y1))
  in
  let ((g, x, y) as r) = loop a 1 0 b 0 1 in
  if g < 0 then (-g, -x, -y) else r

(* One division each: the remainder is recovered from the quotient, so
   these inline to a single [idiv] at every call site. *)
let[@inline] floor_div a b =
  let q = a / b in
  let r = a - (q * b) in
  if r <> 0 && r lxor b < 0 then q - 1 else q

let[@inline] ceil_div a b = -floor_div (-a) b

let[@inline] pos_mod a m =
  assert (m > 0);
  let r = a mod m in
  if r < 0 then r + m else r

let[@inline] is_pow2 n = n > 0 && n land (n - 1) = 0

(* [2^k mod 67] tells every [k] below 62 apart (2 is a primitive root
   modulo the prime 67), and a remainder by a constant compiles to a
   multiplication. *)
let log2_by_mod67 =
  let t = Array.make 67 (-1) in
  for k = 0 to 61 do
    t.((1 lsl k) mod 67) <- k
  done;
  t

let[@inline] log2_pow2 n =
  assert (is_pow2 n);
  log2_by_mod67.(n mod 67)

let ceil_log2 n =
  assert (n >= 1);
  let rec loop k p = if p >= n then k else loop (k + 1) (p * 2) in
  loop 0 1

let pow b e =
  assert (e >= 0);
  let rec loop acc b e =
    if e = 0 then acc
    else loop (if e land 1 = 1 then acc * b else acc) (b * b) (e asr 1)
  in
  loop 1 b e

let clamp ~lo ~hi (x : int) =
  assert (lo <= hi);
  if x < lo then lo else if x > hi then hi else x

let range_count ~lo ~hi ~step =
  assert (step > 0);
  if hi < lo then 0 else ((hi - lo) / step) + 1

let multiples_in ~lo ~hi m =
  assert (m > 0);
  if hi < lo then 0 else floor_div hi m - floor_div (lo - 1) m

let lattice_inverse ~g ~m =
  assert (g > 0 && m > 0);
  (* [egcd]'s coefficient of [g] alone, so no tuple is built:
     [g*x0 + m*y0 = r0] throughout, and [r0] ends at [gcd g m]. *)
  let rec loop r0 x0 r1 x1 =
    if r1 = 0 then x0
    else
      let q = r0 / r1 in
      loop r1 x1 (r0 - (q * r1)) (x0 - (q * x1))
  in
  pos_mod (loop g 1 m 0) m

let next_lattice_hit ~a ~g ~m ~u ~len j0 =
  (* [g*u = h (mod m)] with [0 < h <= m], so [h] is [g*u mod m], or [m]
     when that is 0. *)
  let h = match pos_mod (pos_mod g m * u) m with 0 -> m | h -> h in
  let p = m / h in
  (* Search [j = j0 + d]: the values [(x + g*d) mod m] are exactly the
     residues congruent to [x] modulo [h], so the ones below [len] are
     [r + h*i] for [i < classes]. *)
  let x = pos_mod (a + (g * j0)) m in
  let r = x mod h in
  let classes = Int.min p (floor_div (len - 1 - r) h + 1) in
  if classes <= 0 then max_int
  else begin
    (* [g*d = r + h*i - x (mod m)] iff [d = u * ((r - x)/h + i) (mod p)]:
       consecutive classes sit [u] apart modulo [p]. *)
    let u = u mod p in
    let d = ref (pos_mod (u * pos_mod ((r - x) / h) p) p) in
    let best = ref !d in
    for _ = 2 to classes do
      d := !d + u;
      if !d >= p then d := !d - p;
      if !d < !best then best := !d
    done;
    j0 + !best
  end

let next_window_hit ~a ~g ~m ~len j0 =
  let j = next_lattice_hit ~a ~g ~m ~u:(lattice_inverse ~g ~m) ~len j0 in
  if j = max_int then None else Some j

let array_equal (a : int array) (b : int array) =
  let n = Array.length a in
  n = Array.length b
  &&
  let i = ref 0 in
  while !i < n && a.(!i) = b.(!i) do
    incr i
  done;
  !i = n

let crt (a, m) (b, n) =
  assert (m > 0 && n > 0);
  let g, p, _ = egcd m n in
  if (b - a) mod g <> 0 then None
  else
    let l = m / g * n in
    (* x = a + m * t with m*t = b - a (mod n), i.e. t = p*(b-a)/g (mod n/g) *)
    let t = pos_mod (p * ((b - a) / g)) (n / g) in
    Some (pos_mod (a + (m * t)) l, l)
