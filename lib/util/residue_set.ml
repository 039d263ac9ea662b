type t = { m : int; words : int array }
(* Bit [r] of the vector (word [r/62], bit [r mod 62]) records membership of
   residue [r].  We use 62 payload bits per OCaml int to keep everything in
   immediate integers. *)

let bits_per_word = 62

let modulus t = t.m

let nwords m = ((m + bits_per_word - 1) / bits_per_word)

let create m =
  assert (m > 0);
  { m; words = Array.make (nwords m) 0 }

let all_bits = (1 lsl bits_per_word) - 1

let tail_mask m =
  let rem = m mod bits_per_word in
  if rem = 0 then all_bits else (1 lsl rem) - 1

let full m =
  let t = create m in
  Array.fill t.words 0 (Array.length t.words) all_bits;
  t.words.(Array.length t.words - 1) <- tail_mask m;
  t

let copy t = { m = t.m; words = Array.copy t.words }

let add t r =
  let r = Intmath.pos_mod r t.m in
  let w = r / bits_per_word and b = r mod bits_per_word in
  t.words.(w) <- t.words.(w) lor (1 lsl b)

let singleton m r =
  let t = create m in
  add t r;
  t

let mem t r =
  let r = Intmath.pos_mod r t.m in
  let w = r / bits_per_word and b = r mod bits_per_word in
  t.words.(w) land (1 lsl b) <> 0

let popcount x =
  let rec loop acc x = if x = 0 then acc else loop (acc + 1) (x land (x - 1)) in
  loop 0 x

let cardinal t = Array.fold_left (fun acc w -> acc + popcount w) 0 t.words

let is_empty t = Array.for_all (fun w -> w = 0) t.words

let is_full t =
  let n = Array.length t.words in
  let ok = ref true in
  for i = 0 to n - 2 do
    if t.words.(i) <> all_bits then ok := false
  done;
  !ok && t.words.(n - 1) = tail_mask t.m

let equal a b = a.m = b.m && Intmath.array_equal a.words b.words

let union_into ~dst src =
  assert (dst.m = src.m);
  for i = 0 to Array.length dst.words - 1 do
    dst.words.(i) <- dst.words.(i) lor src.words.(i)
  done

let inter a b =
  assert (a.m = b.m);
  let t = create a.m in
  for i = 0 to Array.length t.words - 1 do
    t.words.(i) <- a.words.(i) land b.words.(i)
  done;
  t

(* Rotation by [k] positions.  Residue [r] of the source lands at
   [(r + k) mod m]: destination bits [k, m) come from source bits
   [0, m - k) and destination bits [0, k) from source bits [m - k, m).
   Within each of the two ranges a destination word reads one fixed bit
   offset further into the source, so it gathers its bits from at most two
   consecutive source words with one funnel shift; the word the ranges
   share ORs both gathers.  Source words outside the array read as zero,
   and so do the bits above [m] in the last one, so a gather that runs off
   either end of a range contributes nothing; only the last destination
   word needs masking. *)
let rotate t k =
  let m = t.m in
  let k = Intmath.pos_mod k m in
  if k = 0 then copy t
  else begin
    let src = t.words in
    let n = Array.length src in
    let word i = if i >= 0 && i < n then src.(i) else 0 in
    let dst = Array.make n 0 in
    (* [dst.(w) |= source bits [w*62 + off, w*62 + off + 62)] for
       [w in [w_lo, w_hi]]. *)
    let gather ~off ~w_lo ~w_hi =
      let start = (w_lo * bits_per_word) + off in
      let q = Intmath.floor_div start bits_per_word in
      let b = start - (q * bits_per_word) in
      for w = w_lo to w_hi do
        let i = q + w - w_lo in
        let bits = (word i lsr b) lor (word (i + 1) lsl (bits_per_word - b)) in
        dst.(w) <- dst.(w) lor (bits land all_bits)
      done
    in
    gather ~off:(-k) ~w_lo:(k / bits_per_word) ~w_hi:(n - 1);
    gather ~off:(m - k) ~w_lo:0 ~w_hi:((k - 1) / bits_per_word);
    dst.(n - 1) <- dst.(n - 1) land tail_mask m;
    { m; words = dst }
  end

(* Union of [shift(t, i * step)] for [0 <= i < count], by binary doubling:
   the union over [2n] shifts is the union over [n] shifts, unioned with its
   own rotation by [n * step]. *)
let rec union_shifts t ~step ~count =
  assert (count >= 1);
  if count = 1 then copy t
  else
    let half = count / 2 in
    let u = union_shifts t ~step ~count:half in
    let u2 = rotate u (half * step mod t.m) in
    union_into ~dst:u2 u;
    if count land 1 = 0 then u2
    else begin
      let last = rotate t ((count - 1) * (step mod t.m) mod t.m) in
      union_into ~dst:u2 last;
      u2
    end

let sum_progression t ~step ~count =
  assert (count > 0);
  let m = t.m in
  let step = Intmath.pos_mod step m in
  if step = 0 || count = 1 then copy t
  else begin
    let g = Intmath.gcd step m in
    let period = m / g in
    if count >= period then
      (* Full coset of the subgroup <g>: smear by g over one whole period. *)
      union_shifts t ~step:g ~count:period
    else union_shifts t ~step ~count
  end

(* Any member in [a, b) with 0 <= a <= b <= m? *)
let probe_range t a b =
  let found = ref false in
  let r = ref a in
  while (not !found) && !r < b do
    let w = !r / bits_per_word and bit = !r mod bits_per_word in
    if t.words.(w) lsr bit = 0 then
      (* No bits at or above [bit] in this word: jump to next word. *)
      r := (w + 1) * bits_per_word
    else if t.words.(w) land (1 lsl bit) <> 0 then found := true
    else incr r
  done;
  !found

let hits_window t ~lo ~len =
  if len <= 0 then false
  else begin
    let m = t.m in
    if len >= m then not (is_empty t)
    else begin
      let lo = Intmath.pos_mod lo m in
      if lo + len <= m then probe_range t lo (lo + len)
      else probe_range t lo m || probe_range t 0 (lo + len - m)
    end
  end

let count_window t ~lo ~len =
  if len <= 0 then 0
  else begin
    let m = t.m in
    let len = Int.min len m in
    let lo = Intmath.pos_mod lo m in
    let count_range a b =
      let acc = ref 0 in
      for r = a to b - 1 do
        if mem t r then incr acc
      done;
      !acc
    in
    if lo + len <= m then count_range lo (lo + len)
    else count_range lo m + count_range 0 (lo + len - m)
  end

let iter f t =
  for r = 0 to t.m - 1 do
    if mem t r then f r
  done

let elements t =
  let acc = ref [] in
  for r = t.m - 1 downto 0 do
    if mem t r then acc := r :: !acc
  done;
  !acc
