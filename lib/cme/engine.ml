open Tiling_ir
open Tiling_util

module Metrics = Tiling_obs.Metrics

let m_hit = Metrics.counter "cme.classify.hit"
let m_replacement = Metrics.counter "cme.classify.replacement"
let m_compulsory = Metrics.counter "cme.classify.compulsory"
let m_memo_hit = Metrics.counter "cme.residues.memo.hit"
let m_memo_miss = Metrics.counter "cme.residues.memo.miss"
let m_engines = Metrics.counter "cme.engines.created"

(* ------------------------------------------------------------------ *)
(* Cross-engine residue cache.

   Residue images are keyed by canonical generator signatures, and those
   signatures recur massively across the hundreds of engines a GA run
   creates: the modulus is fixed by the cache configuration, and nearby
   tile vectors produce overlapping generator sets.  Each engine keeps its
   private (lock-free) table as an L1, but misses consult this shared,
   sharded, bounded cache before recomputing.  Entries are immutable
   [Residue_set.t] values, so sharing them across domains is safe; the
   shards are mutex-protected and evict in FIFO insertion order, which
   keeps long fuzz runs (thousands of distinct moduli and signatures) from
   growing without bound.  Eviction only ever costs a recompute. *)

module Shared_residues = struct
  (* Keys compare by integer loops; the polymorphic hash is kept, so the
     buckets and shards are those of a generic table. *)
  module Table = Hashtbl.Make (struct
    type t = int * int array (* modulus, canonical generators *)

    let equal ((m, a) : t) (n, b) = m = n && Intmath.array_equal a b
    let hash (k : t) = Hashtbl.hash k
  end)

  type key = Table.key

  type shard = {
    lock : Mutex.t;
    table : Residue_set.t Table.t;
    order : key Queue.t; (* insertion order, for FIFO eviction *)
  }

  let shard_count = 16 (* power of two; low-bit mask below *)
  let default_capacity = 4096
  let capacity = Atomic.make default_capacity

  let shards =
    Array.init shard_count (fun _ ->
        {
          lock = Mutex.create ();
          table = Table.create 64;
          order = Queue.create ();
        })

  let m_hit = Metrics.counter "cme.residues.shared.hit"
  let m_miss = Metrics.counter "cme.residues.shared.miss"
  let m_evict = Metrics.counter "cme.residues.shared.evictions"

  let shard_of key = shards.(Hashtbl.hash key land (shard_count - 1))

  let per_shard_cap () = Int.max 1 (Atomic.get capacity / shard_count)

  let find key =
    let s = shard_of key in
    Mutex.protect s.lock (fun () ->
        match Table.find_opt s.table key with
        | Some _ as r ->
            Metrics.incr m_hit;
            r
        | None ->
            Metrics.incr m_miss;
            None)

  let evict_to s cap =
    while Table.length s.table > cap do
      let victim = Queue.pop s.order in
      Table.remove s.table victim;
      Metrics.incr m_evict
    done

  let add key value =
    let s = shard_of key in
    Mutex.protect s.lock (fun () ->
        if not (Table.mem s.table key) then begin
          Table.replace s.table key value;
          Queue.push key s.order;
          evict_to s (per_shard_cap ())
        end)

  let set_capacity n =
    if n < 0 then invalid_arg "Shared_residues.set_capacity";
    Atomic.set capacity n;
    let cap = per_shard_cap () in
    Array.iter
      (fun s -> Mutex.protect s.lock (fun () -> evict_to s cap))
      shards

  let clear () =
    Array.iter
      (fun s ->
        Mutex.protect s.lock (fun () ->
            Table.reset s.table;
            Queue.clear s.order))
      shards

  let length () =
    Array.fold_left
      (fun acc s -> acc + Mutex.protect s.lock (fun () -> Table.length s.table))
      0 shards
end

let set_shared_residue_capacity = Shared_residues.set_capacity
let clear_shared_residues = Shared_residues.clear
let shared_residue_size = Shared_residues.length

(* An engine's private residue table, keyed by the flattened canonical
   generators [s1; c1; s2; c2; ...]. *)
module Key_table = Hashtbl.Make (struct
  type t = int array

  let equal = Intmath.array_equal
  let hash (a : t) = Hashtbl.hash a
end)

type outcome = Hit | Compulsory_miss | Replacement_miss

type t = {
  nest : Nest.t;
  cache : Tiling_cache.Config.t;
  forms : Affine.t array;
  (* The geometry as powers of two ({!Tiling_cache.Config.make} admits no
     other): a line is [2^line_shift] bytes, there are [2^sets_shift]
     sets, and addresses congruent modulo [modulus = 2^mod_shift] share a
     set, so the point solver's divisions by these are shifts and its
     remainders masks. *)
  modulus : int;
  line_shift : int;
  sets_shift : int;
  mod_shift : int;
  static_lo : int array;
  static_hi : int array;  (* per-dim bounding interval of the loop values *)
  (* Suffix tables, [depth + 1] entries per reference: entry [b * (depth +
     1) + l] bounds reference [b]'s terms over dims [l] and deeper as those
     dims range over their static bounds; entry [depth] is 0. *)
  sfx_lo : int array;
  sfx_hi : int array;
  memo : Residue_set.t Key_table.t;
  (* Scratch, reused by every query, so an engine serves one domain: the
     path walk's plan and box; one reference's image over the current box
     with its generator orders, the last denseness gcd and the residue
     signature buffers; and the distinct interfering windows found so far
     (at most [assoc]). *)
  plan : Path.plan;
  img : Box.image;
  by_mag : int array;
  by_size : int array;
  rank : int array;
  mutable g : int;
  keys : int array array;
  found : int array;
  mutable nfound : int;
  live : bool array;  (* references whose path hull reaches another window *)
  mutable hull_lo : int;
  mutable hull_hi : int;  (* the last hull [hull] took *)
  mutable base : int;  (* the count's set's first window, set * line *)
  mutable m0 : int;  (* the reused line's own window index *)
  (* The reuse-source search's state (see [latest_before]). *)
  mutable dst : int array;
  src : int array;
  partial : int array;
  mutable lo_addr : int;
  mutable hi_addr : int;
}

let create nest cache =
  Tiling_obs.Span.with_ "cme.engine.create"
    ~attrs:
      [
        ("nest", Tiling_obs.Json.String nest.Nest.name);
        ("refs", Tiling_obs.Json.Int (Array.length nest.Nest.refs));
      ]
    (fun () ->
      Metrics.incr m_engines;
      let line = cache.Tiling_cache.Config.line
      and sets = cache.Tiling_cache.Config.sets in
      (* [log2_pow2] asserts that both are powers of two. *)
      let line_shift = Intmath.log2_pow2 line
      and sets_shift = Intmath.log2_pow2 sets in
      let forms = Array.map (fun r -> Nest.address_form nest r) nest.Nest.refs in
      let static_lo, static_hi = Nest.static_bounds nest in
      let depth = Nest.depth nest in
      let suffix pick =
        let tbl = Array.make (Array.length forms * (depth + 1)) 0 in
        Array.iteri
          (fun b form ->
            for l = depth - 1 downto 0 do
              let c = Affine.coeff form l in
              tbl.((b * (depth + 1)) + l) <-
                tbl.((b * (depth + 1)) + l + 1)
                + pick (c * static_lo.(l)) (c * static_hi.(l))
            done)
          forms;
        tbl
      in
      {
        nest;
        cache;
        forms;
        modulus = sets * line;
        line_shift;
        sets_shift;
        mod_shift = sets_shift + line_shift;
        static_lo;
        static_hi;
        sfx_lo = suffix Int.min;
        sfx_hi = suffix Int.max;
        memo = Key_table.create 256;
        plan = Path.plan nest;
        img = Box.image depth;
        by_mag = Array.make depth 0;
        by_size = Array.make depth 0;
        rank = Array.make depth 0;
        g = 0;
        keys = Array.init (depth + 1) (fun n -> Array.make (2 * n) 0);
        found = Array.make cache.Tiling_cache.Config.assoc 0;
        nfound = 0;
        live = Array.make (Array.length forms) true;
        hull_lo = 0;
        hull_hi = 0;
        base = 0;
        m0 = 0;
        dst = [||];
        src = Array.make depth 0;
        partial = Array.make (Array.length forms) 0;
        lo_addr = 0;
        hi_addr = 0;
      })

let nest t = t.nest
let cache t = t.cache
let memo_size t = Key_table.length t.memo

(* ------------------------------------------------------------------ *)
(* The image of one reference over one box, in the engine's scratch.

   [t.img] holds the generators in entry order.  [order] sorts them by
   magnitude, [by_mag] ascending and [by_size] descending, ties in entry
   order in both; [rank] is each generator's position in [by_size].  The
   interval query below peels generators off in [by_size] order, so its
   sub-images are the suffixes [by_size.(k..)]; the denseness test takes a
   sub-image's generators in [by_mag] order.  These are exactly the orders
   the stable sorts of a generator list in entry order give. *)

(* Top level rather than a closure over [img], which [order] would
   allocate on every segment. *)
let mag (img : Box.image) i = abs img.Box.steps.(i)

let order t =
  let img = t.img in
  let n = img.Box.len in
  for i = 0 to n - 1 do
    let j = ref i in
    while !j > 0 && mag img t.by_mag.(!j - 1) > mag img i do
      t.by_mag.(!j) <- t.by_mag.(!j - 1);
      decr j
    done;
    t.by_mag.(!j) <- i;
    let j = ref i in
    while !j > 0 && mag img t.by_size.(!j - 1) < mag img i do
      t.by_size.(!j) <- t.by_size.(!j - 1);
      decr j
    done;
    t.by_size.(!j) <- i
  done;
  for k = 0 to n - 1 do
    t.rank.(t.by_size.(k)) <- k
  done

(* Bounds of [const] plus the sub-image [by_size.(k..)]. *)
let sub_min t const k =
  let img = t.img in
  let mn = ref const in
  for j = k to img.Box.len - 1 do
    let i = t.by_size.(j) in
    let span = img.Box.steps.(i) * (img.Box.counts.(i) - 1) in
    if span < 0 then mn := !mn + span
  done;
  !mn

let sub_max t const k =
  let img = t.img in
  let mx = ref const in
  for j = k to img.Box.len - 1 do
    let i = t.by_size.(j) in
    let span = img.Box.steps.(i) * (img.Box.counts.(i) - 1) in
    if span > 0 then mx := !mx + span
  done;
  !mx

(* The same bounds for the whole image, [k = 0], taken in entry order:
   they need no sort. *)
let image_min (img : Box.image) =
  let mn = ref img.Box.const in
  for i = 0 to img.Box.len - 1 do
    let span = img.Box.steps.(i) * (img.Box.counts.(i) - 1) in
    if span < 0 then mn := !mn + span
  done;
  !mn

let image_max (img : Box.image) =
  let mx = ref img.Box.const in
  for i = 0 to img.Box.len - 1 do
    let span = img.Box.steps.(i) * (img.Box.counts.(i) - 1) in
    if span > 0 then mx := !mx + span
  done;
  !mx

(* ------------------------------------------------------------------ *)
(* Residue images, memoised by generator signature: the generators'
   steps modulo [sets * line] and counts capped at their period, sorted.
   The signature is built in [t.keys], one buffer per generator count, so
   a lookup that hits allocates nothing.  The modulus is [2^mod_shift], so
   a step [s] in [(0, m)] has [gcd s m] equal to its lowest set bit and
   period [m / gcd s m] a shift of [m]. *)

let residues t =
  let img = t.img in
  let m = t.modulus in
  let n = ref 0 in
  let buf = t.keys.(Array.length t.keys - 1) in
  for g = 0 to img.Box.len - 1 do
    let s = img.Box.steps.(g) land (m - 1) in
    if s <> 0 then begin
      let c = Int.min img.Box.counts.(g) (m asr Intmath.log2_pow2 (s land (-s))) in
      let j = ref !n in
      while
        !j > 0
        && (buf.(2 * (!j - 1)) > s
           || (buf.(2 * (!j - 1)) = s && buf.((2 * (!j - 1)) + 1) > c))
      do
        buf.(2 * !j) <- buf.(2 * (!j - 1));
        buf.((2 * !j) + 1) <- buf.((2 * (!j - 1)) + 1);
        decr j
      done;
      buf.(2 * !j) <- s;
      buf.((2 * !j) + 1) <- c;
      incr n
    end
  done;
  let key = t.keys.(!n) in
  Array.blit buf 0 key 0 (2 * !n);
  match Key_table.find t.memo key with
  | r ->
      Metrics.incr m_memo_hit;
      r
  | exception Not_found ->
      Metrics.incr m_memo_miss;
      let key = Array.copy key in
      let skey = (m, key) in
      let r =
        match Shared_residues.find skey with
        | Some r -> r
        | None ->
            let r = ref (Residue_set.singleton m 0) in
            for j = 0 to !n - 1 do
              r :=
                Residue_set.sum_progression !r ~step:key.(2 * j)
                  ~count:key.((2 * j) + 1)
            done;
            Shared_residues.add skey !r;
            !r
      in
      Key_table.replace t.memo key r;
      r

(* ------------------------------------------------------------------ *)
(* Denseness analysis: when the image of the generators is every value
   congruent to the constant modulo [g] within [min, max], window queries
   are O(1).  Sufficient conditions, adding a step-[s] count-[count]
   progression to a set dense modulo [g] over a span: with [g' =
   gcd(g, s)] and [period = g / g'], the translates' residue classes
   modulo [g] repeat with [period], so (a) at least [period] translates
   are needed to reach every class at all ([count >= period] — e.g.
   {48 x 3} + {112 x 2} refines the gcd to 16 on paper yet only reaches
   residues {0, 16} mod 48), and (b) same-class translates sit
   [period * s] apart, so their spans must chain contiguously
   ([period * s <= span + g] — e.g. {216 x 5} + {936 x 4} covers every
   class but each one only inside its own disjoint window).  The
   generators are added by increasing magnitude.  Rejecting a dense set
   costs only the recursive interval query, never correctness.

   [dense_from t k] tests the sub-image [by_size.(k..)] and leaves its
   gcd in [t.g]. *)

let dense_from t k =
  let img = t.img in
  let dense = ref true and g = ref 0 and span = ref 0 in
  for j = 0 to img.Box.len - 1 do
    let i = t.by_mag.(j) in
    if t.rank.(i) >= k then begin
      let s = abs img.Box.steps.(i) and count = img.Box.counts.(i) in
      (if !g <> 0 then
         let period = !g / Intmath.gcd !g s in
         if not (count >= period && period * s <= !span + !g) then dense := false);
      g := Intmath.gcd !g s;
      span := !span + (s * (count - 1))
    end
  done;
  t.g <- !g;
  !dense

(* Does a value congruent to [c] modulo [g] exist in [a, b]?  [g = 0]
   degenerates to the single value [c]. *)
let lattice_hits ~c ~g a b =
  if b < a then false
  else if g = 0 then a <= c && c <= b
  else Intmath.multiples_in ~lo:(a - c) ~hi:(b - c) g > 0

(* Exact query: does [const] plus the sub-image [by_size.(k..)] intersect
   [a, b]?  A single generator is dense, so the recursion peels at most
   all but one generator. *)
let rec hits_from t const k a b =
  let mn = sub_min t const k and mx = sub_max t const k in
  if mx < a || mn > b then false
  else if mn >= a && mx <= b then true
  else if dense_from t k then
    lattice_hits ~c:const ~g:t.g (Int.max a mn) (Int.min b mx)
  else begin
    (* Branch on the coarsest generator; only the steps whose translate of
       the remaining sub-image can reach [a, b] are explored. *)
    let i = t.by_size.(k) in
    let step = t.img.Box.steps.(i) and count = t.img.Box.counts.(i) in
    let rmn = sub_min t const (k + 1) and rmx = sub_max t const (k + 1) in
    (* Need step * j in [a - rmx, b - rmn]. *)
    let lo_n = a - rmx and hi_n = b - rmn in
    let j_lo =
      Int.max 0
        (if step > 0 then Intmath.ceil_div lo_n step else Intmath.ceil_div hi_n step)
    and j_hi =
      Int.min (count - 1)
        (if step > 0 then Intmath.floor_div hi_n step else Intmath.floor_div lo_n step)
    in
    let hit = ref false in
    let j = ref j_lo in
    while (not !hit) && !j <= j_hi do
      hit := hits_from t (const + (step * !j)) (k + 1) a b;
      incr j
    done;
    !hit
  end

(* ------------------------------------------------------------------ *)
(* Interference counting.                                               *)

(* Windows [[base + m*modulus, base + m*modulus + line)] holding a point
   of a sparse lattice, with [modulus = 2^shift].  The lattice is [{mn +
   g*j : 0 <= j <= (mx - mn) / g}] with [g > line], so a window holds at
   most one point and the points' windows come in increasing order.
   [take x] is offered each such window index except [m0], and the walk
   stops once it answers [false]: [Intmath.next_lattice_hit] jumps from
   one hitting point to the next, so no empty window is visited; the
   inverse it needs is computed once per walk, and nothing is
   allocated. *)
let windows ~base ~shift ~line ~mn ~mx ~g ~m0 take x =
  let modulus = 1 lsl shift in
  let a = mn - base in
  let last = (mx - mn) / g in
  let u = Intmath.lattice_inverse ~g ~m:modulus in
  let j = ref 0 in
  while !j <= last do
    let hit = Intmath.next_lattice_hit ~a ~g ~m:modulus ~u ~len:line !j in
    if hit <= last then begin
      let m = (a + (g * hit)) asr shift in
      j := if m = m0 || take x m then hit + 1 else last + 1
    end
    else j := last + 1
  done

let lattice_windows ~base ~modulus ~line ~mn ~mx ~g ~m0 take =
  windows ~base ~shift:(Intmath.log2_pow2 modulus) ~line ~mn ~mx ~g ~m0
    (fun take m -> take m)
    take

(* Count distinct memory lines, different from [line_a], mapping to cache
   set [set], touched between an access and its reuse source; counting
   stops at the associativity.  Lines in set [set] are exactly
   [set + m * sets] for integer [m]; a value [v] belongs to that line's
   window iff [v in [set*L + m*M, set*L + m*M + L)] with [M = sets * L].

   The accesses are taken as segments, each the image of one reference
   over one path box or a single access, in a fixed order: the
   destination point's earlier references, latest first; the source
   point's later references, latest first; then the path's boxes from the
   last to the first, each with its references from the last to the
   first.  The order decides nothing but which segments are still looked
   at once the count reaches the associativity.

   Ranges come first.  Before the walk, each reference's address hull
   over the whole path is tested against the set's windows, and a
   reference whose hull meets none but the reused line's own window [m0]
   is left out of the walk; when every reference is, the path is not
   walked at all.  Within the walk, a segment's value range [mn, mx],
   taken from its generators in entry order, is tested the same way
   before anything else, so a segment that cannot reach another window
   costs no generator sort, denseness test or residue image.  A segment
   or a walk skipped this way holds no value in another window of the
   set, so it could add no interfering line: the count is the same.

   A dense segment's image is exactly the lattice [const + g*Z] cut to
   [mn, mx], so it is answered in closed form without a residue image:
   with [g <= L] every window inside [mn, mx] holds a point and the window
   walk stops within a few steps; with [g > L] [lattice_windows] visits
   only the windows that hold one.  Other segments are prefiltered by
   their residue image, then walked window by window with exact interval
   queries, however many windows the image spans. *)

let full t = t.nfound >= t.cache.Tiling_cache.Config.assoc

(* Record window [m]; answers whether the count may go on. *)
let add_window t m =
  let known = ref false in
  for i = 0 to t.nfound - 1 do
    if t.found.(i) = m then known := true
  done;
  if not (!known || full t) then begin
    t.found.(t.nfound) <- m;
    t.nfound <- t.nfound + 1
  end;
  not (full t)

let count_access t v =
  let d = v - t.base in
  if d land (t.modulus - 1) < t.cache.Tiling_cache.Config.line then begin
    let m = d asr t.mod_shift in
    if m <> t.m0 then ignore (add_window t m : bool)
  end

(* The set's windows meeting [[mn, mx]] are [first_window t mn ..
   last_window t mx]: window [m] meets it iff [base + m*M <= mx] and
   [base + m*M + L - 1 >= mn].  [asr] floors, below [base] too. *)
let first_window t mn =
  -((t.base + t.cache.Tiling_cache.Config.line - 1 - mn) asr t.mod_shift)

let last_window t mx = (mx - t.base) asr t.mod_shift

(* Whether windows [m_lo .. m_hi] include one other than [m0]. *)
let other_window t m_lo m_hi = m_lo < m_hi || (m_lo = m_hi && m_lo <> t.m0)

(* The segment of reference [b] over the current path box.  Its range is
   tested first, then the geometry: the generator orders, denseness, and
   for a non-dense image the residue prefilter. *)
let count_box_ref t cur b =
  let l_bytes = t.cache.Tiling_cache.Config.line in
  let m_big = t.modulus and shift = t.mod_shift and base = t.base and m0 = t.m0 in
  let img = t.img in
  Box.eval_into img t.forms.(b) cur;
  let const = img.Box.const in
  if img.Box.len = 0 then count_access t const
  else begin
    let mn = image_min img and mx = image_max img in
    let m_lo = first_window t mn and m_hi = last_window t mx in
    if other_window t m_lo m_hi then begin
      order t;
      let dense = dense_from t 0 in
      let g = t.g in
      if dense && g > l_bytes then
        windows ~base ~shift ~line:l_bytes ~mn ~mx ~g ~m0 add_window t
      else if
        dense
        (* The image residues are those of the generators shifted by
           const; probe the set window accordingly. *)
        || Residue_set.hits_window (residues t) ~lo:(base - const) ~len:l_bytes
      then begin
        (* Window by window: O(1) each for a dense image, an interval
           query otherwise. *)
        let m = ref m_lo in
        while (not (full t)) && !m <= m_hi do
          if !m <> m0 then begin
            let a = base + (!m * m_big) in
            let b = a + l_bytes - 1 in
            if
              if dense then lattice_hits ~c:const ~g (Int.max a mn) (Int.min b mx)
              else hits_from t const 0 a b
            then ignore (add_window t !m : bool)
          end;
          incr m
        done
      end
    end
  end

(* Every reference over the current box that the path's hulls left in,
   the last first. *)
let count_box t cur =
  let b = ref (Array.length t.forms - 1) in
  while (not (full t)) && !b >= 0 do
    if t.live.(!b) then count_box_ref t cur !b;
    decr b
  done;
  not (full t)

(* The first dim where [src] and [dst] differ; the depth if none does. *)
let first_diff (src : int array) dst =
  let m = ref 0 in
  while !m < Array.length src && src.(!m) = dst.(!m) do
    incr m
  done;
  !m

(* Reference [b]'s address hull over the points from [src] to [dst], [m]
   their first differing dim, into [hull_lo, hull_hi]: its terms over dims
   above [m] at [src], dim [m] between [src.(m)] and [dst.(m)], and the
   deeper dims over their static bounds, read from the suffix tables.
   Every point between the two keeps [src]'s dims above [m]. *)
let hull t ~src ~dst m b =
  let form = t.forms.(b) in
  let a = ref form.Affine.const in
  for l = 0 to m - 1 do
    a := !a + (form.Affine.coeffs.(l) * src.(l))
  done;
  let x = form.Affine.coeffs.(m) * src.(m)
  and y = form.Affine.coeffs.(m) * dst.(m)
  and i = (b * (Array.length src + 1)) + m + 1 in
  t.hull_lo <- !a + Int.min x y + t.sfx_lo.(i);
  t.hull_hi <- !a + Int.max x y + t.sfx_hi.(i)

let path_hull t ~src ~dst b =
  hull t ~src ~dst (first_diff src dst) b;
  (t.hull_lo, t.hull_hi)

(* Mark the references whose hull over the path from [src] to [dst], [m]
   their first differing dim, reaches a window other than [m0]; answers
   whether any does. *)
let mark_live t ~src ~dst m =
  let any = ref false in
  for b = 0 to Array.length t.forms - 1 do
    hull t ~src ~dst m b;
    let live =
      other_window t (first_window t t.hull_lo) (last_window t t.hull_hi)
    in
    t.live.(b) <- live;
    if live then any := true
  done;
  !any

(* Whether the associativity's worth of distinct lines interferes on the
   path from reference [src_ref] at [src] to [dst_ref] at [dst]. *)
let saturated t ~src ~src_ref ~dst ~dst_ref ~set ~line_a =
  t.base <- set lsl t.line_shift;
  t.m0 <- line_a asr t.sets_shift;
  t.nfound <- 0;
  let m = first_diff src dst in
  let same_point = m = Array.length src in
  if not same_point then
    for b = dst_ref - 1 downto 0 do
      if not (full t) then count_access t (Affine.eval t.forms.(b) dst)
    done;
  let upto = if same_point then dst_ref else Array.length t.forms in
  for b = upto - 1 downto src_ref + 1 do
    if not (full t) then count_access t (Affine.eval t.forms.(b) src)
  done;
  if not (same_point || full t) && mark_live t ~src ~dst m then
    ignore (Path.walk_between t.plan ~src ~dst ~rev:true count_box t : bool);
  full t

(* Memory line of reference [ref_id]'s access at [point]. *)
let line_of t point ref_id = Affine.eval t.forms.(ref_id) point asr t.line_shift

(* ------------------------------------------------------------------ *)
(* The reuse source.  An LRU cache measures a line's residency from its
   latest access, and the path from that access lies inside the path from
   every earlier access to the line, so the latest earlier access decides
   the outcome on its own: it is the only source the CMEs need, and there
   being none is the compulsory case.

   [latest_before] finds the latest access at a point before [dst].  Those
   points form [depth] slices, searched latest first: slice [j] keeps
   [dst]'s dims below [j], runs dim [j] below [dst.(j)] and leaves the
   deeper dims free.  Within a slice the search descends outermost dim
   first, taking at each dim the highest value at which some reference's
   address hull still reaches the line ([top_reaching]).  At the innermost
   dim the hull is the address itself, so a complete descent ends on an
   access to the line.  When a descent dead-ends, the search asks the
   exact question for the rest of the dim's range — does any reference's
   image over those boxes meet the line? ([meets]) — and bisects on the
   answer.  A slice with no access to the line is thus dismissed by its
   hulls or by one query per dim of the dead end, and a first touch is
   proved in closed form.  The search is exact and needs no budget.  Its
   state lives in the engine: [dst], the candidate [src] with its dims set
   so far, each reference's address over those dims ([partial]) and the
   line's byte range. *)

let shift t l v =
  for b = 0 to Array.length t.partial - 1 do
    t.partial.(b) <- t.partial.(b) + (Affine.coeff t.forms.(b) l * v)
  done

(* Highest value [v] of dim [l] in [lo, hi], on the lattice [lo + step*Z],
   at which some reference's address hull reaches the line; below [lo] if
   there is none.  The hull is taken over the points with dims [< l] at
   [src] and dim [l] at [v]: a tile's element keeps to its tile when the
   tile's control is among those dims, and moves with [v] when the control
   is dim [l] itself; other deeper dims range over their static bounds.
   At the innermost dim the hull is the address itself. *)
let top_reaching t l ~lo ~hi ~step =
  let loops = t.nest.Nest.loops in
  let best = ref (lo - step) in
  if hi >= lo then
    for b = 0 to Array.length t.forms - 1 do
      let form = t.forms.(b) in
      (* The hull is [partial.(b) + c*v + [rlo, rhi]]. *)
      let c = ref (Affine.coeff form l) and rlo = ref 0 and rhi = ref 0 in
      for m = l + 1 to Array.length loops - 1 do
        let cm = Affine.coeff form m in
        if cm <> 0 then begin
          let wlo = ref t.static_lo.(m) and whi = ref t.static_hi.(m) in
          (match loops.(m).Nest.shape with
          | Nest.Tile_elem { ctrl; tile; _ }
          | Nest.Tile_elem_affine { ctrl; tile; _ } ->
              if ctrl = l then begin
                c := !c + cm;
                wlo := 0;
                whi := tile - 1
              end
              else if ctrl < l then begin
                wlo := Int.max !wlo t.src.(ctrl);
                whi := Int.min !whi (t.src.(ctrl) + tile - 1)
              end
          | Nest.Range _ | Nest.Range_affine _ | Nest.Tile_ctrl _ -> ());
          rlo := !rlo + Int.min (cm * !wlo) (cm * !whi);
          rhi := !rhi + Int.max (cm * !wlo) (cm * !whi)
        end
      done;
      (* The hull reaches the line iff [x <= c*v <= y]. *)
      let c = !c in
      let x = t.lo_addr - t.partial.(b) - !rhi
      and y = t.hi_addr - t.partial.(b) - !rlo in
      let vmin = ref lo and vmax = ref hi in
      if c > 0 then begin
        vmin := Intmath.ceil_div x c;
        vmax := Intmath.floor_div y c
      end
      else if c < 0 then begin
        vmin := Intmath.ceil_div y c;
        vmax := Intmath.floor_div x c
      end
      else if x > 0 || y < 0 then vmax := lo - 1;
      let top = Int.min hi !vmax in
      if top >= lo then begin
        let v = lo + ((top - lo) / step * step) in
        if v >= !vmin && v > !best then best := v
      end
    done;
  !best

(* Whether no reference's image over the walk's current box meets the
   line, that is, whether the walk goes on. *)
let box_misses t cur =
  let img = t.img in
  let met = ref false and r = ref 0 in
  while (not !met) && !r < Array.length t.forms do
    Box.eval_into img t.forms.(!r) cur;
    (* [hits_from]'s own first test, before the sort. *)
    if image_min img <= t.hi_addr && image_max img >= t.lo_addr then begin
      order t;
      met := hits_from t img.Box.const 0 t.lo_addr t.hi_addr
    end;
    incr r
  done;
  not !met

(* Exact query: does some reference's image over the points with dims
   [< l] at [src], dim [l] in [lo, hi] and deeper dims free meet the line?
   The boxes are walked forward, and the walk stops at the first box and
   reference that meets it. *)
let meets t l ~lo ~hi =
  not
    (Path.walk_bounded_dim t.plan ~prefix:t.src ~level:l ~iv_lo:lo ~iv_hi:hi
       ~rev:false box_misses t)

(* Highest value in [lo, hi] whose sub-space meets the line, given that
   the whole interval does.  The first splits fall just above and at the
   destination's own coordinate [dst.(l)], where translational reuse puts
   the source; later ones halve the interval. *)
let rec bisect t l ~step lo hi =
  if lo = hi then lo
  else
    let at = lo + (Intmath.floor_div (t.dst.(l) - lo) step * step) in
    let mid =
      if lo < at + step && at + step <= hi then at + step
      else if lo < at && at <= hi then at
      else lo + (((hi - lo) / step + 1) / 2 * step)
    in
    if meets t l ~lo:mid ~hi then bisect t l ~step mid hi
    else bisect t l ~step lo (mid - step)

(* The latest reference from [b] down whose access at the complete point
   [src] is on the line, or -1. *)
let rec on_line t b =
  if b < 0 then -1
  else if t.lo_addr <= t.partial.(b) && t.partial.(b) <= t.hi_addr then b
  else on_line t (b - 1)

(* The latest access to the line with dims [< l] at [src] and dim [l]
   below [below]: its latest reference on the line, with its point left in
   [src], or -1. *)
let rec descend t l ~below =
  let nest = t.nest in
  if l = Nest.depth nest then on_line t (Array.length t.partial - 1)
  else begin
    let lo = Nest.lo_at nest t.src l and hi = Nest.hi_at nest t.src l in
    let step = Nest.step_of nest l in
    descend_from t l ~lo ~step
      (top_reaching t l ~lo ~hi:(Int.min hi (below - step)) ~step)
  end

(* [descend] at dim [l], trying value [v] first: when nothing below [v]
   holds an access to the line, an exact query over the rest of the dim's
   range either dismisses it or leads, by bisection, to the next value to
   try. *)
and descend_from t l ~lo ~step v =
  if v < lo then -1
  else begin
    t.src.(l) <- v;
    shift t l v;
    let found = descend t (l + 1) ~below:max_int in
    shift t l (-v);
    if found >= 0 then found
    else
      let v' = top_reaching t l ~lo ~hi:(v - step) ~step in
      if v' >= lo && meets t l ~lo ~hi:v' then
        descend_from t l ~lo ~step (bisect t l ~step lo v')
      else -1
  end

(* Slices [j] down to 0, latest first: slice [j] has dims [< j] at [dst]
   and dim [j] below [dst.(j)]. *)
let rec slices t j =
  if j < 0 then -1
  else begin
    shift t j (-t.dst.(j));
    let found = descend t j ~below:t.dst.(j) in
    if found >= 0 then found else slices t (j - 1)
  end

(* The latest access to [line_a] at a point before [dst]: its reference,
   with its point left in [t.src], or -1. *)
let latest_before t ~dst ~line_a =
  let l_bytes = t.cache.Tiling_cache.Config.line in
  t.dst <- dst;
  Array.blit dst 0 t.src 0 (Array.length dst);
  for b = 0 to Array.length t.forms - 1 do
    t.partial.(b) <- Affine.eval t.forms.(b) dst
  done;
  t.lo_addr <- line_a * l_bytes;
  t.hi_addr <- (line_a * l_bytes) + l_bytes - 1;
  slices t (Nest.depth t.nest - 1)

(* The latest reference before [ref_id] at [point] whose access is on the
   line, or -1. *)
let rec latest_at_point t point b ~line_a =
  if b < 0 || line_of t point b = line_a then b
  else latest_at_point t point (b - 1) ~line_a

let reuse_sources t point ref_id =
  let line_a = line_of t point ref_id in
  let here = latest_at_point t point (ref_id - 1) ~line_a in
  let before = latest_before t ~dst:point ~line_a in
  (if here >= 0 then [ (Array.copy point, here) ] else [])
  @ if before >= 0 then [ (Array.copy t.src, before) ] else []

(* The reuse source is the latest earlier reference at the point on the
   line, else the latest access to it at an earlier point. *)
let classify t point ref_id =
  let line_a = line_of t point ref_id in
  let set = line_a land (t.cache.Tiling_cache.Config.sets - 1) in
  let here = latest_at_point t point (ref_id - 1) ~line_a in
  let src_ref = if here >= 0 then here else latest_before t ~dst:point ~line_a in
  let src = if here >= 0 then point else t.src in
  let outcome =
    if src_ref < 0 then Compulsory_miss
    else if saturated t ~src ~src_ref ~dst:point ~dst_ref:ref_id ~set ~line_a then
      Replacement_miss
    else Hit
  in
  (match outcome with
  | Hit -> Metrics.incr m_hit
  | Compulsory_miss -> Metrics.incr m_compulsory
  | Replacement_miss -> Metrics.incr m_replacement);
  outcome
