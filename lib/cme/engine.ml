open Tiling_ir
open Tiling_util

let log_src = Logs.Src.create "tiling.cme" ~doc:"CME point solver"

module Log = (val Logs.src_log log_src : Logs.LOG)

module Metrics = Tiling_obs.Metrics

let m_hit = Metrics.counter "cme.classify.hit"
let m_replacement = Metrics.counter "cme.classify.replacement"
let m_compulsory = Metrics.counter "cme.classify.compulsory"
let m_fallbacks = Metrics.counter "cme.fallbacks"
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
  type key = int * (int * int) list (* modulus, canonical generators *)

  type shard = {
    lock : Mutex.t;
    table : (key, Residue_set.t) Hashtbl.t;
    order : key Queue.t; (* insertion order, for FIFO eviction *)
  }

  let shard_count = 16 (* power of two; low-bit mask below *)
  let default_capacity = 4096
  let capacity = Atomic.make default_capacity

  let shards =
    Array.init shard_count (fun _ ->
        {
          lock = Mutex.create ();
          table = Hashtbl.create 64;
          order = Queue.create ();
        })

  let m_hit = Metrics.counter "cme.residues.shared.hit"
  let m_miss = Metrics.counter "cme.residues.shared.miss"
  let m_evict = Metrics.counter "cme.residues.shared.evictions"

  let shard_of key = shards.(Hashtbl.hash key land (shard_count - 1))

  let per_shard_cap () = max 1 (Atomic.get capacity / shard_count)

  let find key =
    let s = shard_of key in
    Mutex.protect s.lock (fun () ->
        match Hashtbl.find_opt s.table key with
        | Some _ as r ->
            Metrics.incr m_hit;
            r
        | None ->
            Metrics.incr m_miss;
            None)

  let evict_to s cap =
    while Hashtbl.length s.table > cap do
      let victim = Queue.pop s.order in
      Hashtbl.remove s.table victim;
      Metrics.incr m_evict
    done

  let add key value =
    let s = shard_of key in
    Mutex.protect s.lock (fun () ->
        if not (Hashtbl.mem s.table key) then begin
          Hashtbl.replace s.table key value;
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
            Hashtbl.reset s.table;
            Queue.clear s.order))
      shards

  let length () =
    Array.fold_left
      (fun acc s -> acc + Mutex.protect s.lock (fun () -> Hashtbl.length s.table))
      0 shards
end

let set_shared_residue_capacity = Shared_residues.set_capacity
let clear_shared_residues = Shared_residues.clear
let shared_residue_size = Shared_residues.length

type outcome = Hit | Compulsory_miss | Replacement_miss

type t = {
  nest : Nest.t;
  cache : Tiling_cache.Config.t;
  forms : Affine.t array;
  modulus : int;  (* sets * line: addresses congruent mod this share a set *)
  static_lo : int array;
  static_hi : int array;  (* per-dim bounding interval of the loop values *)
  memo : ((int * int) list, Residue_set.t) Hashtbl.t;
  window_cap : int;
  mutable fallbacks : int;
}

let create ?(window_cap = 512) nest cache =
  Tiling_obs.Span.with_ "cme.engine.create"
    ~attrs:
      [
        ("nest", Tiling_obs.Json.String nest.Nest.name);
        ("refs", Tiling_obs.Json.Int (Array.length nest.Nest.refs));
      ]
    (fun () ->
      Metrics.incr m_engines;
      let line = cache.Tiling_cache.Config.line in
      let forms = Array.map (fun r -> Nest.address_form nest r) nest.Nest.refs in
      let static_lo, static_hi = Nest.static_bounds nest in
      {
        nest;
        cache;
        forms;
        modulus = cache.Tiling_cache.Config.sets * line;
        static_lo;
        static_hi;
        memo = Hashtbl.create 256;
        window_cap;
        fallbacks = 0;
      })

let nest t = t.nest
let cache t = t.cache
let window_cap t = t.window_cap
let fallback_count t = t.fallbacks
let memo_size t = Hashtbl.length t.memo

(* ------------------------------------------------------------------ *)
(* Residue images, memoised by generator signature.                    *)

let canonical_gens t gens =
  let m = t.modulus in
  let norm =
    List.filter_map
      (fun (step, count) ->
        let s = Intmath.pos_mod step m in
        if s = 0 then None
        else
          let period = m / Intmath.gcd s m in
          Some (s, min count period))
      gens
  in
  List.sort compare norm

let residues t gens =
  let key = canonical_gens t gens in
  match Hashtbl.find_opt t.memo key with
  | Some r ->
      Metrics.incr m_memo_hit;
      r
  | None ->
      Metrics.incr m_memo_miss;
      let skey = (t.modulus, key) in
      let r =
        match Shared_residues.find skey with
        | Some r -> r
        | None ->
            let r =
              List.fold_left
                (fun acc (step, count) ->
                  Residue_set.sum_progression acc ~step ~count)
                (Residue_set.singleton t.modulus 0)
                key
            in
            Shared_residues.add skey r;
            r
      in
      Hashtbl.replace t.memo key r;
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
   class but each one only inside its own disjoint window).  Rejecting a
   dense set costs only the exact fallback query, never correctness.    *)

let dense_and_gcd gens =
  let rec go dense g span = function
    | [] -> (dense, g)
    | (step, count) :: rest ->
        let s = abs step in
        let g' = Intmath.gcd g s in
        let ok =
          g = 0
          ||
          let period = g / g' in
          count >= period && period * s <= span + g
        in
        go (dense && ok) g' (span + (s * (count - 1))) rest
  in
  go true 0 0 (List.sort (fun (a, _) (b, _) -> compare (abs a) (abs b)) gens)

(* Does a value congruent to [c] modulo [g] exist in [a, b]?  [g = 0]
   degenerates to the single value [c]. *)
let lattice_hits ~c ~g a b =
  if b < a then false
  else if g = 0 then a <= c && c <= b
  else Intmath.multiples_in ~lo:(a - c) ~hi:(b - c) g > 0

(* Recursion steps allowed to one interval query, or to one segment's
   window walk. *)
let interval_fuel = 4096

(* Exact query: does the image of [const + generators] intersect [a, b]?
   [fuel] bounds the recursion; on exhaustion we answer with the dense
   approximation (and the caller counts a fallback via the return flag). *)
let rec hits_interval ~fuel const gens a b =
  let mn, mx = Box.value_range const gens in
  if mx < a || mn > b then (false, true)
  else if mn >= a && mx <= b then (true, true)
  else
    let dense, g = dense_and_gcd gens in
    if dense then (lattice_hits ~c:const ~g (max a mn) (min b mx), true)
    else if !fuel <= 0 then (lattice_hits ~c:const ~g (max a mn) (min b mx), false)
    else begin
      decr fuel;
      (* Branch on the coarsest generator; only the steps whose translate of
         the remaining sub-image can reach [a, b] are explored. *)
      let (step, count), rest =
        match
          List.stable_sort (fun (x, _) (y, _) -> compare (abs y) (abs x)) gens
        with
        | [] -> assert false
        | hd :: tl -> (hd, tl)
      in
      let rmn, rmx = Box.value_range const rest in
      (* Need step * k in [a - rmx, b - rmn]. *)
      let lo_n = a - rmx and hi_n = b - rmn in
      let k_lo, k_hi =
        if step > 0 then (Intmath.ceil_div lo_n step, Intmath.floor_div hi_n step)
        else (Intmath.ceil_div hi_n step, Intmath.floor_div lo_n step)
      in
      let k_lo = max k_lo 0 and k_hi = min k_hi (count - 1) in
      let result = ref false and exact = ref true in
      let k = ref k_lo in
      while (not !result) && !k <= k_hi do
        let hit, ex = hits_interval ~fuel (const + (step * !k)) rest a b in
        if hit then result := true;
        if not ex then exact := false;
        incr k
      done;
      (!result, !result || !exact)
    end

(* ------------------------------------------------------------------ *)
(* Interference counting.                                               *)

(* A segment is the image of one reference over one path box (or a single
   endpoint access): a constant plus generators. *)
type segment = { const : int; gens : (int * int) list }

(* Windows [[base + m*modulus, base + m*modulus + line)] holding a point
   of a sparse lattice.  The lattice is [{mn + g*j : 0 <= j <= (mx - mn) /
   g}] with [g > line], so a window holds at most one point and the
   points' windows come in increasing order.  [take] is offered each such window index except [m0], and the
   walk stops once it answers [false]: [Intmath.next_window_hit] jumps from
   one hitting point to the next, so no empty window is visited. *)
let lattice_windows ~base ~modulus ~line ~mn ~mx ~g ~m0 take =
  let a = mn - base in
  let last = (mx - mn) / g in
  let j = ref 0 in
  while !j <= last do
    match Intmath.next_window_hit ~a ~g ~m:modulus ~len:line !j with
    | Some hit when hit <= last ->
        let m = Intmath.floor_div (a + (g * hit)) modulus in
        j := if m = m0 || take m then hit + 1 else last + 1
    | Some _ | None -> j := last + 1
  done

(* Count distinct memory lines, different from [line_a], mapping to cache
   set [set], touched by the segments; counting stops at [cap].  Lines in
   set [set] are exactly [set + m * sets] for integer [m]; a value [v]
   belongs to that line's window iff [v in [set*L + m*M, set*L + m*M + L)]
   with [M = sets * L].

   A dense segment's image is exactly the lattice [const + g*Z] cut to
   [mn, mx], so it is answered in closed form without a residue image:
   with [g <= L] every window inside [mn, mx] holds a point and the window
   walk stops within a few steps; with [g > L] [lattice_windows] visits
   only the windows that hold one.  Other segments are prefiltered by
   their residue image, then walked window by window with exact interval
   queries. *)
let count_interfering t ~set ~line_a ~cap segments =
  let cfg = t.cache in
  let l_bytes = cfg.Tiling_cache.Config.line in
  let sets = cfg.Tiling_cache.Config.sets in
  let m_big = t.modulus in
  let m0 = (line_a - set) / sets in (* line_a's own window index *)
  let found : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  let base = set * l_bytes in
  let consider seg =
    if Hashtbl.length found >= cap then ()
    else begin
      match seg.gens with
      | [] ->
          (* Single access. *)
          let v = seg.const in
          if Intmath.pos_mod (v - base) m_big < l_bytes then begin
            let m = Intmath.floor_div (v - base) m_big in
            if m <> m0 then Hashtbl.replace found m ()
          end
      | gens ->
          let dense, g = dense_and_gcd gens in
          if dense && g > l_bytes then begin
            let mn, mx = Box.value_range seg.const gens in
            lattice_windows ~base ~modulus:m_big ~line:l_bytes ~mn ~mx ~g ~m0
              (fun m ->
                Hashtbl.replace found m ();
                Hashtbl.length found < cap)
          end
          else if dense then begin
            (* O(1) per window. *)
            let mn, mx = Box.value_range seg.const gens in
            let m_hi = Intmath.floor_div (mx - base) m_big in
            let m = ref (Intmath.floor_div (mn - base) m_big) in
            while Hashtbl.length found < cap && !m <= m_hi do
              if !m <> m0 then begin
                let a = base + (!m * m_big) and b = base + (!m * m_big) + l_bytes - 1 in
                if lattice_hits ~c:seg.const ~g (max a mn) (min b mx) then
                  Hashtbl.replace found !m ()
              end;
              incr m
            done
          end
          else if
            (* The image residues are those of the generators shifted by
               const; probe the set window accordingly. *)
            Residue_set.hits_window (residues t gens) ~lo:(base - seg.const)
              ~len:l_bytes
          then begin
            let mn, mx = Box.value_range seg.const gens in
            let m_lo = Intmath.floor_div (mn - base) m_big in
            let m_hi = Intmath.floor_div (mx - base) m_big in
            if m_hi - m_lo + 1 > t.window_cap then begin
              (* Too many windows for exact enumeration of a non-dense
                 image: conservatively saturate. *)
              t.fallbacks <- t.fallbacks + 1;
              Metrics.incr m_fallbacks;
              if t.fallbacks = 1 then
                Log.debug (fun m ->
                    m "window enumeration saturated (%d windows > cap %d); \
                       counting conservatively"
                      (m_hi - m_lo + 1) t.window_cap);
              for m = m_lo to m_lo + cap do
                if m <> m0 then Hashtbl.replace found m ()
              done
            end
            else begin
              let fuel = ref interval_fuel in
              let m = ref m_lo in
              while Hashtbl.length found < cap && !m <= m_hi do
                if !m <> m0 then begin
                  let a = base + (!m * m_big) in
                  let hit, exact = hits_interval ~fuel seg.const gens a (a + l_bytes - 1) in
                  if not exact then begin
                    t.fallbacks <- t.fallbacks + 1;
                    Metrics.incr m_fallbacks
                  end;
                  if hit then Hashtbl.replace found !m ()
                end;
                incr m
              done
            end
          end
    end
  in
  List.iter consider segments;
  Hashtbl.length found

(* ------------------------------------------------------------------ *)
(* Path segments for one reuse edge.                                    *)

let segments_for_path t ~src ~src_ref ~dst ~dst_ref =
  let nrefs = Array.length t.forms in
  let boxes = Path.between t.nest ~src ~dst in
  let segs = ref [] in
  (* All references over the strictly-between boxes. *)
  List.iter
    (fun box ->
      for b = 0 to nrefs - 1 do
        let const, gens = Box.eval_form t.forms.(b) box in
        segs := { const; gens } :: !segs
      done)
    boxes;
  (* References after [src_ref] at the source point. *)
  let same_point = Nest.lex_compare src dst = 0 in
  let upto = if same_point then dst_ref else nrefs in
  for b = src_ref + 1 to upto - 1 do
    segs := { const = Affine.eval t.forms.(b) src; gens = [] } :: !segs
  done;
  (* References before [dst_ref] at the destination point. *)
  if not same_point then
    for b = 0 to dst_ref - 1 do
      segs := { const = Affine.eval t.forms.(b) dst; gens = [] } :: !segs
    done;
  !segs

(* Memory line of reference [ref_id]'s access at [point]. *)
let line_of t point ref_id =
  Intmath.floor_div (Affine.eval t.forms.(ref_id) point)
    t.cache.Tiling_cache.Config.line

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
   proved in closed form.  An interval query that runs out of fuel
   answers "yes", which costs only a descent that then finds nothing, so
   the search is exact and needs no budget. *)

(* One search: the destination, the candidate point [src] with its dims
   set so far, each reference's address over those dims, and the line's
   byte range. *)
type search = {
  eng : t;
  dst : int array;
  src : int array;
  partial : int array;
  lo_addr : int;
  hi_addr : int;
}

let shift s l v =
  for b = 0 to Array.length s.partial - 1 do
    s.partial.(b) <- s.partial.(b) + (Affine.coeff s.eng.forms.(b) l * v)
  done

(* Highest value [v] of dim [l] in [lo, hi], on the lattice [lo + step*Z],
   at which some reference's address hull reaches the line; below [lo] if
   there is none.  The hull is taken over the points with dims [< l] at
   [src] and dim [l] at [v]: a tile's element keeps to its tile when the
   tile's control is among those dims, and moves with [v] when the control
   is dim [l] itself; other deeper dims range over their static bounds.
   At the innermost dim the hull is the address itself. *)
let top_reaching s l ~lo ~hi ~step =
  let t = s.eng in
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
                wlo := max !wlo s.src.(ctrl);
                whi := min !whi (s.src.(ctrl) + tile - 1)
              end
          | Nest.Range _ | Nest.Range_affine _ | Nest.Tile_ctrl _ -> ());
          rlo := !rlo + min (cm * !wlo) (cm * !whi);
          rhi := !rhi + max (cm * !wlo) (cm * !whi)
        end
      done;
      (* The hull reaches the line iff [x <= c*v <= y]. *)
      let c = !c in
      let x = s.lo_addr - s.partial.(b) - !rhi
      and y = s.hi_addr - s.partial.(b) - !rlo in
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
      let top = min hi !vmax in
      if top >= lo then begin
        let v = lo + ((top - lo) / step * step) in
        if v >= !vmin && v > !best then best := v
      end
    done;
  !best

(* Exact query: does some reference's image over the points with dims
   [< l] at [src], dim [l] in [lo, hi] and deeper dims free meet the line?
   A query that runs out of fuel answers yes. *)
let meets s l ~lo ~hi =
  List.exists
    (fun box ->
      Array.exists
        (fun form ->
          let const, gens = Box.eval_form form box in
          let hit, exact =
            hits_interval ~fuel:(ref interval_fuel) const gens s.lo_addr
              s.hi_addr
          in
          hit || not exact)
        s.eng.forms)
    (Path.boxes_with_bounded_dim s.eng.nest ~prefix:s.src ~level:l ~iv_lo:lo
       ~iv_hi:hi)

(* Highest value in [lo, hi] whose sub-space meets the line, given that
   the whole interval does.  The first splits fall just above and at the
   destination's own coordinate [dst.(l)], where translational reuse puts
   the source; later ones halve the interval. *)
let rec bisect s l ~step lo hi =
  if lo = hi then lo
  else
    let at = lo + (Intmath.floor_div (s.dst.(l) - lo) step * step) in
    let mid =
      if lo < at + step && at + step <= hi then at + step
      else if lo < at && at <= hi then at
      else lo + (((hi - lo) / step + 1) / 2 * step)
    in
    if meets s l ~lo:mid ~hi then bisect s l ~step mid hi
    else bisect s l ~step lo (mid - step)

(* The latest reference from [b] down whose access at the complete point
   [src] is on the line, with a copy of the point. *)
let rec on_line s b =
  if b < 0 then None
  else if s.lo_addr <= s.partial.(b) && s.partial.(b) <= s.hi_addr then
    Some (Array.copy s.src, b)
  else on_line s (b - 1)

(* The latest access to the line with dims [< l] at [src] and dim [l]
   below [below]: a copy of its point and its latest reference on the
   line. *)
let rec descend s l ~below =
  let nest = s.eng.nest in
  if l = Nest.depth nest then on_line s (Array.length s.partial - 1)
  else begin
    let lo, hi, step = Nest.bounds_at nest s.src l in
    descend_from s l ~lo ~step
      (top_reaching s l ~lo ~hi:(min hi (below - step)) ~step)
  end

(* [descend] at dim [l], trying value [v] first: when nothing below [v]
   holds an access to the line, an exact query over the rest of the dim's
   range either dismisses it or leads, by bisection, to the next value to
   try. *)
and descend_from s l ~lo ~step v =
  if v < lo then None
  else begin
    s.src.(l) <- v;
    shift s l v;
    let found = descend s (l + 1) ~below:max_int in
    shift s l (-v);
    match found with
    | Some _ -> found
    | None ->
        let v' = top_reaching s l ~lo ~hi:(v - step) ~step in
        if v' >= lo && meets s l ~lo ~hi:v' then
          descend_from s l ~lo ~step (bisect s l ~step lo v')
        else None
  end

(* Slices [j] down to 0, latest first: slice [j] has dims [< j] at [dst]
   and dim [j] below [dst.(j)]. *)
let rec slices s j =
  if j < 0 then None
  else begin
    shift s j (-s.dst.(j));
    match descend s j ~below:s.dst.(j) with
    | Some _ as found -> found
    | None -> slices s (j - 1)
  end

let latest_before t ~dst ~line_a =
  let l_bytes = t.cache.Tiling_cache.Config.line in
  let s =
    {
      eng = t;
      dst;
      src = Array.copy dst;
      partial = Array.map (fun f -> Affine.eval f dst) t.forms;
      lo_addr = line_a * l_bytes;
      hi_addr = (line_a * l_bytes) + l_bytes - 1;
    }
  in
  slices s (Nest.depth t.nest - 1)

(* The latest reference before [ref_id] at [point] whose access is on the
   line. *)
let latest_at_point t point ref_id ~line_a =
  let rec go b =
    if b < 0 then None
    else if line_of t point b = line_a then Some b
    else go (b - 1)
  in
  go (ref_id - 1)

(* The reuse source of reference [ref_id] at [point]. *)
let reuse_source t point ref_id ~line_a =
  match latest_at_point t point ref_id ~line_a with
  | Some b -> Some (point, b)
  | None -> latest_before t ~dst:point ~line_a

let reuse_sources t point ref_id =
  let line_a = line_of t point ref_id in
  let here =
    match latest_at_point t point ref_id ~line_a with
    | Some b -> [ (Array.copy point, b) ]
    | None -> []
  in
  here @ Option.to_list (latest_before t ~dst:point ~line_a)

let classify t point ref_id =
  let cfg = t.cache in
  let sets = cfg.Tiling_cache.Config.sets in
  let assoc = cfg.Tiling_cache.Config.assoc in
  let line_a = line_of t point ref_id in
  let set = Intmath.pos_mod line_a sets in
  let outcome =
    match reuse_source t point ref_id ~line_a with
    | None -> Compulsory_miss
    | Some (src, src_ref) ->
        let segments =
          segments_for_path t ~src ~src_ref ~dst:point ~dst_ref:ref_id
        in
        if count_interfering t ~set ~line_a ~cap:assoc segments < assoc then Hit
        else Replacement_miss
  in
  (match outcome with
  | Hit -> Metrics.incr m_hit
  | Compulsory_miss -> Metrics.incr m_compulsory
  | Replacement_miss -> Metrics.incr m_replacement);
  outcome
