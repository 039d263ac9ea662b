open Tiling_ir
open Tiling_util

module Metrics = Tiling_obs.Metrics

let m_rows = Metrics.counter "symbolic.rows"
let m_row_memo_hit = Metrics.counter "symbolic.rows.memo.hit"
let m_extrapolated = Metrics.counter "symbolic.rows.extrapolated"
let m_classified = Metrics.counter "symbolic.points.classified"
let m_parallel = Metrics.counter "symbolic.rows.parallel"
let m_ref_exhaustive = Metrics.counter "symbolic.rows.ref_exhaustive"

type reason = [ `Affine | `Budget ]

let pp_reason ppf = function
  | `Affine -> Fmt.string ppf "affine-coupled loop bounds"
  | `Budget -> Fmt.string ppf "classification budget exhausted"

exception Out_of_budget

(* Tuning constants.  [census_period_cap] bounds the sound per-row period
   the census will extrapolate from: entries whose residue period exceeds
   it are classified exhaustively (windows wide enough to prove the period
   would rival the rows themselves). *)
let census_period_cap = 32
let parallel_min_rows = 128

(* Packed per-row outcome counts: for each reference, misses and
   compulsory misses summed over the row's points. *)
type row_counts = { rc_m : int array; rc_c : int array }

let add_row_counts ~into:(m, c) rc =
  Array.iteri (fun r x -> m.(r) <- m.(r) + x) rc.rc_m;
  Array.iteri (fun r x -> c.(r) <- c.(r) + x) rc.rc_c

(* The address step of reference [r] along one box entry: moving the
   entry's counter by 1 moves every target variable by its increment. *)
let entry_step form (e : Box.entry) =
  List.fold_left
    (fun acc (var, inc) -> acc + (Affine.coeff form var * inc))
    0 e.Box.targets

(* Residue period of a box entry: the smallest counter shift that moves
   every reference's address by a multiple of the cache modulus [M = sets
   * line].  Shifting by it leaves every set index, every line offset and
   every interference residue unchanged, so past the reuse reach the
   outcome vector of the row is provably periodic with this period.  Note
   the set-space collapse for line-aligned steps: when [s = k * line],
   [M / gcd (s, M) = sets / gcd (k, sets)] — the line-offset component
   divides out and the byte-space period already *is* the set-space
   period, at most [sets] instead of [sets * line]. *)
let entry_period forms modulus (e : Box.entry) =
  Array.fold_left
    (fun acc form ->
      let s = Intmath.pos_mod (entry_step form e) modulus in
      if s = 0 then acc else Intmath.lcm acc (modulus / Intmath.gcd s modulus))
    1 forms

(* Per-variable reach of the reuse sources: the farthest (in iterations of
   that variable) any reuse vector displaces its source.  Hoisted out of
   the per-entry fold so [entry_reach_of] touches each entry target once
   instead of re-walking every reference's vector list per target. *)
let max_deltas depth reuse =
  let d = Array.make (max 1 depth) 0 in
  Array.iter
    (fun vs ->
      List.iter
        (fun (v : Tiling_reuse.Vectors.t) ->
          Array.iteri (fun i x -> if abs x > d.(i) then d.(i) <- abs x) v.delta)
        vs)
    reuse;
  d

(* How far (in entry counters) a reuse source can sit from its destination
   along this entry: bounds the boundary zone where sources fall out of
   the iteration space and the outcome pattern is not yet periodic. *)
let entry_reach_of ~max_deltas (e : Box.entry) =
  List.fold_left
    (fun acc (var, inc) ->
      if var >= Array.length max_deltas || max_deltas.(var) = 0 then acc
      else max acc (Intmath.ceil_div max_deltas.(var) (max 1 (abs inc))))
    1 e.Box.targets

let entry_reach reuse (e : Box.entry) =
  (* Exposed for tests; [estimate] hoists [max_deltas] once per call. *)
  let depth =
    Array.fold_left
      (fun acc vs ->
        List.fold_left
          (fun acc (v : Tiling_reuse.Vectors.t) ->
            max acc (Array.length v.delta))
          acc vs)
      0 reuse
  in
  entry_reach_of ~max_deltas:(max_deltas depth reuse) e

type ctx = {
  engine : Engine.t;
  nrefs : int;
  forms : Affine.t array;
  modulus : int;
  budget : int Atomic.t;
      (* remaining (point, ref) classifications, shared across domains *)
}

let charge ctx =
  Metrics.incr m_classified;
  if Atomic.fetch_and_add ctx.budget (-1) < 1 then raise Out_of_budget

let code_of = function
  | Engine.Hit -> 0
  | Engine.Replacement_miss -> 1
  | Engine.Compulsory_miss -> 2

(* Classify one point (all references) into [m]/[c], charging the budget. *)
let classify_point ctx point (m, c) =
  for r = 0 to ctx.nrefs - 1 do
    charge ctx;
    match Engine.classify ctx.engine point r with
    | Engine.Hit -> ()
    | Engine.Replacement_miss -> m.(r) <- m.(r) + 1
    | Engine.Compulsory_miss ->
        m.(r) <- m.(r) + 1;
        c.(r) <- c.(r) + 1
  done

(* ------------------------------------------------------------------ *)
(* One row: the innermost entry of a box swept over [0, n) with every
   outer entry pinned, classified independently per reference.

   Rows with a provable period [pi <= census_period_cap] classify a
   prefix and a suffix window of [w = 2*pi + reach + 4] points and, per
   reference, extrapolate the middle from the smallest period the full
   verified span supports.  Soundness: past the reach the outcome
   sequence is pi-periodic (the residue argument above), and observing
   p-periodicity over a span of length [2*pi >= pi + p] inside the
   windows pins every middle outcome to a window slot through the
   pi-translates.  The period ladder is per reference — one reference
   with a long observed period no longer forces the others (or the whole
   row) through the exhaustive path.  Entries whose period exceeds the
   cap are classified exhaustively, so the census stays exact always. *)
let row_counts ctx ~base ~(inner : Box.entry) ~pi ~reach =
  let n = inner.Box.count in
  let nrefs = ctx.nrefs in
  let m = Array.make nrefs 0 and c = Array.make nrefs 0 in
  let point = Array.copy base in
  let set_point t =
    Array.blit base 0 point 0 (Array.length base);
    List.iter
      (fun (var, inc) -> point.(var) <- point.(var) + (inc * t))
      inner.Box.targets
  in
  let codes = Array.make_matrix n nrefs (-1) in
  let get t r =
    let v = codes.(t).(r) in
    if v >= 0 then v
    else begin
      charge ctx;
      set_point t;
      let v = code_of (Engine.classify ctx.engine point r) in
      codes.(t).(r) <- v;
      v
    end
  in
  let add r v occ =
    match v with
    | 0 -> ()
    | 1 -> m.(r) <- m.(r) + occ
    | _ ->
        m.(r) <- m.(r) + occ;
        c.(r) <- c.(r) + occ
  in
  let sum_range r a b =
    for t = a to b - 1 do
      add r (get t r) 1
    done
  in
  (* Is reference [r]'s classified outcome sequence [p]-periodic over
     [a, b)?  Pattern slots are anchored at [pat_base = anchor - p], so
     checks on disjoint windows stay phase-aligned across the gap. *)
  let matches_pattern r ~anchor ~p a b =
    let pat_base = anchor - p in
    let ok = ref true in
    let t = ref a in
    while !ok && !t < b do
      if
        codes.(!t).(r)
        <> codes.(pat_base + Intmath.pos_mod (!t - pat_base) p).(r)
      then ok := false;
      incr t
    done;
    !ok
  in
  (* Closed-form occurrence extrapolation of pattern slot outcomes over
     [lo, hi), pattern anchored before [anchor]. *)
  let extrapolate r ~anchor ~p ~lo ~hi =
    let pat_base = anchor - p in
    for s = 0 to p - 1 do
      let first = lo + Intmath.pos_mod (pat_base + s - lo) p in
      if first < hi then begin
        let occ = ((hi - 1 - first) / p) + 1 in
        add r codes.(pat_base + s).(r) occ
      end
    done
  in
  let w = (2 * pi) + reach + 4 in
  if pi > census_period_cap || n <= (2 * w) + 2 then
    (* Exhaustive (and exact): no coverable period, or the whole row fits
       in the windows anyway. *)
    for r = 0 to nrefs - 1 do
      sum_range r 0 n
    done
  else
    for r = 0 to nrefs - 1 do
      for t = 0 to w - 1 do
        ignore (get t r)
      done;
      for t = n - w to n - 1 do
        ignore (get t r)
      done;
      sum_range r 0 w;
      sum_range r (n - w) n;
      (* Per-reference period ladder: the smallest p whose pattern the full
         [2*pi] verified span exhibits (that span length is what makes the
         extrapolation sound, see above).  The suffix-head check is belt
         and braces against an underestimated reach. *)
      let rec find p =
        if p > pi then None
        else if
          matches_pattern r ~anchor:w ~p (w - (2 * pi)) w
          && matches_pattern r ~anchor:w ~p (n - w) (min n (n - w + (2 * p)))
        then Some p
        else find (p + 1)
      in
      match find 1 with
      | Some p ->
          Metrics.incr m_extrapolated;
          extrapolate r ~anchor:w ~p ~lo:w ~hi:(n - w)
      | None ->
          (* Inconsistent windows (reach underestimate): classify this
             reference (alone) exhaustively, keeping the census exact. *)
          Metrics.incr m_ref_exhaustive;
          sum_range r w (n - w)
    done;
  { rc_m = m; rc_c = c }

(* Row signature for the cross-row memo: two rows whose references start
   at the same addresses modulo the cache modulus and whose outer
   counters sit at the same (period-capped) distances from their entry
   bounds classify identically — path generator counts beyond an entry's
   period only grow residue images that are already saturated.  Distances
   below the cap are kept exact, so small spaces never share falsely. *)
let row_signature ctx ~base ~outer_ts ~outer_caps =
  let sig_ = ref [] in
  for r = ctx.nrefs - 1 downto 0 do
    sig_ :=
      Intmath.pos_mod (Affine.eval ctx.forms.(r) base) ctx.modulus :: !sig_
  done;
  List.iteri
    (fun i (t, n) ->
      let cap = outer_caps.(i) in
      sig_ := min t cap :: min (n - 1 - t) cap :: !sig_)
    outer_ts;
  !sig_

(* ------------------------------------------------------------------ *)
(* Box walkers.                                                        *)

(* Static per-box analysis shared by the walkers. *)
type box_plan = {
  box : Box.t;
  inner : Box.entry option;
  outers : Box.entry array;
  pi : int; (* residue period of the inner entry *)
  reach : int;
  outer_caps : int array;
  rows : int; (* product of outer entry counts *)
}

(* Rows of a box: the product of every entry's count but the innermost
   one, which each row sweeps. *)
let box_rows (box : Box.t) =
  match List.rev box.Box.entries with
  | [] -> 1
  | _inner :: outers ->
      List.fold_left (fun acc (e : Box.entry) -> acc * e.Box.count) 1 outers

let plan_box forms modulus reuse_max_deltas (box : Box.t) =
  match List.rev box.Box.entries with
  | [] ->
      {
        box;
        inner = None;
        outers = [||];
        pi = 1;
        reach = 1;
        outer_caps = [||];
        rows = 1;
      }
  | inner :: outers_rev ->
      let outers = Array.of_list (List.rev outers_rev) in
      let pi = entry_period forms modulus inner in
      let reach =
        Array.fold_left
          (fun acc e -> max acc (entry_reach_of ~max_deltas:reuse_max_deltas e))
          (entry_reach_of ~max_deltas:reuse_max_deltas inner)
          outers
      in
      let outer_caps =
        Array.map (fun e -> entry_period forms modulus e + reach + 4) outers
      in
      let rows = box_rows box in
      { box; inner = Some inner; outers; pi; reach; outer_caps; rows }

(* Minimal classification cost of one row of this plan (used by the
   upfront budget guard, before any classification work). *)
let plan_row_cost plan =
  match plan.inner with
  | None -> 1
  | Some inner ->
      let n = inner.Box.count in
      if plan.pi > census_period_cap then n
      else
        let w = (2 * plan.pi) + plan.reach + 4 in
        min n ((2 * w) + 2)

(* Row base: origin plus the sum of every outer entry's contribution.  A
   variable may be moved by several entries (a tile-control counter and
   the element counter both shift the element variable), so this is never
   a per-entry reset. *)
let base_of plan ts =
  let base = Array.copy plan.box.Box.origin in
  Array.iteri
    (fun j (e : Box.entry) ->
      List.iter
        (fun (var, inc) -> base.(var) <- base.(var) + (inc * ts.(j)))
        e.Box.targets)
    plan.outers;
  base

(* Census walk of one box, outer counters of the outermost entry
   restricted to [lo, hi) (the parallel unit of work).  The memo is
   per-invocation: parallel chunks keep private shards and merge counts,
   never memo entries, so sharing is an optimisation that cannot change
   the sums. *)
let census_walk_range ctx plan ~memo ~counts ~lo ~hi =
  match plan.inner with
  | None ->
      Metrics.incr m_rows;
      classify_point ctx plan.box.Box.origin counts
  | Some inner ->
      let nout = Array.length plan.outers in
      let ts = Array.make nout 0 in
      let rec rows i =
        if i = nout then begin
          Metrics.incr m_rows;
          let base = base_of plan ts in
          let outer_ts =
            List.init nout (fun j -> (ts.(j), plan.outers.(j).Box.count))
          in
          let key =
            row_signature ctx ~base ~outer_ts ~outer_caps:plan.outer_caps
          in
          let rc =
            match Hashtbl.find_opt memo key with
            | Some rc ->
                Metrics.incr m_row_memo_hit;
                rc
            | None ->
                let rc =
                  row_counts ctx ~base ~inner ~pi:plan.pi ~reach:plan.reach
                in
                Hashtbl.replace memo key rc;
                rc
          in
          add_row_counts ~into:counts rc
        end
        else begin
          let l = if i = 0 then lo else 0
          and h = if i = 0 then hi else plan.outers.(i).Box.count in
          for t = l to h - 1 do
            ts.(i) <- t;
            rows (i + 1)
          done
        end
      in
      rows 0

(* ------------------------------------------------------------------ *)
(* Estimation drivers.                                                 *)

let census_estimate ~budget ~domains engine plans ~nrefs ~forms ~modulus
    ~total_points =
  (* Second upfront guard (the first, on the raw row count, runs in
     [estimate]), still before any classification: even with perfect memo
     sharing, at least one row per distinct residue tuple must be
     classified, and each costs at least its boundary windows (or the
     whole row, when no coverable period exists).  The distinct-row count
     is estimated per entry as min (count, residue period); entries that
     move the same variables can overlap, so sharing-rich tiled nests may
     be overestimated — the guard only refuses when even this floor
     exceeds the budget, where grinding was hopeless anyway. *)
  let min_cost =
    List.fold_left
      (fun acc p ->
        let distinct =
          Array.fold_left
            (fun acc (e : Box.entry) ->
              acc * min e.Box.count (entry_period forms modulus e))
            1 p.outers
        in
        acc + (distinct * nrefs * plan_row_cost p))
      0 plans
  in
  if min_cost > budget then Error `Budget
  else begin
    let nest = Engine.nest engine in
    let cache = Engine.cache engine in
    let shared_budget = Atomic.make budget in
    let main_ctx = { engine; nrefs; forms; modulus; budget = shared_budget } in
    let m = Array.make nrefs 0 and c = Array.make nrefs 0 in
    let walk_box plan =
      let n0 =
        if Array.length plan.outers = 0 then 1 else plan.outers.(0).Box.count
      in
      let want_parallel =
        domains > 1 && n0 >= 2 && plan.rows >= parallel_min_rows
      in
      if not want_parallel then begin
        let memo = Hashtbl.create 64 in
        census_walk_range main_ctx plan ~memo ~counts:(m, c) ~lo:0 ~hi:n0
      end
      else begin
        (* Parallel row walks: chunk the outermost entry over the pool.
           Each chunk classifies with its own engine (engines keep private
           memo tables and are not shared across domains) and its own memo
           shard and accumulators; the shared budget is the only
           cross-domain state.  Counts are integers, so merging in chunk
           order makes the census byte-identical to the sequential walk
           whenever the budget does not trip. *)
        let nchunks = min n0 (domains * 4) in
        let chunk_m = Array.init nchunks (fun _ -> Array.make nrefs 0) in
        let chunk_c = Array.init nchunks (fun _ -> Array.make nrefs 0) in
        let chunk_exn : exn option array = Array.make nchunks None in
        Metrics.add m_parallel plan.rows;
        Tiling_util.Pool.run ~helpers:(domains - 1) ~nchunks (fun i ->
            try
              let lo = i * n0 / nchunks and hi = (i + 1) * n0 / nchunks in
              if lo < hi then begin
                let eng = Engine.create nest cache in
                let ctx =
                  {
                    engine = eng;
                    nrefs;
                    forms;
                    modulus;
                    budget = shared_budget;
                  }
                in
                let memo = Hashtbl.create 64 in
                census_walk_range ctx plan ~memo
                  ~counts:(chunk_m.(i), chunk_c.(i))
                  ~lo ~hi
              end
            with e -> chunk_exn.(i) <- Some e);
        Array.iter (function Some e -> raise e | None -> ()) chunk_exn;
        for i = 0 to nchunks - 1 do
          add_row_counts ~into:(m, c) { rc_m = chunk_m.(i); rc_c = chunk_c.(i) }
        done
      end
    in
    match List.iter walk_box plans with
    | () ->
        let per_ref =
          Array.init nrefs (fun r ->
              {
                Estimator.r_accesses = total_points;
                r_misses = m.(r);
                r_compulsory = c.(r);
              })
        in
        Ok (Estimator.census_report ~points:total_points ~per_ref)
    | exception Out_of_budget -> Error `Budget
  end

let estimate ?(budget = 2_000_000) ?(domains = 1) engine =
  let nest = Engine.nest engine in
  let cache = Engine.cache engine in
  if Nest.has_affine nest then Error `Affine
  else begin
    let boxes = Path.full_space nest in
    (* First upfront guard, before reuse analysis and box planning: visiting
       a row costs real work (a signature and a memo probe) even when its
       classification is shared, so a space whose row count alone rivals
       the budget can never come in under it. *)
    let total_rows = List.fold_left (fun acc b -> acc + box_rows b) 0 boxes in
    if total_rows > budget / 4 then Error `Budget
    else begin
      let nrefs = Array.length nest.Nest.refs in
      let forms = Array.map (Nest.address_form nest) nest.Nest.refs in
      let line = cache.Tiling_cache.Config.line in
      let modulus = cache.Tiling_cache.Config.sets * line in
      let reuse = Tiling_reuse.Vectors.of_nest nest ~line in
      let reuse_max_deltas = max_deltas (Nest.depth nest) reuse in
      let plans = List.map (plan_box forms modulus reuse_max_deltas) boxes in
      let total_points =
        List.fold_left (fun acc b -> acc + Box.points b) 0 boxes
      in
      census_estimate ~budget ~domains engine plans ~nrefs ~forms ~modulus
        ~total_points
    end
  end
