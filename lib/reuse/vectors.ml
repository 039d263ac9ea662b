open Tiling_ir

type t = { delta : int array; spatial : bool; leader : int option }

let lex_sign delta =
  let rec go l =
    if l = Array.length delta then 0
    else if delta.(l) > 0 then 1
    else if delta.(l) < 0 then -1
    else go (l + 1)
  in
  go 0

(* Per-loop step, trip count and overall value span.  For a tile-element
   loop the span is the original loop's full extent: reuse may come from a
   different tile. *)
let loop_info (nest : Nest.t) =
  let slo, shi = Nest.static_bounds nest in
  Array.mapi
    (fun lvl (l : Nest.loop) ->
      match l.shape with
      | Nest.Range { lo; hi; step } ->
          let trip = Tiling_util.Intmath.range_count ~lo ~hi ~step in
          (step, trip, trip)
      | Nest.Range_affine { step; _ } ->
          (* Candidate enumeration works over the static hull, so a
             candidate's source may fall outside the space. *)
          let trip =
            Tiling_util.Intmath.range_count ~lo:slo.(lvl) ~hi:shi.(lvl) ~step
          in
          (step, trip, trip)
      | Nest.Tile_ctrl { lo; hi; tile } ->
          let trip = Tiling_util.Intmath.range_count ~lo ~hi ~step:tile in
          (tile, trip, trip)
      | Nest.Tile_elem { ctrl; tile; hi } ->
          let lo =
            match nest.loops.(ctrl).shape with
            | Nest.Tile_ctrl { lo; _ } -> lo
            | _ -> assert false
          in
          (1, tile, hi - lo + 1)
      | Nest.Tile_elem_affine { tile; _ } -> (1, tile, shi.(lvl) - slo.(lvl) + 1))
    nest.Nest.loops

(* Inclusive multiplier range: all k with [lo <= coeff * k <= hi], clamped
   to [-span_cap, span_cap].  Empty when [hi < lo]. *)
let mult_range ~coeff ~span_cap lo hi =
  let open Tiling_util.Intmath in
  let k_lo, k_hi =
    if coeff > 0 then (ceil_div lo coeff, floor_div hi coeff)
    else (ceil_div hi coeff, floor_div lo coeff)
  in
  (max k_lo (-span_cap), min k_hi span_cap)

let of_reference (nest : Nest.t) ~line (r : Nest.reference) =
  let d = Nest.depth nest in
  let info = loop_info nest in
  let f = Nest.address_form nest r in
  let c l = Affine.coeff f l in
  let is_ctrl l =
    match nest.Nest.loops.(l).shape with Nest.Tile_ctrl _ -> true | _ -> false
  in
  let has_tiles =
    Array.exists
      (fun (l : Nest.loop) ->
        match l.shape with
        | Nest.Tile_elem _ | Nest.Tile_elem_affine _ -> true
        | _ -> false)
      nest.Nest.loops
  in
  let seen = Hashtbl.create 64 in
  let out = ref [] in
  let emit ?leader ~spatial delta =
    (* On tiled nests the tile coordinates of [p - delta] follow from its
       element coordinates, so a lexicographically negative delta can
       still reach an earlier point; validity is then decided per point.
       On plain nests the static sign is decisive. *)
    let valid =
      match (lex_sign delta, leader) with
      | 1, _ -> true
      | -1, _ -> has_tiles
      | 0, Some b -> b < r.ref_id (* same iteration, earlier reference *)
      | 0, None -> false
      | _ -> assert false
    in
    if valid then begin
      let key = (Array.to_list delta, spatial, leader) in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.replace seen key ();
        out := { delta; spatial; leader } :: !out
      end
    end
  in
  (* Candidate deltas bringing the source address within a cache line of
     the destination: [|gap - sum_l stride_l * k_l| < line].  Dimensions
     with a non-zero address stride are searched coarsest first; each
     level enumerates every multiplier that leaves the residual gap
     bridgeable by the remaining finer dimensions plus a sub-line
     remainder.  The enumeration is complete within the per-level span
     cap and the probe budget (guards against adversarial flat-stride
     shapes), and subsumes the 0-/1-/2-dimensional special cases —
     including dimension-seam reuse that moves three or more loop
     variables at once.  Temporal reuse is the exact case (residual 0);
     same-line spatial reuse is re-checked per point. *)
  let candidates ~leader ~gap =
    let moving =
      List.init d Fun.id
      |> List.filter_map (fun l ->
             if is_ctrl l then None
             else
               let step, _, span = info.(l) in
               let stride = c l * step in
               if stride = 0 then None else Some (l, step, stride, span))
      |> List.sort (fun (_, _, s1, _) (_, _, s2, _) -> compare (abs s2) (abs s1))
    in
    let budget = ref 20_000 in
    let delta = Array.make d 0 in
    let rec go dims residual =
      decr budget;
      if !budget >= 0 then
        match dims with
        | [] ->
            if abs residual < line then
              emit ?leader ~spatial:(residual <> 0) (Array.copy delta)
        | (l, step, stride, span) :: rest ->
            let reach_rest =
              List.fold_left
                (fun acc (_, _, s, sp) -> acc + (abs s * (sp - 1)))
                (line - 1) rest
            in
            let k_lo, k_hi =
              mult_range ~coeff:stride
                ~span_cap:(min (span - 1) 64)
                (residual - reach_rest) (residual + reach_rest)
            in
            for k = k_lo to k_hi do
              delta.(l) <- k * step;
              go rest (residual - (stride * k))
            done;
            delta.(l) <- 0
    in
    go moving gap;
    (* Dimensions absent from the address: a single +/-1 movement reaches
       an earlier iteration at the same address (temporal reuse across a
       loop the subscript ignores). *)
    for l = 0 to d - 1 do
      if (not (is_ctrl l)) && c l = 0 then begin
        let step, _, span = info.(l) in
        if span > 1 && abs gap < line then begin
          let try_k k =
            let dl = Array.make d 0 in
            dl.(l) <- k * step;
            emit ?leader ~spatial:(gap <> 0) dl
          in
          try_k 1;
          try_k (-1)
        end
      end
    done
  in
  (* Exact group deltas: for uniformly generated references the temporal
     reuse vector solves [subscript_B (p - delta) = subscript_A p] one array
     dimension at a time.  When every subscript row involves a single loop
     variable (the common Fortran case) the solution is immediate; the
     contiguous dimension may keep a sub-line remainder, yielding spatial
     variants.  This covers reuse that moves several loop variables at
     once, which 1-/2-dimensional gap bridging cannot reach. *)
  let exact_group_deltas (b : Nest.reference) =
    if b.ref_id <> r.ref_id && b.array == r.array then begin
      let uniform =
        let ok = ref true in
        Array.iteri
          (fun dim row ->
            for l = 0 to d - 1 do
              if Affine.coeff row l <> Affine.coeff b.idx.(dim) l then ok := false
            done)
          r.idx;
        !ok
      in
      if uniform then begin
        let elem = r.array.Array_decl.elem_size in
        let delta = Array.make d 0 in
        let assigned = Array.make d false in
        let feasible = ref true in
        (* Dimensions 1.. must match exactly (their strides exceed a line);
           solve them first. *)
        Array.iteri
          (fun dim (row : Affine.t) ->
            if dim > 0 && !feasible then begin
              let gd = b.idx.(dim).Affine.const - row.Affine.const in
              let vars =
                List.filter (fun l -> Affine.coeff row l <> 0) (List.init d Fun.id)
              in
              match vars with
              | [] -> if gd <> 0 then feasible := false
              | [ l ] ->
                  let cl = Affine.coeff row l in
                  if gd mod cl <> 0 then feasible := false
                  else begin
                    let q = gd / cl in
                    if assigned.(l) then begin
                      if delta.(l) <> q then feasible := false
                    end
                    else begin
                      assigned.(l) <- true;
                      delta.(l) <- q
                    end
                  end
              | _ -> feasible := false (* multi-variable subscript row *)
            end)
          r.idx;
        if !feasible then begin
          (* Dimension 0 is contiguous: besides the exact solution, any
             delta landing within a cache line of the target element is a
             spatial candidate (the per-point line check filters). *)
          let row = r.idx.(0) in
          let gd = b.idx.(0).Affine.const - row.Affine.const in
          let vars =
            List.filter (fun l -> Affine.coeff row l <> 0) (List.init d Fun.id)
          in
          match vars with
          | [] -> if gd = 0 then emit ~leader:b.ref_id ~spatial:false (Array.copy delta)
          | [ l ] ->
              let cl = Affine.coeff row l in
              let q0 = Tiling_util.Intmath.floor_div gd cl in
              let kmax =
                max 1 ((line - 1) / max 1 (abs (cl * elem)))
              in
              if assigned.(l) then begin
                (* var pinned by an outer dimension: accept if within a line *)
                let rem = gd - (cl * delta.(l)) in
                if abs (rem * elem) < line then
                  emit ~leader:b.ref_id ~spatial:(rem <> 0) (Array.copy delta)
              end
              else
                for k = -kmax to kmax do
                  let dl = q0 + k in
                  let rem = gd - (cl * dl) in
                  if abs (rem * elem) < line then begin
                    let d2 = Array.copy delta in
                    d2.(l) <- dl;
                    emit ~leader:b.ref_id ~spatial:(rem <> 0) d2
                  end
                done
          | _ -> ()
        end
      end
    end
  in
  Array.iter
    (fun (b : Nest.reference) ->
      exact_group_deltas b;
      let fb = Nest.address_form nest b in
      let same_linear =
        let ok = ref true in
        for l = 0 to d - 1 do
          if Affine.coeff fb l <> c l then ok := false
        done;
        !ok
      in
      if same_linear then begin
        let leader = if b.ref_id = r.ref_id then None else Some b.ref_id in
        candidates ~leader ~gap:(fb.Affine.const - f.Affine.const)
      end)
    nest.Nest.refs;
  (* Nearest sources first: shorter deltas are closer in execution order (a
     heuristic ordering; the hit/miss outcome does not depend on it). *)
  let magnitude v = Array.fold_left (fun acc k -> acc + abs k) 0 v.delta in
  List.sort
    (fun a b ->
      let cm = compare (magnitude a) (magnitude b) in
      if cm <> 0 then cm
      else
        let cd = Nest.lex_compare a.delta b.delta in
        if cd <> 0 then cd else compare (a.spatial, a.leader) (b.spatial, b.leader))
    !out

let of_nest nest ~line =
  Array.map (fun r -> of_reference nest ~line r) nest.Nest.refs

let pp ~names ppf t =
  ignore names;
  Fmt.pf ppf "(%a)%s%s"
    Fmt.(array ~sep:(any ",") int)
    t.delta
    (if t.spatial then "s" else "t")
    (match t.leader with None -> "" | Some b -> Printf.sprintf "<-r%d" b)
