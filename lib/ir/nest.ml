type shape =
  | Range of { lo : int; hi : int; step : int }
  | Range_affine of { lo : Affine.t; hi : Affine.t; step : int }
  | Tile_ctrl of { lo : int; hi : int; tile : int }
  | Tile_elem of { ctrl : int; tile : int; hi : int }
  | Tile_elem_affine of { ctrl : int; tile : int; lo : Affine.t; hi : Affine.t }

type loop = { var : string; shape : shape }

type access = Read | Write

type reference = {
  ref_id : int;
  array : Array_decl.t;
  idx : Affine.t array;
  access : access;
}

type t = {
  name : string;
  loops : loop array;
  refs : reference array;
  arrays : Array_decl.t list;
}

let depth t = Array.length t.loops

let var_names t = Array.map (fun l -> l.var) t.loops

let is_affine_shape = function
  | Range_affine _ | Tile_elem_affine _ -> true
  | Range _ | Tile_ctrl _ | Tile_elem _ -> false

let has_affine t = Array.exists (fun l -> is_affine_shape l.shape) t.loops

(* Static (constant) bounding box of the loop values, computed
   outermost-first: affine bounds are widened over the boxes of the outer
   dimensions ([Affine.range_over]), so the box over-approximates triangular
   spaces but is exact for rectangular nests. *)
let static_bounds_of loops =
  let d = Array.length loops in
  let slo = Array.make d 0 and shi = Array.make d 0 in
  Array.iteri
    (fun l loop ->
      let mn, mx =
        match loop.shape with
        | Range { lo; hi; _ } -> (lo, hi)
        | Tile_ctrl { lo; hi; _ } -> (lo, hi)
        | Tile_elem { ctrl; hi; _ } -> (slo.(ctrl), hi)
        | Range_affine { lo; hi; _ } | Tile_elem_affine { lo; hi; _ } ->
            let mn, _ = Affine.range_over lo ~lo:slo ~hi:shi in
            let _, mx = Affine.range_over hi ~lo:slo ~hi:shi in
            (mn, mx)
      in
      slo.(l) <- mn;
      shi.(l) <- mx)
    loops;
  (slo, shi)

let static_bounds t = static_bounds_of t.loops

(* Dimensions some affine bound depends on.  Those dimensions cannot stay
   symbolic when decomposing the space into constant-shape regions: their
   values pin the bounds of the deeper loops. *)
let affine_deps t =
  let d = depth t in
  let dep = Array.make d false in
  let mark (f : Affine.t) =
    Array.iteri (fun q c -> if c <> 0 then dep.(q) <- true) f.Affine.coeffs
  in
  Array.iter
    (fun loop ->
      match loop.shape with
      | Range_affine { lo; hi; _ } | Tile_elem_affine { lo; hi; _ } ->
          mark lo;
          mark hi
      | Range _ | Tile_ctrl _ | Tile_elem _ -> ())
    t.loops;
  dep

let validate name loops refs =
  let d = Array.length loops in
  if d = 0 then invalid_arg (name ^ ": empty nest");
  let names = Array.map (fun l -> l.var) loops in
  Array.iteri
    (fun i v ->
      for j = i + 1 to d - 1 do
        if String.equal v names.(j) then
          invalid_arg (Printf.sprintf "%s: duplicate loop variable %s" name v)
      done)
    names;
  (* Affine bounds may only reference strictly outer, non-control loop
     variables: execution order stays lexicographic and control coordinates
     remain derivable from element coordinates. *)
  let check_form l (f : Affine.t) =
    if Affine.depth f <> d then
      invalid_arg (Printf.sprintf "%s: bound depth mismatch on %s" name loops.(l).var);
    Array.iteri
      (fun q c ->
        if c <> 0 then begin
          if q >= l then
            invalid_arg
              (Printf.sprintf "%s: %s bound depends on non-outer loop %s" name
                 loops.(l).var names.(q));
          match loops.(q).shape with
          | Tile_ctrl _ ->
              invalid_arg
                (Printf.sprintf "%s: %s bound depends on control loop %s" name
                   loops.(l).var names.(q))
          | _ -> ()
        end)
      f.Affine.coeffs
  in
  let slo, shi = static_bounds_of loops in
  Array.iteri
    (fun l loop ->
      match loop.shape with
      | Range { lo; hi; step } ->
          if step <= 0 || hi < lo then
            invalid_arg (Printf.sprintf "%s: loop %s has empty range" name loop.var)
      | Range_affine { lo; hi; step } ->
          (* Dependent ranges may be empty for some outer values; only the
             step is unconditionally constrained. *)
          if step <= 0 then
            invalid_arg (Printf.sprintf "%s: loop %s has bad step" name loop.var);
          check_form l lo;
          check_form l hi
      | Tile_ctrl { lo; hi; tile } ->
          if tile <= 0 || hi < lo then
            invalid_arg (Printf.sprintf "%s: bad tile loop %s" name loop.var)
      | Tile_elem { ctrl; tile; hi = _ } ->
          if ctrl < 0 || ctrl >= l then
            invalid_arg (Printf.sprintf "%s: %s references bad ctrl loop" name loop.var);
          (match loops.(ctrl).shape with
          | Tile_ctrl c when c.tile = tile -> ()
          | _ -> invalid_arg (Printf.sprintf "%s: %s ctrl mismatch" name loop.var))
      | Tile_elem_affine { ctrl; tile; lo; hi } ->
          if ctrl < 0 || ctrl >= l then
            invalid_arg (Printf.sprintf "%s: %s references bad ctrl loop" name loop.var);
          check_form l lo;
          check_form l hi;
          (match loops.(ctrl).shape with
          | Tile_ctrl c when c.tile = tile ->
              (* The control loop's windows must cover the whole affine
                 range, or tiling would drop iteration points. *)
              if c.lo > slo.(l) || c.hi + tile - 1 < shi.(l) then
                invalid_arg
                  (Printf.sprintf "%s: %s ctrl does not cover its affine range"
                     name loop.var)
          | _ -> invalid_arg (Printf.sprintf "%s: %s ctrl mismatch" name loop.var)))
    loops;
  Array.iter
    (fun (arr, idx, _) ->
      if Array.length idx <> Array_decl.rank arr then
        invalid_arg (Printf.sprintf "%s: subscript rank mismatch on %s" name arr.Array_decl.name);
      Array.iter (fun f -> if Affine.depth f <> d then invalid_arg (name ^ ": subscript depth")) idx)
    refs

let lo_at t point l =
  match t.loops.(l).shape with
  | Range { lo; _ } | Tile_ctrl { lo; _ } -> lo
  | Range_affine { lo; _ } -> Affine.eval lo point
  | Tile_elem { ctrl; _ } -> point.(ctrl)
  | Tile_elem_affine { ctrl; lo; _ } -> Int.max point.(ctrl) (Affine.eval lo point)

let hi_at t point l =
  match t.loops.(l).shape with
  | Range { hi; _ } | Tile_ctrl { hi; _ } -> hi
  | Range_affine { hi; _ } -> Affine.eval hi point
  | Tile_elem { ctrl; tile; hi } -> Int.min (point.(ctrl) + tile - 1) hi
  | Tile_elem_affine { ctrl; tile; hi; _ } ->
      Int.min (point.(ctrl) + tile - 1) (Affine.eval hi point)

let step_of t l =
  match t.loops.(l).shape with
  | Range { step; _ } | Range_affine { step; _ } -> step
  | Tile_ctrl { tile; _ } -> tile
  | Tile_elem _ | Tile_elem_affine _ -> 1

let bounds_at t point l = (lo_at t point l, hi_at t point l, step_of t l)

let mem_point t point =
  Array.length point = depth t
  && begin
       let ok = ref true in
       for l = 0 to depth t - 1 do
         let lo, hi, step = bounds_at t point l in
         let v = point.(l) in
         if v < lo || v > hi || (v - lo) mod step <> 0 then ok := false
       done;
       !ok
     end

let rec lex_from (a : int array) b l =
  if l = Array.length a then 0
  else
    let c = compare a.(l) b.(l) in
    if c <> 0 then c else lex_from a b (l + 1)

let lex_compare a b =
  assert (Array.length b = Array.length a);
  lex_from a b 0

(* Per-dimension count contribution: control loops contribute nothing (the
   matching element loop spans the original loop, since tile windows
   partition it), element loops count their original span. *)
let count_span t point l =
  match t.loops.(l).shape with
  | Tile_ctrl _ -> None
  | Range { lo; hi; step } -> Some (lo, hi, step)
  | Range_affine { lo; hi; step } ->
      Some (Affine.eval lo point, Affine.eval hi point, step)
  | Tile_elem { ctrl; tile = _; hi } ->
      (match t.loops.(ctrl).shape with
      | Tile_ctrl { lo; _ } -> Some (lo, hi, 1)
      | _ -> assert false)
  | Tile_elem_affine { lo; hi; _ } ->
      Some (Affine.eval lo point, Affine.eval hi point, 1)

let trip_count t =
  let d = depth t in
  let dep = affine_deps t in
  let point = Array.make d 0 in
  (* Dimensions no deeper bound depends on contribute a product factor;
     the others are summed over pointwise.  For rectangular nests this
     degenerates to the familiar product of trip counts. *)
  let rec go l =
    if l = d then 1
    else
      match count_span t point l with
      | None -> go (l + 1)
      | Some (lo, hi, step) ->
          if hi < lo then 0
          else if dep.(l) then begin
            let acc = ref 0 in
            let v = ref lo in
            while !v <= hi do
              point.(l) <- !v;
              acc := !acc + go (l + 1);
              v := !v + step
            done;
            !acc
          end
          else Tiling_util.Intmath.range_count ~lo ~hi ~step * go (l + 1)
  in
  go 0

let make ~name ~loops ~refs ~arrays =
  validate name loops refs;
  let refs =
    Array.mapi (fun i (array, idx, access) -> { ref_id = i; array; idx; access }) refs
  in
  let t = { name; loops; refs; arrays } in
  if Array.exists (fun l -> is_affine_shape l.shape) loops && trip_count t = 0 then
    invalid_arg (name ^ ": affine bounds leave the nest empty");
  t

let clone t =
  (* Fresh array declarations (layout and base are mutable under padding),
     with every reference re-bound to its array's copy by physical
     identity. *)
  let fresh = List.map (fun a -> (a, Array_decl.copy a)) t.arrays in
  let swap a = match List.assq_opt a fresh with Some a' -> a' | None -> a in
  {
    t with
    refs = Array.map (fun r -> { r with array = swap r.array }) t.refs;
    arrays = List.map snd fresh;
  }

let iter_points t f =
  let d = depth t in
  let point = Array.make d 0 in
  let rec go l =
    if l = d then f point
    else begin
      let lo, hi, step = bounds_at t point l in
      let v = ref lo in
      while !v <= hi do
        point.(l) <- !v;
        go (l + 1);
        v := !v + step
      done
    end
  in
  go 0

(* One draw of every coordinate from the static box.  For affine
   dimensions the draw is uniform over the whole integer interval (not a
   lattice: the dynamic lattice is anchored at the dynamic lower bound);
   the caller rejects invalid points. *)
let draw_box t rng point slo shi =
  let d = depth t in
  for l = 0 to d - 1 do
    match t.loops.(l).shape with
    | Range { lo; hi; step } ->
        let n = Tiling_util.Intmath.range_count ~lo ~hi ~step in
        point.(l) <- lo + (step * Tiling_util.Prng.int rng n)
    | Range_affine _ ->
        point.(l) <- Tiling_util.Prng.int_in rng ~lo:slo.(l) ~hi:shi.(l)
    | Tile_ctrl _ -> () (* set below, jointly with the matching elem loop *)
    | Tile_elem { ctrl; tile; hi = _ } ->
        (match t.loops.(ctrl).shape with
        | Tile_ctrl { lo; hi = _; tile = _ } ->
            let v = Tiling_util.Prng.int_in rng ~lo ~hi:shi.(l) in
            point.(ctrl) <- lo + ((v - lo) / tile * tile);
            point.(l) <- v
        | _ -> assert false)
    | Tile_elem_affine { ctrl; tile; _ } ->
        (match t.loops.(ctrl).shape with
        | Tile_ctrl { lo; _ } ->
            let v = Tiling_util.Prng.int_in rng ~lo:slo.(l) ~hi:shi.(l) in
            point.(ctrl) <- lo + ((v - lo) / tile * tile);
            point.(l) <- v
        | _ -> assert false)
  done

let random_point_into t rng point =
  let d = depth t in
  if Array.length point <> d then invalid_arg "random_point_into: depth mismatch";
  if not (has_affine t) then
    (* Rectangular fast path, drawing exactly the historical rng stream. *)
    for l = 0 to d - 1 do
      match t.loops.(l).shape with
      | Range { lo; hi; step } ->
          let n = Tiling_util.Intmath.range_count ~lo ~hi ~step in
          point.(l) <- lo + (step * Tiling_util.Prng.int rng n)
      | Tile_ctrl _ -> ()
      | Tile_elem { ctrl; tile; hi } ->
          (* Sample the original loop value uniformly and derive the tile it
             falls into: this keeps the joint (ctrl, elem) pair uniform over
             the original span even when the last tile is partial. *)
          (match t.loops.(ctrl).shape with
          | Tile_ctrl { lo; hi = _; tile = _ } ->
              let v = Tiling_util.Prng.int_in rng ~lo ~hi in
              point.(ctrl) <- lo + ((v - lo) / tile * tile);
              point.(l) <- v
          | _ -> assert false)
      | Range_affine _ | Tile_elem_affine _ -> assert false
    done
  else begin
    (* Rejection sampling over the static box: every valid point is equally
       likely.  [make] guarantees the space is non-empty, so acceptance is
       bounded below by 1/box-to-space ratio. *)
    let slo, shi = static_bounds t in
    let accepted = ref false in
    let tries = ref 0 in
    while not !accepted do
      draw_box t rng point slo shi;
      if mem_point t point then accepted := true
      else begin
        incr tries;
        if !tries > 1_000_000 then
          failwith "random_point_into: rejection sampling failed to converge"
      end
    done
  end

let random_point t rng =
  let point = Array.make (depth t) 0 in
  random_point_into t rng point;
  point

let address_form t r =
  let d = depth t in
  let strides = Array_decl.strides r.array in
  let acc = ref (Affine.const ~depth:d r.array.Array_decl.base) in
  Array.iteri
    (fun k f -> acc := Affine.add !acc (Affine.scale strides.(k) f))
    r.idx;
  !acc

let touched_bytes t =
  List.fold_left (fun acc a -> acc + Array_decl.footprint a) 0 t.arrays

let pp ppf t =
  let names = var_names t in
  let indent l = String.make (2 * l) ' ' in
  let aff ppf f = Affine.pp ~names ppf f in
  Fmt.pf ppf "! nest %s@." t.name;
  Array.iteri
    (fun l loop ->
      match loop.shape with
      | Range { lo; hi; step } ->
          if step = 1 then Fmt.pf ppf "%sdo %s = %d, %d@." (indent l) loop.var lo hi
          else Fmt.pf ppf "%sdo %s = %d, %d, %d@." (indent l) loop.var lo hi step
      | Range_affine { lo; hi; step } ->
          if step = 1 then
            Fmt.pf ppf "%sdo %s = %a, %a@." (indent l) loop.var aff lo aff hi
          else Fmt.pf ppf "%sdo %s = %a, %a, %d@." (indent l) loop.var aff lo aff hi step
      | Tile_ctrl { lo; hi; tile } ->
          Fmt.pf ppf "%sdo %s = %d, %d, %d@." (indent l) loop.var lo hi tile
      | Tile_elem { ctrl; tile; hi } ->
          Fmt.pf ppf "%sdo %s = %s, min(%s+%d, %d)@." (indent l) loop.var
            t.loops.(ctrl).var t.loops.(ctrl).var (tile - 1) hi
      | Tile_elem_affine { ctrl; tile; lo; hi } ->
          Fmt.pf ppf "%sdo %s = max(%s, %a), min(%s+%d, %a)@." (indent l) loop.var
            t.loops.(ctrl).var aff lo t.loops.(ctrl).var (tile - 1) aff hi)
    t.loops;
  let d = depth t in
  Array.iter
    (fun r ->
      Fmt.pf ppf "%s%s %s(%a)@." (indent d)
        (match r.access with Read -> "load " | Write -> "store")
        r.array.Array_decl.name
        Fmt.(array ~sep:(any ", ") (fun ppf f -> Affine.pp ~names ppf (Affine.shift f 1)))
        r.idx)
    t.refs;
  Array.iteri
    (fun l loop ->
      ignore loop;
      Fmt.pf ppf "%senddo@." (indent (d - 1 - l)))
    t.loops
