open Tiling_ir

let lattice_top ~lo ~hi ~step = lo + ((hi - lo) / step * step)

(* The decomposition is a tree walked depth-first over one mutable box.
   Dimensions are taken outermost first.  A free tiled dimension forks
   into its full-tile and partial-tile regions, and a dimension that affine
   bounds depend on forks into one child per value (pointwise pinning keeps
   the decomposition exact on triangular spaces); every other dimension
   becomes one box entry.  Each fork sets the box's origin, pushes its
   entries, recurses and pops, and each leaf is one box.  Visiting every
   fork's children in reverse yields the boxes in exactly the reverse
   order. *)

type plan = {
  nest : Nest.t;
  depth : int;
  deps : bool array;  (* dims that affine bounds depend on *)
  elem : int array;  (* element dim of each control dim; -1 elsewhere *)
  rect : bool array;
      (* control dims decomposed with their element dim by the
         full/partial-tile fork; affine element bounds, or an element dim
         that deeper bounds depend on, force pointwise enumeration *)
  fixed : bool array;  (* dims the current walk has already pinned *)
  cur : Box.cursor;
}

let plan (nest : Nest.t) =
  let depth = Nest.depth nest in
  let deps = Nest.affine_deps nest in
  let elem = Array.make depth (-1) in
  Array.iteri
    (fun e (loop : Nest.loop) ->
      match loop.shape with
      | Nest.Tile_elem { ctrl; _ } | Nest.Tile_elem_affine { ctrl; _ } ->
          elem.(ctrl) <- e
      | Nest.Range _ | Nest.Range_affine _ | Nest.Tile_ctrl _ -> ())
    nest.loops;
  let rect =
    Array.init depth (fun l ->
        elem.(l) >= 0
        &&
        match nest.loops.(elem.(l)).shape with
        | Nest.Tile_elem _ -> not deps.(elem.(l))
        | _ -> false)
  in
  {
    nest;
    depth;
    deps;
    elem;
    rect;
    fixed = Array.make depth false;
    cur = Box.cursor depth;
  }

let set p l v = p.cur.Box.origin.(l) <- v

(* Walk the dims from [l] on; [f x] is offered each box and stops the
   walk by answering [false], which every caller up the recursion
   returns. *)
let rec dims p ~rev f x l =
  if l >= p.depth then f x p.cur
  else if p.fixed.(l) then dims p ~rev f x (l + 1)
  else
    match p.nest.Nest.loops.(l).shape with
    | Nest.Range { lo; hi; step } when not p.deps.(l) ->
        set p l lo;
        entry p ~rev f x (l + 1) l step (Tiling_util.Intmath.range_count ~lo ~hi ~step)
    | Nest.Tile_ctrl { lo; hi; tile } when p.rect.(l) ->
        let el = p.elem.(l) in
        p.fixed.(el) <- true;
        let go =
          tile_fork p ~rev f x l ~lo ~hi ~tile ~iv_lo:lo
            ~iv_hi:(lattice_top ~lo ~hi ~step:tile)
        in
        p.fixed.(el) <- false;
        go
    | Nest.Tile_ctrl { lo; hi; tile } ->
        (* Pointwise control values; the element expands at its own level
           once the dims its window reads are pinned (tiled LU's element
           [i] depends on element [k], between the two). *)
        p.fixed.(l) <- true;
        let go = values p ~rev f x l ~lo ~hi ~step:tile in
        p.fixed.(l) <- false;
        go
    | (Nest.Tile_elem { ctrl; _ } | Nest.Tile_elem_affine { ctrl; _ })
      when not p.fixed.(ctrl) ->
        dims p ~rev f x (l + 1) (* covered at the ctrl dim *)
    | Nest.Range _ | Nest.Range_affine _ | Nest.Tile_elem _ | Nest.Tile_elem_affine _
      ->
        (* Every dim the bounds read is pinned by now (deps are strictly
           outer and taken first), so they evaluate exactly; an empty
           dynamic range has no box. *)
        let origin = p.cur.Box.origin in
        let lo = Nest.lo_at p.nest origin l and hi = Nest.hi_at p.nest origin l in
        let step = Nest.step_of p.nest l in
        if hi < lo then true
        else if p.deps.(l) then values p ~rev f x l ~lo ~hi ~step
        else begin
          set p l lo;
          entry p ~rev f x (l + 1) l step (Tiling_util.Intmath.range_count ~lo ~hi ~step)
        end

(* One entry [(var, inc) x count] over the box, then the dims from
   [next]; a count of 1 adds no entry and an empty one no box. *)
and entry p ~rev f x next var inc count =
  if count <= 0 then true
  else if count = 1 then dims p ~rev f x next
  else begin
    Box.push p.cur ~v1:var ~i1:inc ~v2:(-1) ~i2:0 ~count;
    let go = dims p ~rev f x next in
    Box.pop p.cur;
    go
  end

(* The tiles of rectangular control dim [l] that start in [iv_lo, iv_hi]
   (on its lattice) split into full tiles and, possibly, the loop's final
   partial tile. *)
and tile_fork p ~rev f x l ~lo ~hi ~tile ~iv_lo ~iv_hi =
  let span = hi - lo + 1 in
  let rem = span mod tile in
  let partial_start = if rem = 0 then max_int else lo + (span - rem) in
  let full_hi = Int.min iv_hi (partial_start - tile) in
  let nfull = if full_hi < iv_lo then 0 else ((full_hi - iv_lo) / tile) + 1 in
  let no_partial = partial_start < iv_lo || partial_start > iv_hi in
  if rev then
    (no_partial || partial p ~rev f x l ~at:partial_start rem)
    && (nfull = 0 || tiles p ~rev f x l ~at:iv_lo ~tile nfull)
  else
    (nfull = 0 || tiles p ~rev f x l ~at:iv_lo ~tile nfull)
    && (no_partial || partial p ~rev f x l ~at:partial_start rem)

(* [count >= 1] full tiles of control dim [l] from [at]: the control and
   its element step together by [tile], the element by 1 inside. *)
and tiles p ~rev f x l ~at ~tile count =
  let el = p.elem.(l) in
  set p l at;
  set p el at;
  if count > 1 then Box.push p.cur ~v1:l ~i1:tile ~v2:el ~i2:tile ~count;
  let go = entry p ~rev f x (l + 1) el 1 tile in
  if count > 1 then Box.pop p.cur;
  go

(* The partial tile of control dim [l] at [at], [rem] elements wide. *)
and partial p ~rev f x l ~at rem =
  set p l at;
  set p p.elem.(l) at;
  entry p ~rev f x (l + 1) p.elem.(l) 1 rem

(* One child per value of dim [l] on the lattice [lo, hi] by [step]. *)
and values p ~rev f x l ~lo ~hi ~step =
  let n = if hi < lo then 0 else ((hi - lo) / step) + 1 in
  let go = ref true and k = ref 0 in
  while !go && !k < n do
    set p l (lo + (step * if rev then n - 1 - !k else !k));
    go := dims p ~rev f x (l + 1);
    incr k
  done;
  !go

(* The boxes with dims [< level] at [prefix], dim [level] on the lattice
   interval [iv_lo, iv_hi] ([iv_lo] lattice-aligned) and deeper dims
   free. *)
let walk_bounded_dim p ~prefix ~level ~iv_lo ~iv_hi ~rev f x =
  if iv_hi < iv_lo then true
  else begin
    Box.clear p.cur;
    Array.blit prefix 0 p.cur.Box.origin 0 level;
    for l = 0 to p.depth - 1 do
      p.fixed.(l) <- l <= level
    done;
    let next = level + 1 in
    match p.nest.Nest.loops.(level).shape with
    | (Nest.Range { step; _ } | Nest.Range_affine { step; _ }) when not p.deps.(level)
      ->
        set p level iv_lo;
        entry p ~rev f x next level step
          (Tiling_util.Intmath.range_count ~lo:iv_lo ~hi:iv_hi ~step)
    | (Nest.Tile_elem _ | Nest.Tile_elem_affine _) when not p.deps.(level) ->
        set p level iv_lo;
        entry p ~rev f x next level 1 (iv_hi - iv_lo + 1)
    | Nest.Range { step; _ } | Nest.Range_affine { step; _ } ->
        values p ~rev f x level ~lo:iv_lo ~hi:iv_hi ~step
    | Nest.Tile_elem _ | Nest.Tile_elem_affine _ ->
        values p ~rev f x level ~lo:iv_lo ~hi:iv_hi ~step:1
    | Nest.Tile_ctrl { lo; hi; tile } when p.rect.(level) ->
        p.fixed.(p.elem.(level)) <- true;
        tile_fork p ~rev f x level ~lo ~hi ~tile ~iv_lo ~iv_hi
    | Nest.Tile_ctrl { tile; _ } -> values p ~rev f x level ~lo:iv_lo ~hi:iv_hi ~step:tile
  end

(* The points strictly between [src] and [dst] are the union of
   [2 * (depth - m) - 1] bounded-dim sets, [m] the first dim where they
   differ: the middle band (dim [m] strictly between), then the left
   slices extending [src]'s prefix with dim [j] above [src.(j)], then the
   right slices extending [dst]'s prefix with dim [j] below [dst.(j)]. *)
let middle p ~src ~dst m ~rev f x =
  let step = Nest.step_of p.nest m in
  walk_bounded_dim p ~prefix:src ~level:m ~iv_lo:(src.(m) + step) ~iv_hi:(dst.(m) - step)
    ~rev f x

let left p ~src j ~rev f x =
  let lo = Nest.lo_at p.nest src j and hi = Nest.hi_at p.nest src j in
  let step = Nest.step_of p.nest j in
  walk_bounded_dim p ~prefix:src ~level:j ~iv_lo:(src.(j) + step)
    ~iv_hi:(lattice_top ~lo ~hi ~step) ~rev f x

let right p ~dst j ~rev f x =
  let lo = Nest.lo_at p.nest dst j and step = Nest.step_of p.nest j in
  walk_bounded_dim p ~prefix:dst ~level:j ~iv_lo:lo ~iv_hi:(dst.(j) - step) ~rev f x

let walk_between p ~src ~dst ~rev f x =
  let d = p.depth in
  let cmp = Nest.lex_compare src dst in
  assert (cmp <= 0);
  if cmp = 0 then true
  else begin
    let m = ref 0 in
    while src.(!m) = dst.(!m) do
      incr m
    done;
    let m = !m in
    let go = ref true in
    if rev then begin
      for j = d - 1 downto m + 1 do
        if !go then go := right p ~dst j ~rev f x
      done;
      for j = d - 1 downto m + 1 do
        if !go then go := left p ~src j ~rev f x
      done;
      !go && middle p ~src ~dst m ~rev f x
    end
    else begin
      go := middle p ~src ~dst m ~rev f x;
      for j = m + 1 to d - 1 do
        if !go then go := left p ~src j ~rev f x
      done;
      for j = m + 1 to d - 1 do
        if !go then go := right p ~dst j ~rev f x
      done;
      !go
    end
  end

(* The list API collects a forward walk over a fresh plan. *)
let push_box acc c =
  acc := Box.freeze c :: !acc;
  true

let collect walk =
  let acc = ref [] in
  ignore (walk push_box acc : bool);
  List.rev !acc

let between nest ~src ~dst = collect (walk_between (plan nest) ~src ~dst ~rev:false)

let full_space nest =
  let p = plan nest in
  collect (fun f x -> dims p ~rev:false f x 0)
