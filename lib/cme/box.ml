type entry = { targets : (int * int) list; count : int }

type t = { origin : int array; entries : entry list }

let points t = List.fold_left (fun acc e -> acc * e.count) 1 t.entries

let point_at t ts =
  let p = Array.copy t.origin in
  List.iteri
    (fun i e ->
      List.iter (fun (var, inc) -> p.(var) <- p.(var) + (inc * ts.(i))) e.targets)
    t.entries;
  p

let iter_points t f =
  let entries = Array.of_list t.entries in
  let n = Array.length entries in
  let ts = Array.make n 0 in
  let rec go i =
    if i = n then f (point_at t ts)
    else
      for v = 0 to entries.(i).count - 1 do
        ts.(i) <- v;
        go (i + 1)
      done
  in
  go 0

let eval_form f box =
  let const = Tiling_ir.Affine.eval f box.origin in
  let gens =
    List.filter_map
      (fun e ->
        let step =
          List.fold_left
            (fun acc (var, inc) -> acc + (Tiling_ir.Affine.coeff f var * inc))
            0 e.targets
        in
        if step = 0 || e.count = 1 then None else Some (step, e.count))
      box.entries
  in
  (const, gens)

let value_range const gens =
  List.fold_left
    (fun (mn, mx) (step, count) ->
      let span = step * (count - 1) in
      if span >= 0 then (mn, mx + span) else (mn + span, mx))
    (const, const) gens

(* A box under construction, as a stack of entries in parallel arrays: the
   path walk pushes and pops entries and rewrites [origin] in place. *)
type cursor = {
  origin : int array;
  mutable len : int;
  var1 : int array;
  inc1 : int array;
  var2 : int array;
  inc2 : int array;
  counts : int array;
}

let cursor depth =
  let a () = Array.make depth 0 in
  {
    origin = a ();
    len = 0;
    var1 = a ();
    inc1 = a ();
    var2 = a ();
    inc2 = a ();
    counts = a ();
  }

let push c ~v1 ~i1 ~v2 ~i2 ~count =
  let e = c.len in
  c.var1.(e) <- v1;
  c.inc1.(e) <- i1;
  c.var2.(e) <- v2;
  c.inc2.(e) <- i2;
  c.counts.(e) <- count;
  c.len <- e + 1

let pop c = c.len <- c.len - 1
let clear c = c.len <- 0

let freeze c =
  let entry e =
    let first = (c.var1.(e), c.inc1.(e)) in
    let targets =
      if c.var2.(e) < 0 then [ first ] else [ first; (c.var2.(e), c.inc2.(e)) ]
    in
    { targets; count = c.counts.(e) }
  in
  { origin = Array.copy c.origin; entries = List.init c.len entry }

type image = {
  mutable const : int;
  mutable len : int;
  steps : int array;
  counts : int array;
}

let image depth =
  { const = 0; len = 0; steps = Array.make depth 0; counts = Array.make depth 0 }

(* [eval_form] over a cursor, into [img]; a cursor's counts are all >= 2. *)
let eval_into img f c =
  img.const <- Tiling_ir.Affine.eval f c.origin;
  let n = ref 0 in
  for e = 0 to c.len - 1 do
    let step =
      (Tiling_ir.Affine.coeff f c.var1.(e) * c.inc1.(e))
      + if c.var2.(e) < 0 then 0 else Tiling_ir.Affine.coeff f c.var2.(e) * c.inc2.(e)
    in
    if step <> 0 then begin
      img.steps.(!n) <- step;
      img.counts.(!n) <- c.counts.(e);
      incr n
    end
  done;
  img.len <- !n

let pp ppf (t : t) =
  Fmt.pf ppf "box{origin=%a; %a}"
    Fmt.(array ~sep:(any ",") int)
    t.origin
    Fmt.(
      list ~sep:(any "; ")
        (fun ppf e ->
          pf ppf "%a x%d"
            (list ~sep:(any "+") (fun ppf (v, i) -> pf ppf "%d*v%d" i v))
            e.targets e.count))
    t.entries
