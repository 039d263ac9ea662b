open Tiling_ir
open Tiling_polyhedra

type outcome = Hit | Compulsory_miss | Replacement_miss

(* Build the polyhedra for one segment (the image of reference [b_form]
   over [box]) against cache set [set], excluding memory line [line_a].
   Variables: one per box generator, plus the wrap variable [w] last. *)
let segment_polyhedra ~cache ~set ~line_a ~const ~gens =
  let l_bytes = cache.Tiling_cache.Config.line in
  let m_big = cache.Tiling_cache.Config.sets * l_bytes in
  let nvars = List.length gens + 1 in
  let w = nvars - 1 in
  let addr_coeffs =
    (* address = const + sum step_g * t_g *)
    let c = Array.make nvars 0 in
    List.iteri (fun g (step, _) -> c.(g) <- step) gens;
    c
  in
  let base = set * l_bytes in
  (* ranges of the generator variables *)
  let range_cons =
    List.concat
      (List.mapi
         (fun g (_, count) ->
           let unit k =
             let c = Array.make nvars 0 in
             c.(g) <- k;
             c
           in
           [ Polyhedron.ge ~coeffs:(unit 1) ~const:0;
             Polyhedron.ge ~coeffs:(unit (-1)) ~const:(count - 1) ])
         gens)
  in
  (* set membership: 0 <= addr - base - w*M <= L-1 *)
  let with_w k =
    let c = Array.copy addr_coeffs in
    c.(w) <- -m_big;
    Array.map (fun x -> k * x) c
  in
  let set_cons =
    [ Polyhedron.ge ~coeffs:(with_w 1) ~const:(const - base);
      Polyhedron.ge ~coeffs:(with_w (-1)) ~const:(base + l_bytes - 1 - const) ]
  in
  (* exclusion of line_a: addr <= line_a*L - 1  OR  addr >= (line_a+1)*L *)
  let below =
    Polyhedron.ge
      ~coeffs:(Array.map (fun x -> -x) addr_coeffs)
      ~const:((line_a * l_bytes) - 1 - const)
  in
  let above =
    Polyhedron.ge ~coeffs:addr_coeffs ~const:(const - ((line_a + 1) * l_bytes))
  in
  List.map
    (fun half ->
      Polyhedron.of_constraints ~dim:nvars (half :: (set_cons @ range_cons)))
    [ below; above ]

let replacement_polyhedra nest cache ~src ~src_ref ~dst ~dst_ref =
  let forms = Array.map (Nest.address_form nest) nest.Nest.refs in
  let nrefs = Array.length forms in
  let l_bytes = cache.Tiling_cache.Config.line in
  let sets = cache.Tiling_cache.Config.sets in
  let addr = Affine.eval forms.(dst_ref) dst in
  let line_a = Tiling_util.Intmath.floor_div addr l_bytes in
  let set = Tiling_util.Intmath.pos_mod line_a sets in
  let acc = ref [] in
  let consider ~const ~gens =
    acc := segment_polyhedra ~cache ~set ~line_a ~const ~gens @ !acc
  in
  List.iter
    (fun box ->
      for b = 0 to nrefs - 1 do
        let const, gens = Box.eval_form forms.(b) box in
        consider ~const ~gens
      done)
    (Path.between nest ~src ~dst);
  let same_point = Nest.lex_compare src dst = 0 in
  let upto = if same_point then dst_ref else nrefs in
  for b = src_ref + 1 to upto - 1 do
    consider ~const:(Affine.eval forms.(b) src) ~gens:[]
  done;
  if not same_point then
    for b = 0 to dst_ref - 1 do
      consider ~const:(Affine.eval forms.(b) dst) ~gens:[]
    done;
  !acc

let count_interference_points nest cache ~src ~src_ref ~dst ~dst_ref =
  List.fold_left
    (fun acc p -> acc + Polyhedron.count_integer_points p)
    0
    (replacement_polyhedra nest cache ~src ~src_ref ~dst ~dst_ref)

(* Associativity lattice: every integer point of a replacement polyhedron
   carries a wrap value [w], and the interfering memory line it witnesses
   is exactly [set + w * sets] — the lattice of same-set addresses stacked
   by [w].  Distinct interfering lines on the edge are therefore the
   distinct [w] values across all polyhedra (the destination's own line is
   already carved out by the below/above halves), and a k-way cache evicts
   the reused line iff at least [k] of them collide in the set.  Counting
   stops at [cap]: one collision beyond [assoc - 1] already decides the
   miss. *)
let distinct_interfering_lines ?(cap = max_int) nest cache ~src ~src_ref ~dst
    ~dst_ref =
  let seen : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (p : Polyhedron.t) ->
      let w = p.Polyhedron.dim - 1 in
      if Hashtbl.length seen < cap then
        List.iter
          (fun pt -> Hashtbl.replace seen pt.(w) ())
          (Polyhedron.integer_points p))
    (replacement_polyhedra nest cache ~src ~src_ref ~dst ~dst_ref);
  min cap (Hashtbl.length seen)

let classify nest cache point ref_id =
  let assoc = cache.Tiling_cache.Config.assoc in
  (* Reuse the engine's reuse-source search so any disagreement isolates
     the replacement-query machinery. *)
  let engine = Engine.create nest cache in
  let sources = Engine.reuse_sources engine point ref_id in
  if sources = [] then Compulsory_miss
  else if
    List.exists
      (fun (src, src_ref) ->
        distinct_interfering_lines ~cap:assoc nest cache ~src ~src_ref
          ~dst:point ~dst_ref:ref_id
        < assoc)
      sources
  then Hit
  else Replacement_miss
