type t = { const : int; coeffs : int array }

let const ~depth c = { const = c; coeffs = Array.make depth 0 }

let var ~depth l =
  assert (0 <= l && l < depth);
  let coeffs = Array.make depth 0 in
  coeffs.(l) <- 1;
  { const = 0; coeffs }

let make ~const coeffs = { const; coeffs }

let depth t = Array.length t.coeffs

(* A plain loop: the solver's most frequent call, and a closure over the
   accumulator would box it on every evaluation. *)
let eval t point =
  assert (Array.length point = depth t);
  let acc = ref t.const in
  for l = 0 to Array.length t.coeffs - 1 do
    let c = t.coeffs.(l) in
    if c <> 0 then acc := !acc + (c * point.(l))
  done;
  !acc

let add a b =
  assert (depth a = depth b);
  { const = a.const + b.const; coeffs = Array.map2 ( + ) a.coeffs b.coeffs }

let scale k t = { const = k * t.const; coeffs = Array.map (fun c -> k * c) t.coeffs }

let sub a b = add a (scale (-1) b)

let shift t c = { t with const = t.const + c }

let is_const t = Array.for_all (fun c -> c = 0) t.coeffs

let equal a b =
  a.const = b.const && Tiling_util.Intmath.array_equal a.coeffs b.coeffs

let coeff t l = t.coeffs.(l)

let extend t ~new_depth ~remap =
  let coeffs = Array.make new_depth 0 in
  Array.iteri
    (fun l c ->
      if c <> 0 then begin
        let l' = remap l in
        assert (0 <= l' && l' < new_depth);
        coeffs.(l') <- coeffs.(l') + c
      end)
    t.coeffs;
  { const = t.const; coeffs }

let range_over t ~lo ~hi =
  let mn = ref t.const and mx = ref t.const in
  Array.iteri
    (fun l c ->
      if c > 0 then begin
        mn := !mn + (c * lo.(l));
        mx := !mx + (c * hi.(l))
      end
      else if c < 0 then begin
        mn := !mn + (c * hi.(l));
        mx := !mx + (c * lo.(l))
      end)
    t.coeffs;
  (!mn, !mx)

let pp ~names ppf t =
  let first = ref true in
  let sep () = if !first then first := false else Fmt.pf ppf " + " in
  Array.iteri
    (fun l c ->
      if c <> 0 then begin
        sep ();
        if c = 1 then Fmt.pf ppf "%s" names.(l) else Fmt.pf ppf "%d*%s" c names.(l)
      end)
    t.coeffs;
  if t.const <> 0 || !first then begin
    sep ();
    Fmt.pf ppf "%d" t.const
  end
