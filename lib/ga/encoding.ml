open Tiling_util

type t = {
  uppers : int array;
  bits : int array;
  gene_offsets : int array;
  total_genes : int;
}

let bits_for u =
  assert (u >= 1);
  let k = max 1 (Intmath.ceil_log2 u) in
  if k land 1 = 1 then k + 1 else k

let make uppers =
  assert (Array.length uppers > 0);
  let bits = Array.map bits_for uppers in
  let gene_offsets = Array.make (Array.length uppers) 0 in
  let total = ref 0 in
  Array.iteri
    (fun i k ->
      gene_offsets.(i) <- !total;
      total := !total + (k / 2))
    bits;
  { uppers; bits; gene_offsets; total_genes = !total }

let decode_value ~bits ~upper x =
  let top = (1 lsl bits) - 1 in
  assert (x >= 0 && x <= top);
  (x * (upper - 1) / top) + 1

let encode_value ~bits ~upper value =
  assert (value >= 1 && value <= upper);
  if upper = 1 then 0
  else begin
    (* Smallest x with g(x) = value: ceil ((value - 1) * (2^k - 1)
       / (upper - 1)); adjust upward past truncation boundaries. *)
    let m = Intmath.pow 2 bits - 1 in
    let x = ref (Intmath.ceil_div ((value - 1) * m) (upper - 1)) in
    while decode_value ~bits ~upper !x < value do
      incr x
    done;
    assert (decode_value ~bits ~upper !x = value);
    !x
  end

let chromosome_value t genes i =
  let ngenes = t.bits.(i) / 2 in
  let off = t.gene_offsets.(i) in
  let v = ref 0 in
  for g = 0 to ngenes - 1 do
    v := (!v * 4) + genes.(off + g)
  done;
  !v

let decode t genes =
  assert (Array.length genes = t.total_genes);
  let values = Array.make (Array.length t.uppers) 0 in
  for i = 0 to Array.length values - 1 do
    values.(i) <-
      decode_value ~bits:t.bits.(i) ~upper:t.uppers.(i) (chromosome_value t genes i)
  done;
  values

let encode t values =
  assert (Array.length values = Array.length t.uppers);
  let genes = Array.make t.total_genes 0 in
  Array.iteri
    (fun i value ->
      let x = encode_value ~bits:t.bits.(i) ~upper:t.uppers.(i) value in
      let ngenes = t.bits.(i) / 2 in
      let off = t.gene_offsets.(i) in
      for g = 0 to ngenes - 1 do
        genes.(off + g) <- (x lsr (2 * (ngenes - 1 - g))) land 3
      done)
    values;
  genes

let random_genes t rng = Array.init t.total_genes (fun _ -> Prng.int rng 4)
