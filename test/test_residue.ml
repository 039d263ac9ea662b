open Tiling_util

let qcheck = QCheck_alcotest.to_alcotest

(* Naive model: a residue set as a sorted int list. *)
let model_of_progression m ~start ~step ~count =
  List.sort_uniq compare
    (List.init count (fun i -> Intmath.pos_mod (start + (i * step)) m))

let to_model t = Residue_set.elements t

let test_basics () =
  let t = Residue_set.create 10 in
  Alcotest.(check bool) "empty" true (Residue_set.is_empty t);
  Residue_set.add t 3;
  Residue_set.add t 13;
  (* = 3 mod 10 *)
  Residue_set.add t (-1);
  (* = 9 *)
  Alcotest.(check int) "cardinal" 2 (Residue_set.cardinal t);
  Alcotest.(check bool) "mem 3" true (Residue_set.mem t 3);
  Alcotest.(check bool) "mem 9" true (Residue_set.mem t 9);
  Alcotest.(check bool) "not mem 4" false (Residue_set.mem t 4);
  Alcotest.(check (list int)) "elements" [ 3; 9 ] (to_model t)

let test_full () =
  List.iter
    (fun m ->
      let t = Residue_set.full m in
      Alcotest.(check int) (Printf.sprintf "full %d cardinal" m) m
        (Residue_set.cardinal t);
      Alcotest.(check bool) "is_full" true (Residue_set.is_full t))
    [ 1; 7; 62; 63; 64; 124; 1024; 8192 ]

let test_rotate_small_and_large () =
  List.iter
    (fun m ->
      let t = Residue_set.create m in
      Residue_set.add t 0;
      Residue_set.add t 1;
      Residue_set.add t (m - 1);
      let r = Residue_set.rotate t 5 in
      let expected =
        List.sort_uniq compare
          (List.map (fun x -> Intmath.pos_mod (x + 5) m) [ 0; 1; m - 1 ])
      in
      Alcotest.(check (list int)) (Printf.sprintf "rotate m=%d" m) expected
        (to_model r))
    [ 8; 62; 64; 300; 8192 ]

let test_sum_progression_exact () =
  (* {0} + {0, 3, 6, 9} mod 10 = {0, 3, 6, 9} *)
  let t = Residue_set.singleton 10 0 in
  let s = Residue_set.sum_progression t ~step:3 ~count:4 in
  Alcotest.(check (list int)) "steps of 3" [ 0; 3; 6; 9 ] (to_model s);
  (* long progression wraps to the full subgroup <2> in Z_10 *)
  let s = Residue_set.sum_progression t ~step:2 ~count:100 in
  Alcotest.(check (list int)) "subgroup <2>" [ 0; 2; 4; 6; 8 ] (to_model s)

let test_hits_window () =
  let t = Residue_set.singleton 100 42 in
  Alcotest.(check bool) "window hit" true (Residue_set.hits_window t ~lo:40 ~len:5);
  Alcotest.(check bool) "window miss" false (Residue_set.hits_window t ~lo:43 ~len:5);
  (* wrap-around window *)
  let t = Residue_set.singleton 100 2 in
  Alcotest.(check bool) "wrapping window hit" true
    (Residue_set.hits_window t ~lo:95 ~len:10);
  Alcotest.(check bool) "zero-length window" false
    (Residue_set.hits_window t ~lo:2 ~len:0);
  Alcotest.(check bool) "full-modulus window" true
    (Residue_set.hits_window t ~lo:55 ~len:100)

let test_count_window () =
  let t = Residue_set.create 50 in
  List.iter (Residue_set.add t) [ 0; 10; 20; 30; 40 ];
  Alcotest.(check int) "count [5,35)" 3 (Residue_set.count_window t ~lo:5 ~len:30);
  Alcotest.(check int) "count wraps" 2 (Residue_set.count_window t ~lo:35 ~len:20)

let test_union_inter () =
  let a = Residue_set.create 20 and b = Residue_set.create 20 in
  List.iter (Residue_set.add a) [ 1; 2; 3 ];
  List.iter (Residue_set.add b) [ 3; 4 ];
  Residue_set.union_into ~dst:a b;
  Alcotest.(check (list int)) "union" [ 1; 2; 3; 4 ] (to_model a);
  let i = Residue_set.inter a b in
  Alcotest.(check (list int)) "inter" [ 3; 4 ] (to_model i)

(* Random-model differential tests. *)

let gen_params =
  QCheck.Gen.(
    let* m = oneofl [ 7; 32; 61; 62; 63; 64; 127; 256; 1024 ] in
    let* start = int_range (-200) 200 in
    let* step = int_range (-300) 300 in
    let* count = int_range 1 200 in
    return (m, start, step, count))

let prop_sum_progression =
  QCheck.Test.make ~name:"sum_progression equals naive sumset" ~count:400
    (QCheck.make gen_params) (fun (m, start, step, count) ->
      let base = Residue_set.singleton m start in
      let got = to_model (Residue_set.sum_progression base ~step ~count) in
      let want = model_of_progression m ~start ~step ~count in
      got = want)

let prop_rotate =
  QCheck.Test.make ~name:"rotate equals naive shift" ~count:400
    (QCheck.make
       QCheck.Gen.(
         let* m = oneofl [ 5; 62; 64; 100; 8192 ] in
         let* k = int_range (-10000) 10000 in
         let* elems = list_size (int_range 0 20) (int_range 0 (m - 1)) in
         return (m, k, elems)))
    (fun (m, k, elems) ->
      let t = Residue_set.create m in
      List.iter (Residue_set.add t) elems;
      let got = to_model (Residue_set.rotate t k) in
      let want =
        List.sort_uniq compare (List.map (fun x -> Intmath.pos_mod (x + k) m) elems)
      in
      got = want)

(* Random fills over moduli on both sides of the 62-bit word boundaries
   and large powers of two: each base set holds [start] plus a fill that
   is empty (a singleton), sparse or dense.  The model is a bool array. *)

let word_moduli = [ 1; 5; 61; 62; 63; 124; 125; 248; 249; 8192; 32768 ]

let gen_fill =
  QCheck.Gen.(
    let* m = oneofl word_moduli in
    let* start = int_range (-200) 200 in
    let* density = oneof [ return 0.; float_range 0. 0.05; float_range 0. 1. ] in
    let* seed = int_range 0 1_000_000 in
    return (m, start, density, seed))

let print_fill (m, start, density, seed) =
  Printf.sprintf "m=%d start=%d density=%g seed=%d" m start density seed

let fill_model (m, start, density, seed) =
  let st = Random.State.make [| seed |] in
  let model = Array.init m (fun _ -> Random.State.float st 1. < density) in
  model.(Intmath.pos_mod start m) <- true;
  model

let of_model model =
  let t = Residue_set.create (Array.length model) in
  Array.iteri (fun r b -> if b then Residue_set.add t r) model;
  t

(* Word-for-word equal to the set [add] builds: the same members and no
   stray bits above the modulus, which [cardinal] would count. *)
let agrees t model = Residue_set.equal t (of_model model)

let prop_rotate_fill =
  QCheck.Test.make ~name:"rotate of random fills equals naive shift" ~count:300
    (QCheck.make
       ~print:(fun (f, k) -> Printf.sprintf "%s k=%d" (print_fill f) k)
       QCheck.Gen.(pair gen_fill (int_range (-70000) 70000)))
    (fun (f, k) ->
      let model = fill_model f in
      let m = Array.length model in
      let want = Array.make m false in
      Array.iteri
        (fun r member -> if member then want.(Intmath.pos_mod (r + k) m) <- true)
        model;
      agrees (Residue_set.rotate (of_model model) k) want)

let prop_sum_progression_fill =
  QCheck.Test.make ~name:"sum_progression over random multi-element bases"
    ~count:300
    (QCheck.make
       ~print:(fun (f, step, count) ->
         Printf.sprintf "%s step=%d count=%d" (print_fill f) step count)
       QCheck.Gen.(
         let* f = gen_fill in
         let* step = oneof [ int_range (-300) 300; int_range (-100000) 100000 ] in
         let* count = int_range 1 300 in
         return (f, step, count)))
    (fun (f, step, count) ->
      let model = fill_model f in
      let m = Array.length model in
      let want = Array.make m false in
      (* Terms past the progression's period repeat earlier residues. *)
      let period = m / Intmath.gcd (Intmath.pos_mod step m) m in
      Array.iteri
        (fun r member ->
          if member then
            for i = 0 to min count period - 1 do
              want.(Intmath.pos_mod (r + (i * step)) m) <- true
            done)
        model;
      agrees (Residue_set.sum_progression (of_model model) ~step ~count) want)

let prop_window =
  QCheck.Test.make ~name:"hits_window / count_window vs naive" ~count:400
    (QCheck.make
       QCheck.Gen.(
         let* m = oneofl [ 13; 62; 64; 100 ] in
         let* elems = list_size (int_range 0 15) (int_range 0 (m - 1)) in
         let* lo = int_range (-50) 200 in
         let* len = int_range 0 (2 * m) in
         return (m, elems, lo, len)))
    (fun (m, elems, lo, len) ->
      let t = Residue_set.create m in
      List.iter (Residue_set.add t) elems;
      let in_window r =
        len > 0
        && (let d = Intmath.pos_mod (r - lo) m in
            d < min len m)
      in
      let want = List.sort_uniq compare (List.filter in_window elems) in
      Residue_set.hits_window t ~lo ~len = (want <> [])
      && Residue_set.count_window t ~lo ~len = List.length want)

let suite =
  [
    Alcotest.test_case "basics" `Quick test_basics;
    Alcotest.test_case "full sets" `Quick test_full;
    Alcotest.test_case "rotate" `Quick test_rotate_small_and_large;
    Alcotest.test_case "sum_progression exact" `Quick test_sum_progression_exact;
    Alcotest.test_case "hits_window" `Quick test_hits_window;
    Alcotest.test_case "count_window" `Quick test_count_window;
    Alcotest.test_case "union/inter" `Quick test_union_inter;
    qcheck prop_sum_progression;
    qcheck prop_rotate;
    qcheck prop_window;
    qcheck prop_rotate_fill;
    qcheck prop_sum_progression_fill;
  ]
