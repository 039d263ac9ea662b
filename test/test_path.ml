open Tiling_ir
open Tiling_cme

let qcheck = QCheck_alcotest.to_alcotest

(* Reference model: enumerate all points of the nest and keep those
   strictly between src and dst in lexicographic order. *)
let model_between nest ~src ~dst =
  let acc = ref [] in
  Nest.iter_points nest (fun p ->
      if Nest.lex_compare src p < 0 && Nest.lex_compare p dst < 0 then
        acc := Array.to_list p :: !acc);
  List.sort compare !acc

let boxes_points boxes =
  let acc = ref [] in
  List.iter (fun b -> Box.iter_points b (fun p -> acc := Array.to_list p :: !acc)) boxes;
  List.sort compare !acc

let check_between nest ~src ~dst =
  let got = boxes_points (Path.between nest ~src ~dst) in
  let want = model_between nest ~src ~dst in
  if got <> want then
    Alcotest.failf "between %s .. %s: got %d points, want %d (src/dst nest %s)"
      (String.concat "," (List.map string_of_int (Array.to_list src)))
      (String.concat "," (List.map string_of_int (Array.to_list dst)))
      (List.length got) (List.length want) nest.Nest.name;
  (* disjointness: multiset size must equal set size *)
  Alcotest.(check int) "disjoint boxes" (List.length got)
    (List.length (List.sort_uniq compare got))

let test_between_plain () =
  let nest = Tiling_kernels.Kernels.mm 4 in
  check_between nest ~src:[| 1; 1; 1 |] ~dst:[| 1; 1; 1 |];
  check_between nest ~src:[| 1; 1; 1 |] ~dst:[| 1; 1; 2 |];
  check_between nest ~src:[| 1; 1; 1 |] ~dst:[| 4; 4; 4 |];
  check_between nest ~src:[| 2; 3; 4 |] ~dst:[| 3; 2; 1 |];
  check_between nest ~src:[| 1; 4; 4 |] ~dst:[| 2; 1; 1 |]

let test_between_tiled () =
  let nest = Transform.tile (Tiling_kernels.Kernels.mm 7) [| 3; 2; 7 |] in
  (* adjacent points within a tile *)
  check_between nest ~src:[| 1; 1; 1; 1; 1; 1 |] ~dst:[| 1; 1; 1; 1; 1; 3 |];
  (* across a tile boundary *)
  check_between nest ~src:[| 1; 1; 1; 2; 2; 6 |] ~dst:[| 4; 3; 1; 5; 3; 2 |];
  (* across the partial i-tile (7 = 2*3 + 1) *)
  check_between nest ~src:[| 4; 5; 1; 5; 5; 4 |] ~dst:[| 7; 7; 1; 7; 7; 2 |];
  (* whole space *)
  check_between nest ~src:[| 1; 1; 1; 1; 1; 1 |] ~dst:[| 7; 7; 1; 7; 7; 7 |]

let test_full_space () =
  List.iter
    (fun nest ->
      let total =
        List.fold_left (fun acc b -> acc + Box.points b) 0 (Path.full_space nest)
      in
      Alcotest.(check int)
        (Printf.sprintf "%s full space" nest.Nest.name)
        (Nest.trip_count nest) total)
    [
      Tiling_kernels.Kernels.mm 5;
      Transform.tile (Tiling_kernels.Kernels.mm 7) [| 3; 2; 7 |];
      Transform.tile (Tiling_kernels.Kernels.t2d 9) [| 4; 5 |];
      Tiling_kernels.Kernels.jacobi3d 6;
    ]

let test_full_space_partitions () =
  (* The boxes partition the iteration space: walking every box's points
     visits each point of the nest exactly once — on triangular kernels,
     where the decomposition pins a dimension per value, and tiled. *)
  List.iter
    (fun nest ->
      let want = ref [] in
      Nest.iter_points nest (fun p -> want := Array.to_list p :: !want);
      let got = boxes_points (Path.full_space nest) in
      if got <> List.sort compare !want then
        Alcotest.failf "%s: the boxes visit %d points, the nest has %d"
          nest.Nest.name (List.length got) (List.length !want))
    [
      Tiling_kernels.Kernels.lu 9;
      Tiling_kernels.Kernels.cholesky 9;
      Tiling_kernels.Kernels.mm 8;
      Transform.tile (Tiling_kernels.Kernels.lu 9) [| 4; 2; 3 |];
    ]

let test_full_space_region_count () =
  (* Section 2.4: one convex region per combination of full/partial tiles. *)
  let nest = Tiling_kernels.Kernels.mm 10 in
  let regions tiles = List.length (Path.full_space (Transform.tile nest tiles)) in
  Alcotest.(check int) "all dividing" 1 (regions [| 2; 5; 10 |]);
  Alcotest.(check int) "one ragged dim" 2 (regions [| 3; 5; 10 |]);
  Alcotest.(check int) "two ragged dims" 4 (regions [| 3; 4; 10 |]);
  Alcotest.(check int) "three ragged dims" 8 (regions [| 3; 4; 7 |])

let prop_between_random_tiled =
  QCheck.Test.make ~name:"between matches enumeration on random tiled pairs"
    ~count:60
    (QCheck.make
       QCheck.Gen.(
         let* t1 = int_range 1 6 in
         let* t2 = int_range 1 6 in
         let* seed = int_range 0 10000 in
         return (t1, t2, seed)))
    (fun (t1, t2, seed) ->
      let nest = Transform.tile (Tiling_kernels.Kernels.t2d 6) [| t1; t2 |] in
      let rng = Tiling_util.Prng.create ~seed in
      let a = Nest.random_point nest rng in
      let b = Nest.random_point nest rng in
      let src, dst = if Nest.lex_compare a b <= 0 then (a, b) else (b, a) in
      boxes_points (Path.between nest ~src ~dst) = model_between nest ~src ~dst)

let suite =
  [
    Alcotest.test_case "between on plain nests" `Quick test_between_plain;
    Alcotest.test_case "between on tiled nests" `Quick test_between_tiled;
    Alcotest.test_case "full space covers trip count" `Quick test_full_space;
    Alcotest.test_case "full space visits each point once" `Quick
      test_full_space_partitions;
    Alcotest.test_case "convex region count" `Quick test_full_space_region_count;
    qcheck prop_between_random_tiled;
  ]

let test_between_four_deep_tiled () =
  (* An ADD-shaped 4-deep nest, tiled: 8 dims, multiple ragged tile pairs. *)
  let u = Array_decl.create "u" [| 3; 5; 5; 5 |] in
  let nest =
    Dsl.(
      nest ~name:"add4"
        ~loops:[ ("k", 1, 5); ("j", 1, 5); ("i", 1, 5); ("m", 1, 3) ]
        ~body:[ load u [ v "m"; v "i"; v "j"; v "k" ] ]
        ())
  in
  let tiled = Transform.tile nest [| 2; 3; 5; 2 |] in
  let rng = Tiling_util.Prng.create ~seed:77 in
  for _ = 1 to 25 do
    let a = Nest.random_point tiled rng in
    let b = Nest.random_point tiled rng in
    let src, dst = if Nest.lex_compare a b <= 0 then (a, b) else (b, a) in
    check_between tiled ~src ~dst
  done

let suite =
  suite
  @ [
      Alcotest.test_case "between on a 4-deep tiled nest" `Quick
        test_between_four_deep_tiled;
    ]

(* The walk order.  The interference count takes the path's boxes last
   first, and which boxes it still looks at once it has found enough lines
   decides which conservative answers it counts, so the reverse walk must
   visit exactly the reversed list, and a stopped walk exactly a prefix. *)
let walk p ~src ~dst ~rev ~stop_after =
  let acc = ref [] in
  let finished =
    Path.walk_between p ~src ~dst ~rev
      (fun acc c ->
        acc := Box.freeze c :: !acc;
        List.length !acc < stop_after)
      acc
  in
  (finished, List.rev !acc)

let rec take k = function
  | x :: rest when k > 0 -> x :: take (k - 1) rest
  | _ -> []

let prop_walk_order =
  QCheck.Test.make
    ~name:"reverse walk = reversed list; a stopped walk = a prefix" ~count:200
    (QCheck.make
       QCheck.Gen.(
         let* triangular = bool in
         let* t1 = int_range 1 6 in
         let* t2 = int_range 1 6 in
         let* t3 = int_range 1 6 in
         let* tiled = bool in
         let* seed = int_range 0 10000 in
         let* k = int_range 1 12 in
         return (triangular, [| t1; t2; t3 |], tiled, seed, k)))
    (fun (triangular, tiles, tiled, seed, k) ->
      let nest =
        if triangular then
          let spec =
            {
              Tiling_kernels.Random_kernel.default_spec with
              extents = [| 7; 8; 7 |];
              tri_ratio = 1.0;
            }
          in
          let nest = Tiling_kernels.Random_kernel.generate ~spec ~seed () in
          if tiled then
            Transform.tile nest
              (Array.map2 min tiles (Transform.tile_spans nest))
          else nest
        else Transform.tile (Tiling_kernels.Kernels.t2d 13) (Array.sub tiles 0 2)
      in
      let rng = Tiling_util.Prng.create ~seed in
      let a = Nest.random_point nest rng in
      let b = Nest.random_point nest rng in
      let src, dst = if Nest.lex_compare a b <= 0 then (a, b) else (b, a) in
      let forward = Path.between nest ~src ~dst in
      let n = List.length forward in
      let p = Path.plan nest in
      let _, reverse = walk p ~src ~dst ~rev:true ~stop_after:max_int in
      let fwd_done, fwd_k = walk p ~src ~dst ~rev:false ~stop_after:k in
      let rev_done, rev_k = walk p ~src ~dst ~rev:true ~stop_after:k in
      reverse = List.rev forward
      && fwd_k = take k forward
      && rev_k = take k (List.rev forward)
      && fwd_done = (k > n)
      && rev_done = (k > n))

let suite = suite @ [ qcheck prop_walk_order ]
