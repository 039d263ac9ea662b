open Tiling_util

let qcheck = QCheck_alcotest.to_alcotest

let test_determinism () =
  let a = Prng.create ~seed:42 and b = Prng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_seed_sensitivity () =
  let a = Prng.create ~seed:1 and b = Prng.create ~seed:2 in
  Alcotest.(check bool) "different seeds differ" true (Prng.bits64 a <> Prng.bits64 b)

let test_copy_independent () =
  let a = Prng.create ~seed:9 in
  ignore (Prng.bits64 a);
  let b = Prng.copy a in
  Alcotest.(check int64) "copy continues identically" (Prng.bits64 a) (Prng.bits64 b);
  ignore (Prng.bits64 a);
  (* advancing a must not affect b *)
  let b1 = Prng.bits64 b and b2 = Prng.bits64 b in
  Alcotest.(check bool) "copy advances on its own" true (b1 <> b2)

let test_split_decorrelated () =
  let a = Prng.create ~seed:5 in
  let b = Prng.split a in
  let xa = Prng.bits64 a and xb = Prng.bits64 b in
  Alcotest.(check bool) "split streams differ" true (xa <> xb)

let test_int_range () =
  let g = Prng.create ~seed:3 in
  for _ = 1 to 1000 do
    let v = Prng.int g 7 in
    if v < 0 || v >= 7 then Alcotest.fail "int out of range"
  done;
  for _ = 1 to 1000 do
    let v = Prng.int_in g ~lo:(-3) ~hi:4 in
    if v < -3 || v > 4 then Alcotest.fail "int_in out of range"
  done

let test_int_uniformity () =
  let g = Prng.create ~seed:11 in
  let n = 10 and draws = 100_000 in
  let counts = Array.make n 0 in
  for _ = 1 to draws do
    let v = Prng.int g n in
    counts.(v) <- counts.(v) + 1
  done;
  let expect = float_of_int draws /. float_of_int n in
  Array.iteri
    (fun i c ->
      let dev = abs_float (float_of_int c -. expect) /. expect in
      if dev > 0.05 then
        Alcotest.failf "bucket %d off by %.1f%% (expected ~%g, got %d)" i
          (100. *. dev) expect c)
    counts

let test_float_range () =
  let g = Prng.create ~seed:4 in
  let sum = ref 0. in
  for _ = 1 to 10_000 do
    let v = Prng.float g in
    if v < 0. || v >= 1. then Alcotest.fail "float out of [0,1)";
    sum := !sum +. v
  done;
  let mean = !sum /. 10_000. in
  Alcotest.(check bool) "mean near 1/2" true (abs_float (mean -. 0.5) < 0.02)

let test_bernoulli_extremes () =
  let g = Prng.create ~seed:6 in
  for _ = 1 to 100 do
    if Prng.bernoulli g ~p:0. then Alcotest.fail "p=0 must be false";
    if not (Prng.bernoulli g ~p:1.) then Alcotest.fail "p=1 must be true"
  done

let test_bernoulli_rate () =
  let g = Prng.create ~seed:8 in
  let hits = ref 0 in
  for _ = 1 to 50_000 do
    if Prng.bernoulli g ~p:0.3 then incr hits
  done;
  let rate = float_of_int !hits /. 50_000. in
  Alcotest.(check bool) "rate near 0.3" true (abs_float (rate -. 0.3) < 0.02)

let prop_shuffle_permutation =
  QCheck.Test.make ~name:"shuffle is a permutation" ~count:200
    QCheck.(pair small_int (list small_int))
    (fun (seed, xs) ->
      let a = Array.of_list xs in
      let b = Array.copy a in
      Prng.shuffle (Prng.create ~seed) b;
      List.sort compare (Array.to_list a) = List.sort compare (Array.to_list b))

let prop_sample_without_replacement =
  QCheck.Test.make ~name:"sample_without_replacement: distinct, in range"
    ~count:300
    QCheck.(triple small_int (int_range 0 200) (int_range 0 200))
    (fun (seed, n0, k0) ->
      let n = max n0 k0 and k = min n0 k0 in
      let s = Prng.sample_without_replacement (Prng.create ~seed) ~n ~k in
      Array.length s = k
      && Array.for_all (fun v -> v >= 0 && v < n) s
      && List.length (List.sort_uniq compare (Array.to_list s)) = k)

let test_sample_huge_population () =
  let g = Prng.create ~seed:12 in
  let s = Prng.sample_without_replacement g ~n:max_int ~k:100 in
  Alcotest.(check int) "k draws" 100
    (List.length (List.sort_uniq compare (Array.to_list s)))

let suite =
  [
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
    Alcotest.test_case "copy" `Quick test_copy_independent;
    Alcotest.test_case "split" `Quick test_split_decorrelated;
    Alcotest.test_case "int range" `Quick test_int_range;
    Alcotest.test_case "int uniformity" `Quick test_int_uniformity;
    Alcotest.test_case "float range/mean" `Quick test_float_range;
    Alcotest.test_case "bernoulli extremes" `Quick test_bernoulli_extremes;
    Alcotest.test_case "bernoulli rate" `Quick test_bernoulli_rate;
    Alcotest.test_case "huge population sample" `Quick test_sample_huge_population;
    qcheck prop_shuffle_permutation;
    qcheck prop_sample_without_replacement;
  ]

(* Known answers: the first outputs of two fixed seeds, recorded before
   the generator's state moved out of a boxed [int64] field.  The layout
   of the state is private; these values fix the stream itself, so every
   seeded search, sample and fuzz case stays reproducible. *)
let known_answer seed =
  let g = Prng.create ~seed in
  let bits = Array.init 3 (fun _ -> Prng.bits64 g) in
  let ints = Array.init 4 (fun _ -> Prng.int g 1000) in
  let floats = Array.init 3 (fun _ -> Prng.float g) in
  let coins =
    String.init 16 (fun _ -> if Prng.bernoulli g ~p:0.3 then '1' else '0')
  in
  let c = Prng.copy g in
  let copied = Array.init 2 (fun _ -> Prng.bits64 c) in
  let continued = Array.init 2 (fun _ -> Prng.bits64 g) in
  let s = Prng.split g in
  let split = Array.init 2 (fun _ -> Prng.bits64 s) in
  (bits, ints, floats, coins, copied, continued, split, Prng.bits64 g)

let test_known_answers () =
  List.iter
    (fun (seed, (bits, ints, floats, coins, copied, split, after_split)) ->
      let bits', ints', floats', coins', copied', continued', split', after_split' =
        known_answer seed
      in
      let name what = Printf.sprintf "seed %d: %s" seed what in
      Alcotest.(check (array int64)) (name "bits64") bits bits';
      Alcotest.(check (array int)) (name "int 1000") ints ints';
      Alcotest.(check (array (float 0.))) (name "float") floats floats';
      Alcotest.(check string) (name "bernoulli 0.3") coins coins';
      Alcotest.(check (array int64)) (name "after copy") copied copied';
      Alcotest.(check (array int64)) (name "original after copy") copied continued';
      Alcotest.(check (array int64)) (name "after split") split split';
      Alcotest.(check int64) (name "parent after split") after_split after_split')
    [
      ( 42,
        ( [| 0x989b3f130a063869L; 0x290db4bf2570ded7L; 0x2a990be63a01b2d5L |],
          [| 91; 889; 528; 122 |],
          [| 0x1.392025051c93p-3; 0x1.8578493c50ec1p-1; 0x1.f34e1428846dcp-3 |],
          "0001101110010000",
          [| 0x1d23fbdef237f1ccL; 0xa4b67120e03c4d22L |],
          [| 0xed00ba1e6a23d764L; 0x7d81cad857551de9L |],
          0x051953672e4acbbcL ) );
      ( 2026,
        ( [| 0xdd94f11027b22669L; 0xa50496c010ed9669L; 0x3517325f8146e6e3L |],
          [| 733; 744; 830; 925 |],
          [| 0x1.bb72c5cb44e8p-1; 0x1.0f3f931e20888p-3; 0x1.4b8bc06c0a51ep-1 |],
          "0000000100000100",
          [| 0x76e590291e56dd23L; 0xd59aca554c3f58dcL |],
          [| 0xd12d5846c51c74f7L; 0x665f204d82153ce1L |],
          0x4ea15ca410970c03L ) );
    ]

let suite =
  suite @ [ Alcotest.test_case "known answers" `Quick test_known_answers ]
