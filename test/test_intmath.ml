open Tiling_util

let qcheck = QCheck_alcotest.to_alcotest

let check_int = Alcotest.(check int)

let test_gcd_basic () =
  check_int "gcd 12 18" 6 (Intmath.gcd 12 18);
  check_int "gcd 0 0" 0 (Intmath.gcd 0 0);
  check_int "gcd 0 7" 7 (Intmath.gcd 0 7);
  check_int "gcd -12 18" 6 (Intmath.gcd (-12) 18);
  check_int "gcd 13 7" 1 (Intmath.gcd 13 7)

let test_lcm_basic () =
  check_int "lcm 4 6" 12 (Intmath.lcm 4 6);
  check_int "lcm 0 5" 0 (Intmath.lcm 0 5);
  check_int "lcm -4 6" 12 (Intmath.lcm (-4) 6)

let test_floor_ceil_div () =
  check_int "floor 7/2" 3 (Intmath.floor_div 7 2);
  check_int "floor -7/2" (-4) (Intmath.floor_div (-7) 2);
  check_int "floor 7/-2" (-4) (Intmath.floor_div 7 (-2));
  check_int "floor -7/-2" 3 (Intmath.floor_div (-7) (-2));
  check_int "ceil 7/2" 4 (Intmath.ceil_div 7 2);
  check_int "ceil -7/2" (-3) (Intmath.ceil_div (-7) 2);
  check_int "ceil 8/2" 4 (Intmath.ceil_div 8 2)

let test_pos_mod () =
  check_int "pos_mod 7 3" 1 (Intmath.pos_mod 7 3);
  check_int "pos_mod -7 3" 2 (Intmath.pos_mod (-7) 3);
  check_int "pos_mod 0 5" 0 (Intmath.pos_mod 0 5);
  check_int "pos_mod -3 3" 0 (Intmath.pos_mod (-3) 3)

let test_pow2 () =
  Alcotest.(check bool) "1024 pow2" true (Intmath.is_pow2 1024);
  Alcotest.(check bool) "1 pow2" true (Intmath.is_pow2 1);
  Alcotest.(check bool) "0 not" false (Intmath.is_pow2 0);
  Alcotest.(check bool) "-4 not" false (Intmath.is_pow2 (-4));
  Alcotest.(check bool) "96 not" false (Intmath.is_pow2 96);
  check_int "ceil_log2 1" 0 (Intmath.ceil_log2 1);
  check_int "ceil_log2 2" 1 (Intmath.ceil_log2 2);
  check_int "ceil_log2 3" 2 (Intmath.ceil_log2 3);
  check_int "ceil_log2 1024" 10 (Intmath.ceil_log2 1024);
  check_int "ceil_log2 1025" 11 (Intmath.ceil_log2 1025)

let test_pow () =
  check_int "2^10" 1024 (Intmath.pow 2 10);
  check_int "3^0" 1 (Intmath.pow 3 0);
  check_int "5^3" 125 (Intmath.pow 5 3);
  check_int "(-2)^3" (-8) (Intmath.pow (-2) 3)

let test_range_count () =
  check_int "1..10 step 1" 10 (Intmath.range_count ~lo:1 ~hi:10 ~step:1);
  check_int "1..10 step 3" 4 (Intmath.range_count ~lo:1 ~hi:10 ~step:3);
  check_int "empty" 0 (Intmath.range_count ~lo:5 ~hi:4 ~step:1);
  check_int "single" 1 (Intmath.range_count ~lo:5 ~hi:5 ~step:7)

let test_multiples_in () =
  check_int "mult of 3 in [1,10]" 3 (Intmath.multiples_in ~lo:1 ~hi:10 3);
  check_int "mult of 3 in [3,3]" 1 (Intmath.multiples_in ~lo:3 ~hi:3 3);
  check_int "mult of 3 in [-5,5]" 3 (Intmath.multiples_in ~lo:(-5) ~hi:5 3);
  check_int "empty" 0 (Intmath.multiples_in ~lo:4 ~hi:2 3);
  check_int "none" 0 (Intmath.multiples_in ~lo:7 ~hi:8 3)

let test_clamp () =
  check_int "below" 1 (Intmath.clamp ~lo:1 ~hi:10 (-5));
  check_int "above" 10 (Intmath.clamp ~lo:1 ~hi:10 25);
  check_int "inside" 4 (Intmath.clamp ~lo:1 ~hi:10 4)

let test_crt () =
  (match Intmath.crt (2, 3) (3, 5) with
  | Some (c, m) ->
      check_int "crt modulus" 15 m;
      check_int "crt value" 8 c
  | None -> Alcotest.fail "crt (2,3) (3,5) should be solvable");
  (match Intmath.crt (1, 4) (3, 6) with
  | Some (c, m) ->
      check_int "crt non-coprime modulus" 12 m;
      check_int "crt non-coprime value" 9 c
  | None -> Alcotest.fail "crt (1,4) (3,6) should be solvable");
  Alcotest.(check bool)
    "infeasible" true
    (Intmath.crt (0, 4) (1, 6) = None)

let prop_egcd =
  QCheck.Test.make ~name:"egcd bezout identity" ~count:500
    QCheck.(pair (int_range (-10000) 10000) (int_range (-10000) 10000))
    (fun (a, b) ->
      let g, x, y = Intmath.egcd a b in
      g = Intmath.gcd a b && (a * x) + (b * y) = g && g >= 0)

let prop_floor_div =
  QCheck.Test.make ~name:"floor_div lower bound" ~count:500
    QCheck.(pair (int_range (-100000) 100000) (int_range 1 1000))
    (fun (a, b) ->
      let q = Intmath.floor_div a b in
      (q * b) <= a && ((q + 1) * b) > a)

let prop_pos_mod =
  QCheck.Test.make ~name:"pos_mod in range and congruent" ~count:500
    QCheck.(pair (int_range (-100000) 100000) (int_range 1 1000))
    (fun (a, m) ->
      let r = Intmath.pos_mod a m in
      r >= 0 && r < m && (a - r) mod m = 0)

let prop_crt =
  QCheck.Test.make ~name:"crt solution satisfies both congruences" ~count:500
    QCheck.(quad (int_range 0 50) (int_range 1 60) (int_range 0 50) (int_range 1 60))
    (fun (a, m, b, n) ->
      match Intmath.crt (a, m) (b, n) with
      | Some (c, l) ->
          l = Intmath.lcm m n
          && Intmath.pos_mod c m = Intmath.pos_mod a m
          && Intmath.pos_mod c n = Intmath.pos_mod b n
      | None -> (a - b) mod Intmath.gcd m n <> 0)

let prop_multiples =
  QCheck.Test.make ~name:"multiples_in counts exactly" ~count:300
    QCheck.(triple (int_range (-200) 200) (int_range (-200) 200) (int_range 1 40))
    (fun (lo, hi, m) ->
      let naive = ref 0 in
      for v = min lo hi to max lo hi do
        if v >= lo && v <= hi && v mod m = 0 then incr naive
      done;
      Intmath.multiples_in ~lo ~hi m = !naive)

let test_next_window_hit () =
  let hit = Intmath.next_window_hit in
  (* 5 + 5j mod 16 runs 5, 10, 15, 4, 9, 14, 3, 8, 13, 2: below 4 first
     at j = 6, then at j = 9. *)
  Alcotest.(check (option int)) "first" (Some 6) (hit ~a:5 ~g:5 ~m:16 ~len:4 0);
  Alcotest.(check (option int)) "from the answer" (Some 6)
    (hit ~a:5 ~g:5 ~m:16 ~len:4 6);
  Alcotest.(check (option int)) "next" (Some 9) (hit ~a:5 ~g:5 ~m:16 ~len:4 7);
  (* g = m: every term has residue 40 mod 32 = 8, never below 4. *)
  Alcotest.(check (option int)) "unreachable" None
    (hit ~a:40 ~g:32 ~m:32 ~len:4 0);
  Alcotest.(check (option int)) "constant in window" (Some 5)
    (hit ~a:(-31) ~g:32 ~m:32 ~len:4 5)

(* The least [j >= j0] by scanning one period of [j] ([m] terms). *)
let prop_next_window_hit =
  QCheck.Test.make ~name:"next_window_hit = linear scan" ~count:1000
    QCheck.(
      make
        Gen.(
          let* m = int_range 1 600 in
          let* len = int_range 1 m in
          let* g = int_range 1 2000 in
          let* a = int_range (-5000) 5000 in
          let* j0 = int_range (-50) 50 in
          return (a, g, m, len, j0)))
    (fun (a, g, m, len, j0) ->
      let rec scan j =
        if j >= j0 + m then None
        else if Intmath.pos_mod (a + (g * j)) m < len then Some j
        else scan (j + 1)
      in
      Intmath.next_window_hit ~a ~g ~m ~len j0 = scan j0)

let suite =
  [
    Alcotest.test_case "gcd" `Quick test_gcd_basic;
    Alcotest.test_case "lcm" `Quick test_lcm_basic;
    Alcotest.test_case "floor/ceil div" `Quick test_floor_ceil_div;
    Alcotest.test_case "pos_mod" `Quick test_pos_mod;
    Alcotest.test_case "powers of two" `Quick test_pow2;
    Alcotest.test_case "pow" `Quick test_pow;
    Alcotest.test_case "range_count" `Quick test_range_count;
    Alcotest.test_case "multiples_in" `Quick test_multiples_in;
    Alcotest.test_case "clamp" `Quick test_clamp;
    Alcotest.test_case "crt" `Quick test_crt;
    Alcotest.test_case "next_window_hit" `Quick test_next_window_hit;
    qcheck prop_egcd;
    qcheck prop_floor_div;
    qcheck prop_pos_mod;
    qcheck prop_crt;
    qcheck prop_multiples;
    qcheck prop_next_window_hit;
  ]

(* A walk with one inverse computed up front, as [Engine.windows] does
   it: the inverse meets its contract, jumping from each hit to the next
   visits exactly the hits a linear scan of [j0, last] finds, and the
   answer past the last one is [max_int] only when no [j] qualifies at
   all. *)
let prop_lattice_walk =
  QCheck.Test.make ~name:"lattice walk = linear scan of every hit" ~count:500
    QCheck.(
      make
        Gen.(
          let* m = int_range 1 300 in
          let* len = int_range 1 m in
          let* g = int_range 1 1000 in
          let* a = int_range (-3000) 3000 in
          let* j0 = int_range (-20) 20 in
          let* span = int_range 0 400 in
          return (a, g, m, len, j0, j0 + span)))
    (fun (a, g, m, len, j0, last) ->
      let u = Intmath.lattice_inverse ~g ~m in
      let rec walk j acc =
        let hit = Intmath.next_lattice_hit ~a ~g ~m ~u ~len j in
        if hit > last then (hit, List.rev acc) else walk (hit + 1) (hit :: acc)
      in
      let beyond, hits = walk j0 [] in
      let scanned =
        List.filter
          (fun j -> Intmath.pos_mod (a + (g * j)) m < len)
          (List.init (last - j0 + 1) (fun i -> j0 + i))
      in
      let none = Intmath.next_window_hit ~a ~g ~m ~len j0 = None in
      0 <= u && u < m
      && Intmath.pos_mod (g * u) m = Intmath.gcd g m mod m
      && hits = scanned
      && (beyond = max_int) = none)

let suite = suite @ [ qcheck prop_lattice_walk ]

(* The engine's shifts and masks stand for these helpers at power-of-two
   divisors, negative dividends included. *)
let prop_pow2_shift_mask =
  QCheck.Test.make ~name:"asr/land = floor_div/pos_mod at 2^k" ~count:2000
    QCheck.(pair (int_range 0 30) (int_range (-(1 lsl 40)) (1 lsl 40)))
    (fun (k, x) ->
      let p = 1 lsl k in
      x asr k = Intmath.floor_div x p && x land (p - 1) = Intmath.pos_mod x p)

let test_log2_pow2 () =
  for k = 0 to 61 do
    Alcotest.(check int) (Printf.sprintf "2^%d" k) k (Intmath.log2_pow2 (1 lsl k))
  done

let prop_array_equal =
  QCheck.Test.make ~name:"array_equal = structural equality" ~count:1000
    QCheck.(
      pair (array_of_size Gen.(int_range 0 4) (int_range (-2) 2))
        (array_of_size Gen.(int_range 0 4) (int_range (-2) 2)))
    (fun (a, b) -> Intmath.array_equal a b = (a = b))

let suite =
  suite
  @ [
      qcheck prop_pow2_shift_mask;
      Alcotest.test_case "log2_pow2" `Quick test_log2_pow2;
      qcheck prop_array_equal;
    ]
