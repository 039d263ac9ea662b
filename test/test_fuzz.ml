open Tiling_util
open Tiling_cme
open Tiling_fuzz

(* dune runtest executes in the test build directory (where the dep is
   copied); fall back to the source path for `dune exec` from the root. *)
let corpus_file =
  if Sys.file_exists "fuzz_corpus.txt" then "fuzz_corpus.txt"
  else Filename.concat "test" "fuzz_corpus.txt"

(* Every checked-in repro is a once-real solver bug or a coverage pin;
   replay must agree exactly. *)
let test_corpus_replays () =
  match Driver.load_corpus corpus_file with
  | Error m -> Alcotest.fail ("corpus did not load: " ^ m)
  | Ok cases ->
      Alcotest.(check bool) "corpus has entries" true (cases <> []);
      List.iter
        (fun case ->
          let r = Oracle.check_case case in
          match r.Oracle.verdict with
          | Oracle.Agree -> ()
          | Oracle.Mismatch _ | Oracle.Inconclusive ->
              Alcotest.failf "corpus regression on %s:@ %a"
                (Case.to_string case) Oracle.pp_result r)
        cases

let test_case_round_trip () =
  let rng = Prng.create ~seed:11 in
  for _ = 1 to 50 do
    let case = Driver.draw_case Driver.default_knobs rng in
    match Case.of_string (Case.to_string case) with
    | Error m -> Alcotest.fail ("case did not reparse: " ^ m)
    | Ok back ->
        Alcotest.(check string) "round trip" (Case.to_string case)
          (Case.to_string back)
  done

let test_run_deterministic () =
  let run () = Driver.run ~trials:20 ~seed:42 () in
  let o1 = run () and o2 = run () in
  Alcotest.(check int) "trials" o1.Driver.trials_run o2.Driver.trials_run;
  Alcotest.(check int) "agreed" o1.Driver.agreed o2.Driver.agreed;
  Alcotest.(check int) "accesses" o1.Driver.accesses o2.Driver.accesses;
  Alcotest.(check int) "mismatches" 0 (List.length o1.Driver.mismatches)

let test_smoke_campaign () =
  (* A bounded in-process campaign: the oracle property must hold on fresh
     random cases, not only on the replayed corpus. *)
  let o = Driver.run ~trials:30 ~seed:7 () in
  Alcotest.(check int) "30 trials ran" 30 o.Driver.trials_run;
  List.iter
    (fun (m : Driver.mismatch) ->
      Alcotest.failf "fuzz mismatch (trial %d): shrunk to %s" m.Driver.trial
        (Case.to_string m.Driver.shrunk))
    o.Driver.mismatches

(* The oracle on the paper's own kernels: exact CME counts must equal the
   simulator per reference on every kernel in the rotation — Table 1 plus
   the triangular extras (SOR, LU, Cholesky, syrk) — at two geometries a
   world apart (tiny direct-mapped; larger 4-way). *)
let test_paper_kernels_agree () =
  let geometries =
    [
      Tiling_cache.Config.make ~size:256 ~line:16 ();
      Tiling_cache.Config.make ~size:4096 ~line:32 ~assoc:4 ();
    ]
  in
  List.iter
    (fun (s : Tiling_kernels.Kernels.spec) ->
      let nest = s.build 8 in
      List.iter
        (fun cache ->
          let r = Oracle.check nest cache in
          match r.Oracle.verdict with
          | Oracle.Agree -> ()
          | Oracle.Mismatch _ | Oracle.Inconclusive ->
              Alcotest.failf "%s disagrees:@ %a" s.name Oracle.pp_result r)
        geometries)
    Tiling_kernels.Kernels.rotation

let test_triangular_smoke_campaign () =
  (* The triangular generator under the oracle: with tri=100 most drawn
     cases carry affine bounds, driving the latest-source solver path. *)
  let knobs =
    match Driver.knobs_of_string "tri=100" with
    | Ok k -> k
    | Error m -> Alcotest.fail m
  in
  let o = Driver.run ~knobs ~trials:40 ~seed:13 () in
  Alcotest.(check int) "40 trials ran" 40 o.Driver.trials_run;
  List.iter
    (fun (m : Driver.mismatch) ->
      Alcotest.failf "triangular fuzz mismatch (trial %d): shrunk to %s"
        m.Driver.trial
        (Case.to_string m.Driver.shrunk))
    o.Driver.mismatches

let test_tri_knob_off_preserves_streams () =
  (* tri=0 must not consume generator draws: the drawn cases are the exact
     cases a pre-triangular build drew, so old campaign seeds and corpus
     shrinks stay reproducible. *)
  let rng = Prng.create ~seed:29 in
  let with_default = List.init 20 (fun _ -> Driver.draw_case Driver.default_knobs rng) in
  let knobs =
    match Driver.knobs_of_string "tri=0" with
    | Ok k -> k
    | Error m -> Alcotest.fail m
  in
  let rng' = Prng.create ~seed:29 in
  let with_explicit_zero = List.init 20 (fun _ -> Driver.draw_case knobs rng') in
  List.iter2
    (fun a b ->
      Alcotest.(check string) "identical case" (Case.to_string a)
        (Case.to_string b))
    with_default with_explicit_zero;
  List.iter
    (fun c ->
      Alcotest.(check (float 0.)) "tri_ratio stays 0" 0.
        c.Case.spec.Tiling_kernels.Random_kernel.tri_ratio)
    with_default

let test_shrinker_only_shrinks () =
  (* On an agreeing case the shrinker must return it unchanged after one
     probe (nothing to minimize). *)
  let rng = Prng.create ~seed:3 in
  let case = Driver.draw_case Driver.default_knobs rng in
  let shrunk, checks = Shrink.minimize case in
  Alcotest.(check string) "agreeing case unchanged" (Case.to_string case)
    (Case.to_string shrunk);
  Alcotest.(check int) "one oracle probe" 1 checks

let test_knobs_parse () =
  (match Driver.knobs_of_string "depth=2,extent=8,line=32" with
  | Error m -> Alcotest.fail m
  | Ok k ->
      Alcotest.(check int) "depth" 2 k.Driver.max_depth;
      Alcotest.(check int) "extent" 8 k.Driver.max_extent;
      Alcotest.(check (list int)) "line pinned" [ 32 ] k.Driver.lines);
  (match Driver.knobs_of_string "depth=2,tri=45" with
  | Error m -> Alcotest.fail m
  | Ok k -> Alcotest.(check int) "tri percent" 45 k.Driver.max_tri_pct);
  (match Driver.knobs_of_string "line=33" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-power-of-two line accepted");
  (match Driver.knobs_of_string "tri=101" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "tri > 100 accepted");
  match Driver.knobs_of_string "bogus=1" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown knob accepted"

(* Satellite regressions: the estimator's interval plumbing. *)

let mm_engine () =
  let nest = Tiling_kernels.Kernels.mm 10 in
  let cache = Tiling_cache.Config.make ~size:512 ~line:32 () in
  Engine.create nest cache

let test_sample_honours_confidence () =
  (* Regression: a non-default [confidence] used to be relabelled onto the
     default-confidence half-width.  On the same point set, a 95 % interval
     must be strictly wider than a 90 % one. *)
  let engine = mm_engine () in
  let pts = Array.init 40 (fun i -> [| 1 + (i mod 10); 1 + (i mod 7); 1 |]) in
  let width c =
    (Estimator.sample_at ~confidence:c engine pts).Estimator.miss_ratio
      .Stats.half_width
  in
  let w90 = width 0.9 and w95 = width 0.95 in
  Alcotest.(check bool) "95 % interval wider than 90 %" true (w95 > w90)

let test_sample_at_empty () =
  let r = Estimator.sample_at (mm_engine ()) [||] in
  Alcotest.(check int) "no points" 0 r.Estimator.points;
  Alcotest.(check int) "no accesses" 0 r.Estimator.accesses;
  Alcotest.(check (float 0.)) "degenerate interval" 0.
    r.Estimator.miss_ratio.Stats.half_width

let test_exact_reports_certainty () =
  let r = Estimator.exact (mm_engine ()) in
  Alcotest.(check (float 0.)) "exact interval has zero width" 0.
    r.Estimator.miss_ratio.Stats.half_width;
  Alcotest.(check (float 0.)) "exact interval is certain" 1.
    r.Estimator.miss_ratio.Stats.confidence

let suite =
  [
    Alcotest.test_case "corpus replays clean" `Quick test_corpus_replays;
    Alcotest.test_case "case round-trips" `Quick test_case_round_trip;
    Alcotest.test_case "run is deterministic" `Quick test_run_deterministic;
    Alcotest.test_case "smoke campaign agrees" `Slow test_smoke_campaign;
    Alcotest.test_case "triangular smoke campaign agrees" `Slow
      test_triangular_smoke_campaign;
    Alcotest.test_case "tri=0 preserves rectangular streams" `Quick
      test_tri_knob_off_preserves_streams;
    Alcotest.test_case "paper kernels agree" `Slow test_paper_kernels_agree;
    Alcotest.test_case "shrinker no-op on agreement" `Quick
      test_shrinker_only_shrinks;
    Alcotest.test_case "knob parsing" `Quick test_knobs_parse;
    Alcotest.test_case "sample honours confidence" `Quick
      test_sample_honours_confidence;
    Alcotest.test_case "sample_at on empty points" `Quick test_sample_at_empty;
    Alcotest.test_case "exact reports certainty" `Quick
      test_exact_reports_certainty;
  ]
