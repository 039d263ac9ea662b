(* The decision digest behind [tiler digest]: every access of a fixed
   corpus classified by the CME point solver, one line per case.

   A case line is [id hash verdict]: [hash] is the 64-bit FNV-1a hash of
   the outcome codes (hit 0, replacement 1, compulsory 2) of every access
   in execution order and [verdict] the per-reference comparison with the
   LRU simulator (agree or mismatch).  A search line
   records one default GA search on one domain, where its counters are
   deterministic, and ends with the FNV-1a hash of the search's
   [Tiler.to_json] (tiles, both reports and the GA's whole history), so the
   GA trajectory is pinned byte for byte.  The output is committed as
   test/decisions.digest, so a change that moves a single decision shows up
   as a diff naming the case. *)

open Tiling_ir
module Engine = Tiling_cme.Engine
module Metrics = Tiling_obs.Metrics

let fnv_offset = 0xCBF29CE484222325L
let fnv_prime = 0x100000001B3L

let code = function
  | Engine.Hit -> 0
  | Engine.Replacement_miss -> 1
  | Engine.Compulsory_miss -> 2

let fnv1a_string s =
  let h = ref fnv_offset in
  String.iter
    (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) fnv_prime)
    s;
  !h

let tiles_label t = String.concat "x" (Array.to_list (Array.map string_of_int t))

let geometries =
  [
    (512, 32, 1); (1024, 32, 2); (2048, 16, 4); (2048, 64, 1); (2048, 64, 2);
    (2048, 128, 1); (4096, 32, 8);
  ]

(* Hash of every outcome and the simulator verdict. *)
let case_line id nest cache =
  let engine = Engine.create nest cache in
  let nrefs = Array.length nest.Nest.refs in
  let misses = Array.make nrefs 0 and compulsory = Array.make nrefs 0 in
  let points = ref 0 and h = ref fnv_offset in
  Nest.iter_points nest (fun p ->
      incr points;
      for r = 0 to nrefs - 1 do
        let o = Engine.classify engine p r in
        (match o with
        | Engine.Hit -> ()
        | Engine.Replacement_miss -> misses.(r) <- misses.(r) + 1
        | Engine.Compulsory_miss ->
            misses.(r) <- misses.(r) + 1;
            compulsory.(r) <- compulsory.(r) + 1);
        h := Int64.mul (Int64.logxor !h (Int64.of_int (code o))) fnv_prime
      done);
  let sim = Tiling_trace.Run.simulate nest cache in
  let agree = ref true in
  Array.iteri
    (fun r (s : Tiling_cache.Sim.counts) ->
      if
        s.accesses <> !points || s.misses <> misses.(r)
        || s.compulsory <> compulsory.(r)
      then agree := false)
    sim.Tiling_trace.Run.per_ref;
  Printf.printf "%s %016Lx %s\n%!" id !h
    (if !agree then "agree" else "mismatch")

(* Untiled plus three tilings drawn from one fixed seed, per kernel and
   size, each at every geometry. *)
let kernel_cases () =
  let rng = Tiling_util.Prng.create ~seed:2026 in
  List.iter
    (fun n ->
      List.iter
        (fun (spec : Tiling_kernels.Kernels.spec) ->
          let nest = spec.build n in
          let spans = Transform.tile_spans nest in
          let draw () =
            Array.map (fun s -> Tiling_util.Prng.int_in rng ~lo:1 ~hi:s) spans
          in
          let tilings = List.init 3 (fun _ -> draw ()) in
          let variants =
            ("untiled", nest)
            :: List.map
                 (fun t -> (tiles_label t, Transform.tile nest t))
                 tilings
          in
          List.iter
            (fun (size, line, assoc) ->
              let cache = Tiling_cache.Config.make ~size ~line ~assoc () in
              List.iter
                (fun (label, nest) ->
                  case_line
                    (Printf.sprintf "kernel/%s/n%d/%s/%d-%d-%d" spec.name n
                       label size line assoc)
                    nest cache)
                variants)
            geometries)
        Tiling_kernels.Kernels.rotation)
    [ 10; 16 ]

(* The cases of the three CI fuzz smokes; the closed-form smoke's own
   verdict is recorded beside the point solver's. *)
let fuzz_cases () =
  List.iter
    (fun (label, spec, mode, trials, seed) ->
      let knobs =
        match Tiling_fuzz.Driver.knobs_of_string spec with
        | Ok k -> k
        | Error m -> failwith m
      in
      let on_trial i case (r : Tiling_fuzz.Oracle.result) =
        let id = Printf.sprintf "fuzz/%s/%d" label i in
        match mode with
        | `Exact ->
            case_line id (Tiling_fuzz.Case.nest case) (Tiling_fuzz.Case.cache case)
        | `Closed_form ->
            let verdict =
              match r.verdict with
              | Tiling_fuzz.Oracle.Agree -> "agree"
              | Tiling_fuzz.Oracle.Mismatch _ -> "mismatch"
              | Tiling_fuzz.Oracle.Inconclusive -> "inconclusive"
            in
            case_line id (Tiling_fuzz.Case.nest case) (Tiling_fuzz.Case.cache case);
            Printf.printf "%s/closed-form %s\n%!" id verdict
      in
      ignore
        (Tiling_fuzz.Driver.run ~knobs ~on_trial ~mode ~trials ~seed ()
          : Tiling_fuzz.Driver.outcome))
    [
      ("s1", "", `Exact, 50, 1);
      ("s2-tri80", "tri=80", `Exact, 100, 2);
      ("s3-symbolic", "", `Closed_form, 100, 3);
    ]

(* Default one-domain searches of the benchmark's four inputs: the
   tile-cme sizes at 8 KB, then the serve-fleet sizes at 32 KB, where most
   paths never reach the reused line's set and the solver proves it from
   address ranges.  The 8 KB lines name no geometry. *)
let searches () =
  let counter name = Metrics.counter_value (Metrics.counter name) in
  Metrics.set_enabled true;
  List.iter
    (fun (name, n, cache, suffix) ->
      let nest = (Tiling_kernels.Kernels.find name).build n in
      Metrics.reset ();
      Engine.clear_shared_residues ();
      let eval = ref None in
      let opts =
        {
          Tiling_core.Tiler.default_opts with
          domains = 1;
          on_eval = (fun ev -> eval := Some ev);
        }
      in
      let o = Tiling_core.Tiler.optimize ~opts nest cache in
      let fresh =
        match !eval with Some ev -> Tiling_search.Eval.fresh ev | None -> 0
      in
      let json =
        fnv1a_string (Tiling_obs.Json.to_string (Tiling_core.Tiler.to_json o))
      in
      Printf.printf
        "search/%s/n%d%s tiles=%s fresh=%d generations=%d hit=%d replacement=%d \
         compulsory=%d json=%016Lx\n%!"
        name n suffix
        (tiles_label o.Tiling_core.Tiler.tiles)
        fresh (counter "ga.generations") (counter "cme.classify.hit")
        (counter "cme.classify.replacement")
        (counter "cme.classify.compulsory")
        json)
    (let open Tiling_cache.Config in
     [
       ("MM", 100, dm8k, ""); ("T2D", 500, dm8k, ""); ("SOR", 500, dm8k, "");
       ("LU", 48, dm8k, ""); ("MM", 32, dm32k, "/32768-32-1");
       ("T2D", 64, dm32k, "/32768-32-1"); ("SOR", 48, dm32k, "/32768-32-1");
       ("LU", 24, dm32k, "/32768-32-1");
     ]);
  Metrics.set_enabled false

let run () =
  kernel_cases ();
  fuzz_cases ();
  searches ()
