open Tiling_util
open Tiling_kernels

let log_src = Logs.Src.create "tiling.fuzz" ~doc:"Differential fuzzer"

module Log = (val Logs.src_log log_src : Logs.LOG)

module Metrics = Tiling_obs.Metrics

let m_trials = Metrics.counter "fuzz.trials"
let m_agree = Metrics.counter "fuzz.agree"
let m_inconclusive = Metrics.counter "fuzz.inconclusive"
let m_mismatches = Metrics.counter "fuzz.mismatches"

type knobs = {
  max_depth : int;
  min_extent : int;
  max_extent : int;
  max_narrays : int;
  max_nrefs : int;
  max_offset : int;
  max_coeff : int;
  max_step : int;
  max_sets : int;
  max_assoc : int;
  lines : int list;
  max_tri_pct : int;
}

let default_knobs =
  {
    max_depth = 3;
    min_extent = 2;
    max_extent = 10;
    max_narrays = 3;
    max_nrefs = 5;
    max_offset = 3;
    max_coeff = 3;
    max_step = 3;
    max_sets = 32;
    max_assoc = 8;
    lines = [ 8; 16; 32; 64 ];
    max_tri_pct = 0;
  }

let knobs_of_string s =
  let ( let* ) = Result.bind in
  let pos_pow2 k v =
    if Intmath.is_pow2 v then Ok v
    else Error (Printf.sprintf "%s must be a positive power of two, got %d" k v)
  in
  String.split_on_char ',' s
  |> List.fold_left
       (fun acc tok ->
         let* k = acc in
         if tok = "" then Ok k
         else
           match String.index_opt tok '=' with
           | None -> Error (Printf.sprintf "override %S has no '='" tok)
           | Some i -> (
               let key = String.sub tok 0 i in
               let v = String.sub tok (i + 1) (String.length tok - i - 1) in
               match int_of_string_opt v with
               | None -> Error (Printf.sprintf "override %s: bad int %S" key v)
               | Some v -> (
                   let pos name =
                     if v >= 1 then Ok v
                     else Error (Printf.sprintf "%s must be >= 1" name)
                   in
                   match key with
                   | "depth" ->
                       let* v = pos "depth" in
                       Ok { k with max_depth = v }
                   | "extent" ->
                       let* v = pos "extent" in
                       Ok { k with max_extent = v; min_extent = min k.min_extent v }
                   | "arrays" ->
                       let* v = pos "arrays" in
                       Ok { k with max_narrays = v }
                   | "refs" ->
                       let* v = pos "refs" in
                       Ok { k with max_nrefs = v }
                   | "offset" ->
                       if v >= 0 then Ok { k with max_offset = v }
                       else Error "offset must be >= 0"
                   | "coeff" ->
                       let* v = pos "coeff" in
                       Ok { k with max_coeff = v }
                   | "step" ->
                       let* v = pos "step" in
                       Ok { k with max_step = v }
                   | "sets" ->
                       let* v = pos_pow2 "sets" v in
                       Ok { k with max_sets = v }
                   | "assoc" ->
                       let* v = pos_pow2 "assoc" v in
                       Ok { k with max_assoc = v }
                   | "line" ->
                       let* v = pos_pow2 "line" v in
                       Ok { k with lines = [ v ] }
                   | "tri" ->
                       if v >= 0 && v <= 100 then Ok { k with max_tri_pct = v }
                       else Error "tri must lie in [0, 100] (percent)"
                   | other ->
                       Error
                         (Printf.sprintf
                            "unknown knob %S (depth, extent, arrays, refs, \
                             offset, coeff, step, sets, assoc, line, tri)"
                            other))))
       (Ok default_knobs)

let pow2_upto rng max_v =
  1 lsl Prng.int_in rng ~lo:0 ~hi:(Intmath.ceil_log2 max_v)

let draw_case knobs rng =
  let depth = Prng.int_in rng ~lo:1 ~hi:knobs.max_depth in
  let extents =
    Array.init depth (fun _ ->
        Prng.int_in rng ~lo:knobs.min_extent ~hi:knobs.max_extent)
  in
  let steps =
    Array.init depth (fun _ ->
        (* bias to unit strides: they are the common case and keep half of
           the corpus within the paper's original domain *)
        if Prng.bool rng then 1 else Prng.int_in rng ~lo:1 ~hi:knobs.max_step)
  in
  let narrays = Prng.int_in rng ~lo:1 ~hi:knobs.max_narrays in
  let nrefs = Prng.int_in rng ~lo:1 ~hi:knobs.max_nrefs in
  let max_offset = Prng.int_in rng ~lo:0 ~hi:knobs.max_offset in
  let max_coeff =
    if Prng.bool rng then 1 else Prng.int_in rng ~lo:1 ~hi:knobs.max_coeff
  in
  let write_ratio = [| 0.; 0.25; 0.5; 0.75; 1. |].(Prng.int rng 5) in
  (* Drawn only when the knob is on, so rectangular streams are unchanged
     and corpora recorded before triangular shapes existed still replay. *)
  let tri_ratio =
    if knobs.max_tri_pct = 0 then 0.
    else float_of_int (Prng.int_in rng ~lo:0 ~hi:knobs.max_tri_pct) /. 100.
  in
  let line = List.nth knobs.lines (Prng.int rng (List.length knobs.lines)) in
  let sets = pow2_upto rng knobs.max_sets in
  let assoc = pow2_upto rng knobs.max_assoc in
  let seed = Prng.int rng 1_000_000_000 in
  {
    Case.spec =
      {
        Random_kernel.depth;
        extents;
        steps;
        narrays;
        nrefs;
        max_offset;
        max_coeff;
        write_ratio;
        align = line;
        tri_ratio;
      };
    seed;
    sets;
    assoc;
    line;
  }

type mismatch = {
  trial : int;
  raw : Case.t;
  shrunk : Case.t;
  shrink_checks : int;
  result : Oracle.result;
}

type outcome = {
  trials_run : int;
  agreed : int;
  inconclusive : int;
  mismatches : mismatch list;
  accesses : int;
  wall_s : float;
}

(* Each trial's generator depends only on (seed, index): replayable in
   isolation, stable under time-budget truncation. *)
let trial_rng ~seed index = Prng.create ~seed:(seed lxor ((index + 1) * 0x9E3779B9))

let run ?(knobs = default_knobs) ?time_budget ?on_trial ?(domains = 1)
    ?(mode = `Exact) ~trials ~seed () =
  Tiling_obs.Span.with_ "fuzz.run"
    ~attrs:
      [
        ("trials", Tiling_obs.Json.Int trials);
        ("seed", Tiling_obs.Json.Int seed);
        ("domains", Tiling_obs.Json.Int domains);
      ]
    (fun () ->
      let t0 = Unix.gettimeofday () in
      let agreed = ref 0
      and inconclusive = ref 0
      and accesses = ref 0
      and mismatches = ref []
      and ran = ref 0 in
      let out_of_time () =
        match time_budget with
        | None -> false
        | Some b -> Unix.gettimeofday () -. t0 >= b
      in
      (* Trials are checked in batches: the oracle runs for a whole batch in
         parallel (each trial is independent — its generator depends only on
         (seed, index)), then accounting, shrinking and [on_trial] replay
         sequentially in index order, so the outcome is byte-identical to a
         [domains = 1] run.  The time budget is tested between batches. *)
      let batch = if domains > 1 then domains * 4 else 1 in
      let account (index, case, result) =
        incr ran;
        Metrics.incr m_trials;
        accesses := !accesses + result.Oracle.accesses;
        (match result.Oracle.verdict with
        | Oracle.Agree ->
            incr agreed;
            Metrics.incr m_agree
        | Oracle.Inconclusive ->
            incr inconclusive;
            Metrics.incr m_inconclusive
        | Oracle.Mismatch _ ->
            Metrics.incr m_mismatches;
            Log.warn (fun m ->
                m "trial %d mismatched: %s — shrinking" index
                  (Case.to_string case));
            let shrunk, shrink_checks = Shrink.minimize ~mode case in
            mismatches :=
              {
                trial = index;
                raw = case;
                shrunk;
                shrink_checks;
                result = Oracle.check_case ~mode shrunk;
              }
              :: !mismatches);
        Option.iter (fun f -> f index case result) on_trial;
        if (index + 1) mod 50 = 0 then
          Log.info (fun m ->
              m "%d/%d trials: %d agree, %d inconclusive, %d mismatches"
                (index + 1) trials !agreed !inconclusive
                (List.length !mismatches))
      in
      let i = ref 0 in
      while !i < trials && not (out_of_time ()) do
        let lo = !i in
        let hi = min trials (lo + batch) in
        Array.init (hi - lo) (fun k -> lo + k)
        |> Par.map ~domains (fun index ->
               let case = draw_case knobs (trial_rng ~seed index) in
               (index, case, Oracle.check_case ~mode case))
        |> Array.iter account;
        i := hi
      done;
      {
        trials_run = !ran;
        agreed = !agreed;
        inconclusive = !inconclusive;
        mismatches = List.rev !mismatches;
        accesses = !accesses;
        wall_s = Unix.gettimeofday () -. t0;
      })

let load_corpus path =
  match open_in path with
  | exception Sys_error m -> Error m
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec go n acc =
            match input_line ic with
            | exception End_of_file -> Ok (List.rev acc)
            | line ->
                let t = String.trim line in
                if t = "" || t.[0] = '#' then go (n + 1) acc
                else
                  match Case.of_string t with
                  | Ok case -> go (n + 1) (case :: acc)
                  | Error m -> Error (Printf.sprintf "line %d: %s" n m)
          in
          go 1 [])
