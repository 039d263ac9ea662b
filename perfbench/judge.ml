(* The quality judge: every chosen tiling is replayed through the
   trace-driven LRU simulator ([Tiling_trace] + [Tiling_cache]), never
   scored by the CME code under test.  Tiling reorders the iteration
   space, so a legal tiling must also touch exactly the untiled nest's
   accesses and compulsory misses; both invariants are checked. *)

open Tiling_cache

type verdict = {
  replacement : int;  (* simulated replacement misses of the chosen tiling *)
  accesses : int;
  ok : (unit, string) result;
}

let repl_pct v = if v.accesses = 0 then 0. else 100. *. float_of_int v.replacement /. float_of_int v.accesses

(* The run's quality figure: replacement misses over accesses summed
   across every judged tiling, so each simulated access weighs the same
   whatever kernel it belongs to. *)
let aggregate_pct vs =
  let r = List.fold_left (fun acc v -> acc + v.replacement) 0 vs
  and a = List.fold_left (fun acc v -> acc + v.accesses) 0 vs in
  if a = 0 then 0. else 100. *. float_of_int r /. float_of_int a

let cache : (string * int * int * int * int * int list, Sim.counts) Hashtbl.t =
  Hashtbl.create 16

(* Judged after the timed phase; results are memoised per
   (kernel, n, cache, tiles) because repeats choose the same tiling. *)
let simulate ~kernel ~n (config : Config.t) nest tiles =
  let key = (kernel, n, config.Config.size, config.Config.line, config.Config.assoc, tiles) in
  match Hashtbl.find_opt cache key with
  | Some c -> c
  | None ->
      let nest =
        if tiles = [] then nest else Tiling_ir.Transform.tile nest (Array.of_list tiles)
      in
      let c = (Tiling_trace.Run.simulate nest config).Tiling_trace.Run.total in
      Hashtbl.replace cache key c;
      c

let judge ~kernel ~n config nest tiles =
  let uppers = Tiling_ir.Transform.tile_spans nest in
  let legal =
    List.length tiles = Array.length uppers
    && List.for_all2 (fun t u -> 1 <= t && t <= u) tiles (Array.to_list uppers)
  in
  if not legal then
    {
      replacement = 0;
      accesses = 0;
      ok =
        Error
          (Printf.sprintf "illegal tiling [%s] for bounds [%s]"
             (String.concat "," (List.map string_of_int tiles))
             (String.concat "," (Array.to_list (Array.map string_of_int uppers))));
    }
  else
    let base = simulate ~kernel ~n config nest [] in
    let c = simulate ~kernel ~n config nest tiles in
    let replacement = Sim.replacement c and accesses = c.Sim.accesses in
    if c.Sim.accesses <> base.Sim.accesses || c.Sim.compulsory <> base.Sim.compulsory
    then
      {
        replacement;
        accesses;
        ok =
          Error
            (Printf.sprintf
               "tiled trace differs from the untiled one (accesses %d vs %d, \
                compulsory %d vs %d)"
               c.Sim.accesses base.Sim.accesses c.Sim.compulsory base.Sim.compulsory);
      }
    else { replacement; accesses; ok = Ok () }
