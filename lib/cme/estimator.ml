open Tiling_util

type ref_counts = { r_accesses : int; r_misses : int; r_compulsory : int }

type report = {
  points : int;
  accesses : int;
  misses : int;
  compulsory : int;
  per_ref : ref_counts array;
  miss_ratio : Stats.interval;
  replacement_ratio : Stats.interval;
}

let replacement r = r.misses - r.compulsory

let default_confidence = 0.9
let default_width = 0.1

let default_points () =
  Stats.required_sample_size ~width:default_width ~confidence:default_confidence

(* [interval ~hits ~n] turns raw counts into a confidence interval; the
   sampled drivers bind it to [Stats.proportion_interval] at the requested
   confidence, [exact] to the degenerate exact interval. *)
let report_of ~interval ~points ~accesses ~misses ~compulsory ~per_ref =
  {
    points;
    accesses;
    misses;
    compulsory;
    per_ref;
    miss_ratio = interval ~hits:misses ~n:accesses;
    replacement_ratio = interval ~hits:(misses - compulsory) ~n:accesses;
  }

let sampled_interval ~confidence ~hits ~n =
  Stats.proportion_interval ~hits ~n ~confidence

let census_interval ~hits ~n =
  Stats.exact_interval
    ~center:(if n = 0 then 0. else float_of_int hits /. float_of_int n)

(* Per-reference accumulators: (accesses, misses, compulsory) triples. *)
type acc = { mutable a : int; mutable m : int; mutable c : int }

let make_accs engine =
  Array.init
    (Array.length (Engine.nest engine).Tiling_ir.Nest.refs)
    (fun _ -> { a = 0; m = 0; c = 0 })

(* A plain loop: the per-point closure an [Array.iteri] would allocate
   here sat directly on the hot path (once per sampled point). *)
let classify_point engine point accs =
  for r = 0 to Array.length accs - 1 do
    let acc = accs.(r) in
    acc.a <- acc.a + 1;
    match Engine.classify engine point r with
    | Engine.Hit -> ()
    | Engine.Replacement_miss -> acc.m <- acc.m + 1
    | Engine.Compulsory_miss ->
        acc.m <- acc.m + 1;
        acc.c <- acc.c + 1
  done

(* Census reports assembled from externally aggregated per-reference
   counts: the closed-form solver counts whole residue classes at once and
   never drives [classify_all], but its reports must look exactly like an
   [exact] census (degenerate intervals, accesses = points * nrefs). *)
let census_report ~points ~per_ref =
  let misses = Array.fold_left (fun s c -> s + c.r_misses) 0 per_ref in
  let compulsory = Array.fold_left (fun s c -> s + c.r_compulsory) 0 per_ref in
  report_of ~interval:census_interval ~points
    ~accesses:(points * Array.length per_ref)
    ~misses ~compulsory ~per_ref

let totals accs =
  let misses = Array.fold_left (fun s x -> s + x.m) 0 accs in
  let compulsory = Array.fold_left (fun s x -> s + x.c) 0 accs in
  let per_ref =
    Array.map (fun x -> { r_accesses = x.a; r_misses = x.m; r_compulsory = x.c }) accs
  in
  (misses, compulsory, per_ref)

(* Shared classification driver for [exact] and [sample_at].  [iterate]
   enumerates the points to classify. *)
let classify_all engine ~interval iterate =
  let nest = Engine.nest engine in
  let nrefs = Array.length nest.Tiling_ir.Nest.refs in
  let accs = make_accs engine in
  let points = ref 0 in
  iterate (fun point ->
      incr points;
      classify_point engine point accs);
  let misses, compulsory, per_ref = totals accs in
  report_of ~interval ~points:!points ~accesses:(!points * nrefs) ~misses
    ~compulsory ~per_ref

let exact engine =
  Tiling_obs.Span.with_ "cme.estimator.exact"
    ~attrs:
      [ ("nest", Tiling_obs.Json.String (Engine.nest engine).Tiling_ir.Nest.name) ]
    (fun () ->
      (* A census has a degenerate interval: known center, confidence 1. *)
      classify_all engine ~interval:census_interval (fun visit ->
          Tiling_ir.Nest.iter_points (Engine.nest engine) visit))

let sample_at ?(confidence = default_confidence) engine pts =
  Tiling_obs.Span.with_ "cme.estimator.sample_at"
    ~attrs:[ ("points", Tiling_obs.Json.Int (Array.length pts)) ]
    (fun () ->
      classify_all engine
        ~interval:(sampled_interval ~confidence)
        (fun visit -> Array.iter visit pts))

let sample ?(width = default_width) ?(confidence = default_confidence) ~seed engine =
  let n = Stats.required_sample_size ~width ~confidence in
  let rng = Prng.create ~seed in
  let nest = Engine.nest engine in
  (* One scratch buffer for every sampled point: the classification path
     never retains the point (sources are copied), so there is no need to
     materialise n fresh arrays.  The rng draws are identical to building
     the points up front, point by point in order. *)
  let scratch = Array.make (Tiling_ir.Nest.depth nest) 0 in
  Tiling_obs.Span.with_ "cme.estimator.sample"
    ~attrs:[ ("points", Tiling_obs.Json.Int n) ]
    (fun () ->
      classify_all engine
        ~interval:(sampled_interval ~confidence)
        (fun visit ->
          for _ = 1 to n do
            Tiling_ir.Nest.random_point_into nest rng scratch;
            visit scratch
          done))

let json_of_interval (i : Stats.interval) =
  Tiling_obs.Json.Obj
    [
      ("center", Tiling_obs.Json.Float i.Stats.center);
      ("half_width", Tiling_obs.Json.Float i.Stats.half_width);
      ("confidence", Tiling_obs.Json.Float i.Stats.confidence);
    ]

let to_json r =
  let open Tiling_obs.Json in
  Obj
    [
      ("points", Int r.points);
      ("accesses", Int r.accesses);
      ("misses", Int r.misses);
      ("compulsory", Int r.compulsory);
      ("replacement", Int (replacement r));
      ("miss_ratio", json_of_interval r.miss_ratio);
      ("replacement_ratio", json_of_interval r.replacement_ratio);
      ( "per_ref",
        List
          (Array.to_list
             (Array.map
                (fun c ->
                  Obj
                    [
                      ("accesses", Int c.r_accesses);
                      ("misses", Int c.r_misses);
                      ("compulsory", Int c.r_compulsory);
                    ])
                r.per_ref)) );
    ]

let pp ppf r =
  Fmt.pf ppf
    "points=%d accesses=%d miss=%.2f%%(±%.2f) repl=%.2f%%(±%.2f) compulsory=%d"
    r.points r.accesses
    (100. *. r.miss_ratio.Stats.center)
    (100. *. r.miss_ratio.Stats.half_width)
    (100. *. r.replacement_ratio.Stats.center)
    (100. *. r.replacement_ratio.Stats.half_width)
    r.compulsory

let pp_per_ref nest ppf r =
  Array.iteri
    (fun i (c : ref_counts) ->
      let rf = (nest.Tiling_ir.Nest.refs).(i) in
      let pct num den =
        if den = 0 then 0. else 100. *. float_of_int num /. float_of_int den
      in
      Fmt.pf ppf "  ref %d %-5s %-8s miss %5.1f%% repl %5.1f%% (of %d)@." i
        (match rf.Tiling_ir.Nest.access with
        | Tiling_ir.Nest.Read -> "load"
        | Tiling_ir.Nest.Write -> "store")
        rf.Tiling_ir.Nest.array.Tiling_ir.Array_decl.name
        (pct c.r_misses c.r_accesses)
        (pct (c.r_misses - c.r_compulsory) c.r_accesses)
        c.r_accesses)
    r.per_ref
