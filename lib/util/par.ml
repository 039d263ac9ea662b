module Metrics = Tiling_obs.Metrics
module Span = Tiling_obs.Span

let chunk_ns = Metrics.histogram "par.chunk_ns"
let chunks = Metrics.counter "par.chunks"

(* Aim for several chunks per domain so the dispenser can load-balance
   work items of uneven cost, but never less than one item per chunk. *)
let chunks_per_domain = 4

(* Per-chunk instrumentation over [lo, hi).  The metrics and span paths
   are independent: a spans-only run pays no [gettimeofday]/counter cost
   and a metrics-only run records no span. *)
let run_range f xs results failure c lo hi =
  let body () =
    try
      for i = lo to hi - 1 do
        results.(i) <- Some (f xs.(i))
      done
    with e -> ignore (Atomic.compare_and_set failure None (Some e))
  in
  let timed () =
    if Metrics.enabled () then begin
      let t0 = Unix.gettimeofday () in
      body ();
      Metrics.incr chunks;
      Metrics.observe chunk_ns
        (int_of_float ((Unix.gettimeofday () -. t0) *. 1e9))
    end
    else body ()
  in
  if Span.tracing () then
    Span.with_ "par.chunk"
      ~attrs:
        [ ("chunk", Tiling_obs.Json.Int c); ("items", Tiling_obs.Json.Int (hi - lo)) ]
      timed
  else timed ()

let map ~domains f xs =
  let n = Array.length xs in
  if domains <= 1 || n <= 1 || Pool.in_worker () then Array.map f xs
  else begin
    let chunk = max 1 (n / (domains * chunks_per_domain)) in
    let results = Array.make n None in
    let failure = Atomic.make None in
    let run_chunk c =
      let lo = c * chunk in
      run_range f xs results failure c lo (min n (lo + chunk))
    in
    let nchunks = (n + chunk - 1) / chunk in
    Pool.run ~helpers:(domains - 1) ~nchunks run_chunk;
    (match Atomic.get failure with Some e -> raise e | None -> ());
    Array.map
      (function Some v -> v | None -> assert false (* all chunks covered *))
      results
  end
