type t = {
  name : string;
  cost :
    Tiling_cache.Config.t -> Tiling_ir.Nest.t -> points:int array array -> float;
}

let cme_sample =
  {
    name = "cme-sample";
    cost =
      (fun cache nest ~points ->
        let engine = Tiling_cme.Engine.create nest cache in
        let report = Tiling_cme.Estimator.sample_at engine points in
        float_of_int (Tiling_cme.Estimator.replacement report));
  }

let cme_exact =
  {
    name = "cme-exact";
    cost =
      (fun cache nest ~points:_ ->
        let engine = Tiling_cme.Engine.create nest cache in
        let report = Tiling_cme.Estimator.exact engine in
        float_of_int (Tiling_cme.Estimator.replacement report));
  }

let sim =
  {
    name = "sim";
    cost =
      (fun cache nest ~points:_ ->
        let report = Tiling_trace.Run.simulate nest cache in
        float_of_int (Tiling_cache.Sim.replacement report.Tiling_trace.Run.total));
  }

let m_fallbacks = Tiling_obs.Metrics.counter "symbolic.fallbacks"

let symbolic =
  {
    name = "symbolic";
    cost =
      (fun cache nest ~points ->
        let engine = Tiling_cme.Engine.create nest cache in
        let nrefs = Array.length nest.Tiling_ir.Nest.refs in
        (* The census may spend what classifying the embedded sample would,
           so a candidate never costs much more than under cme-sample: the
           answer is exact where the census fits, else the sample's. *)
        match
          Tiling_cme.Closed_form.estimate
            ~budget:(Array.length points * nrefs)
            engine
        with
        | Ok report ->
            float_of_int (Tiling_cme.Estimator.replacement report)
        | Error reason ->
            Tiling_obs.Metrics.incr m_fallbacks;
            Logs.debug (fun m ->
                m "symbolic backend falling back to sampling (%a) on %s"
                  Tiling_cme.Closed_form.pp_reason reason
                  nest.Tiling_ir.Nest.name);
            let report = Tiling_cme.Estimator.sample_at engine points in
            (* The census reports whole-space counts; keep fallback
               candidates on the same scale so one search never compares
               sampled against census magnitudes. *)
            let scale =
              if report.Tiling_cme.Estimator.accesses = 0 then 0.
              else
                float_of_int (Tiling_ir.Nest.trip_count nest * nrefs)
                /. float_of_int report.Tiling_cme.Estimator.accesses
            in
            float_of_int (Tiling_cme.Estimator.replacement report) *. scale);
  }

let default = cme_sample
let all = [ cme_sample; cme_exact; sim; symbolic ]
let names = List.map (fun b -> b.name) all

let of_string s =
  match List.find_opt (fun b -> String.equal b.name s) all with
  | Some b -> Ok b
  | None ->
      Error
        (Printf.sprintf "unknown backend %S (expected one of %s)" s
           (String.concat ", " names))
