type ref_delta = {
  ref_id : int;
  cme : int * int * int;
  sim : int * int * int;
}

type verdict =
  | Agree
  | Mismatch of ref_delta list
  | Inconclusive

type result = {
  verdict : verdict;
  points : int;
  accesses : int;
}

let check ?(mode = `Exact) nest cache =
  Tiling_obs.Span.with_ "fuzz.oracle.check"
    ~attrs:[ ("nest", Tiling_obs.Json.String nest.Tiling_ir.Nest.name) ]
    (fun () ->
      let engine = Tiling_cme.Engine.create nest cache in
      match
        match mode with
        | `Exact -> Ok (Tiling_cme.Estimator.exact engine)
        | `Closed_form -> Tiling_cme.Closed_form.estimate engine
      with
      | Error reason ->
          (* A refusal is not a model bug: the nest is simply outside the
             closed form's regime. *)
          Logs.debug (fun m ->
              m "oracle: closed form refused %s (%a)"
                nest.Tiling_ir.Nest.name Tiling_cme.Closed_form.pp_reason
                reason);
          { verdict = Inconclusive; points = 0; accesses = 0 }
      | Ok est ->
      let sim = Tiling_trace.Run.simulate nest cache in
      let deltas = ref [] in
      Array.iteri
        (fun i (c : Tiling_cme.Estimator.ref_counts) ->
          let s = sim.Tiling_trace.Run.per_ref.(i) in
          let cme =
            ( c.Tiling_cme.Estimator.r_accesses,
              c.Tiling_cme.Estimator.r_misses,
              c.Tiling_cme.Estimator.r_compulsory )
          in
          let sm =
            ( s.Tiling_cache.Sim.accesses,
              s.Tiling_cache.Sim.misses,
              s.Tiling_cache.Sim.compulsory )
          in
          if cme <> sm then deltas := { ref_id = i; cme; sim = sm } :: !deltas)
        est.Tiling_cme.Estimator.per_ref;
      let verdict =
        match List.rev !deltas with [] -> Agree | ds -> Mismatch ds
      in
      {
        verdict;
        points = est.Tiling_cme.Estimator.points;
        accesses = est.Tiling_cme.Estimator.accesses;
      })

let check_case ?mode case = check ?mode (Case.nest case) (Case.cache case)

let pp_delta ppf d =
  let pr (a, m, c) = Printf.sprintf "acc=%d miss=%d comp=%d" a m c in
  Fmt.pf ppf "ref %d: cme{%s} sim{%s}" d.ref_id (pr d.cme) (pr d.sim)

let pp_result ppf r =
  match r.verdict with
  | Agree -> Fmt.pf ppf "agree (%d points, %d accesses)" r.points r.accesses
  | Mismatch ds ->
      Fmt.pf ppf "MISMATCH (%d points):@.%a" r.points
        Fmt.(list ~sep:(any "@.") pp_delta)
        ds
  | Inconclusive -> Fmt.pf ppf "inconclusive (closed form refused)"
