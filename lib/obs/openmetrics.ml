let valid_name s =
  s <> ""
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '_' || c = '.')
       s

(* The inventory is the single audit surface for instrument names: every
   instrument registered by the libraries must appear here (enforced by
   test/test_obs.ml), and the encoder sources its HELP text from it.
   Keep it sorted by name within each group. *)
let inventory =
  [
    (* cme.* — analytical model *)
    ("cme.classify.compulsory", "Accesses classified as compulsory misses");
    ("cme.classify.hit", "Accesses classified as cache hits");
    ("cme.classify.replacement", "Accesses classified as replacement misses");
    ("cme.engines.created", "CME engine instances constructed");
    ("cme.residues.memo.hit", "Residue-set memo hits (per engine)");
    ("cme.residues.memo.miss", "Residue-set memo misses (per engine)");
    ("cme.residues.shared.evictions", "Entries evicted from the shared residue cache");
    ("cme.residues.shared.hit", "Shared residue cache hits");
    ("cme.residues.shared.miss", "Shared residue cache misses");
    (* symbolic.* — closed-form CME backend *)
    ("symbolic.fallbacks", "Symbolic-backend evaluations that fell back to sampling");
    ("symbolic.points.classified", "Point classifications spent by the closed-form solver");
    ("symbolic.rows", "Iteration-space rows visited by the closed-form solver");
    ("symbolic.rows.extrapolated", "References whose row middle was extrapolated from a validated period");
    ("symbolic.rows.memo.hit", "Rows answered from the row-signature memo");
    ("symbolic.rows.parallel", "Rows walked by pool-parallel census chunks");
    ("symbolic.rows.ref_exhaustive", "References classified exhaustively after a failed period validation");
    (* ga.* — genetic algorithm engine *)
    ("ga.evaluations", "Objective evaluations performed by the GA");
    ("ga.generations", "GA generations stepped");
    ("ga.runs", "Complete GA runs");
    (* search.* — evaluation service *)
    ("search.eval.batches", "Deduplicated candidate batches evaluated");
    ("search.memo.hit", "Candidate objective memo hits");
    ("search.memo.miss", "Candidate objective memo misses");
    (* driver restart counters, one per optimizer entry point *)
    ("optimizer.restarts", "GA restarts performed by the joint optimizer");
    ("padder.restarts", "GA restarts performed by the pad searcher");
    ("tiler.restarts", "GA restarts performed by the tiler");
    (* par.* / pool.* — parallel runtime *)
    ("par.chunk_ns", "Per-chunk wall time of parallel map chunks (ns)");
    ("par.chunks", "Parallel map chunks executed");
    ("pool.chunks", "Chunks executed by the domain pool");
    ("pool.queue.depth", "Chunks queued by the job currently submitting");
    ("pool.tasks", "Jobs submitted to the domain pool");
    ("pool.worker.busy_ns", "Per-job busy time of each participating domain (ns)");
    ("pool.workers", "Live pool worker domains");
    (* fuzz.* — differential fuzzing harness *)
    ("fuzz.agree", "Fuzz trials where CME and simulator agreed");
    ("fuzz.inconclusive", "Fuzz trials the closed-form census refused");
    ("fuzz.mismatches", "Fuzz trials that found a disagreement");
    ("fuzz.shrink.steps", "Shrinking steps taken on failing fuzz cases");
    ("fuzz.trials", "Differential fuzz trials executed");
    (* server.* — daemon *)
    ("server.admission.rejected", "Requests rejected at admission (queue full)");
    ("server.connections", "Currently open client connections");
    ("server.connections.accepted", "Client connections accepted");
    ("server.metrics.scrapes", "Metrics exports served (wire method + HTTP)");
    ("server.progress.sent", "Progress notifications written to clients");
    ("server.protocol.bad_lines", "Received lines that were not valid requests");
    ("server.queue.depth", "Requests queued awaiting a scheduler worker");
    ("server.request_ns", "End-to-end request service time (ns)");
    ("server.requests.error", "Requests completed with an error response");
    ("server.requests.ok", "Requests completed successfully");
    ("server.requests.timeout", "Requests that exceeded their deadline");
    ("server.store.appends", "Results appended to the persistent store");
    ("server.store.compactions", "Store compactions performed");
    ("server.store.entries", "Distinct fingerprints in the persistent store");
    ("server.store.hits", "Requests answered from the persistent store");
    ("server.store.misses", "Store lookups that missed");
    ("server.store.records", "Records in the store file (including superseded)");
    ("server.store.refreshes", "Store reconciliations with the shared log");
    (* fleet.* — coalescing, router, worker health (docs/SERVER.md) *)
    ("fleet.coalesce.hits", "Requests attached to an identical in-flight request");
    ("fleet.coalesce.waiters", "Requests currently waiting on a coalesced evaluation");
    ("fleet.health.checks", "Worker health probes performed by the router");
    ("fleet.health.failures", "Worker health probes or forwards that failed");
    ("fleet.router.backpressure", "Worker overloaded/draining responses relayed upstream");
    ("fleet.router.failed", "Requests that exhausted every worker");
    ("fleet.router.forwarded", "Requests forwarded to a worker and answered");
    ("fleet.router.requests", "Requests received by the router");
    ("fleet.router.retries", "Failovers to the next worker after a transport failure");
    ("fleet.workers.up", "Workers currently passing health checks");
  ]

let help_of name =
  match List.assoc_opt name inventory with
  | Some h -> h
  | None -> "(undocumented; add to Tiling_obs.Openmetrics.inventory)"

(* "server.request_ns" -> "tiling_server_request_ns".  Registered names
   match [a-z0-9_.]+ (enforced by the hygiene test), so mangling dots is
   the only transformation ever needed. *)
let sample_name name =
  "tiling_" ^ String.map (fun c -> if c = '.' then '_' else c) name

let fmt_value = function
  | Json.Int i -> string_of_int i
  | Json.Float f ->
      if Float.is_integer f && Float.abs f < 1e15 then
        Printf.sprintf "%.0f" f
      else Printf.sprintf "%.17g" f
  | _ -> "0"

let escape_help s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '\\' -> Buffer.add_string b {|\\|}
      | '\n' -> Buffer.add_string b {|\n|}
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let header b name typ =
  Buffer.add_string b
    (Printf.sprintf "# HELP %s %s\n" (sample_name name) (escape_help (help_of name)));
  Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" (sample_name name) typ)

let obj_bindings = function Json.Obj kvs -> kvs | _ -> []

let encode snapshot =
  let b = Buffer.create 4096 in
  let section key = Option.value (Json.member key snapshot) ~default:(Json.Obj []) in
  List.iter
    (fun (name, v) ->
      header b name "counter";
      Buffer.add_string b
        (Printf.sprintf "%s_total %s\n" (sample_name name) (fmt_value v)))
    (obj_bindings (section "counters"));
  List.iter
    (fun (name, v) ->
      header b name "gauge";
      Buffer.add_string b
        (Printf.sprintf "%s %s\n" (sample_name name) (fmt_value v)))
    (obj_bindings (section "gauges"));
  List.iter
    (fun (name, h) ->
      header b name "histogram";
      let sname = sample_name name in
      let count =
        match Json.member "count" h with Some (Json.Int c) -> c | _ -> 0
      in
      let sum = match Json.member "sum" h with Some (Json.Int s) -> s | _ -> 0 in
      let buckets =
        match Json.member "buckets" h with Some (Json.List l) -> l | _ -> []
      in
      (* snapshot buckets are ascending by [le]; accumulate for the
         cumulative semantics OpenMetrics requires *)
      let cum = ref 0 in
      List.iter
        (fun bucket ->
          let le =
            match Json.member "le" bucket with Some (Json.Int v) -> v | _ -> 0
          in
          let c =
            match Json.member "count" bucket with Some (Json.Int v) -> v | _ -> 0
          in
          cum := !cum + c;
          Buffer.add_string b
            (Printf.sprintf "%s_bucket{le=\"%d\"} %d\n" sname le !cum))
        buckets;
      Buffer.add_string b (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" sname count);
      Buffer.add_string b (Printf.sprintf "%s_sum %d\n" sname sum);
      Buffer.add_string b (Printf.sprintf "%s_count %d\n" sname count))
    (obj_bindings (section "histograms"));
  Buffer.add_string b "# EOF\n";
  Buffer.contents b

let render () = encode (Metrics.snapshot ())

let content_type =
  "application/openmetrics-text; version=1.0.0; charset=utf-8"
