module Json = Tiling_obs.Json
module Metrics = Tiling_obs.Metrics
module Span = Tiling_obs.Span
module Events = Tiling_obs.Events
module Netio = Tiling_util.Netio
module Eval = Tiling_search.Eval
module Memo = Tiling_search.Memo

let m_progress = Metrics.counter "server.progress.sent"

let log = Logs.Src.create "tiling.server" ~doc:"tiling daemon"

module Log = (val Logs.src_log log)

type config = {
  addr : Netio.addr;
  workers : int;
  capacity : int;
  store_path : string option;
  default_deadline_s : float option;
  domains : int;
  max_line_bytes : int;
  metrics_addr : Netio.addr option;
}

let default_config =
  {
    addr = Netio.Unix_sock "tiler.sock";
    workers = 2;
    capacity = 64;
    store_path = None;
    default_deadline_s = None;
    domains = 1;
    max_line_bytes = 1 lsl 20;
    metrics_addr = None;
  }

type state = {
  cfg : config;
  fe : Frontend.t;
  sched : Scheduler.t;
  store : Store.t option;
  started_at : float;
}

let reply = Frontend.reply

(* ------------------------------------------------------------------ *)
(* Handlers.  Each handler validates [params] on the connection thread
   and returns the actual work as a closure — parameter mistakes are
   answered immediately and never consume a queue slot — plus, for the
   searching methods, the {!Store.fingerprint} that keys in-flight
   coalescing: the fingerprint pins every input that changes the answer
   (kernel, n, cache geometry, backend, seed), so two requests with the
   same key can share one evaluation and one response body. *)

let ( let* ) = Result.bind

module P = Protocol.Params

let kernel_setup params =
  let* kernel = P.require (P.string params "kernel") "kernel" in
  let* n = P.int params "n" in
  let* size = P.int params "cache_size" in
  let* line = P.int params "line" in
  let* assoc = P.int params "assoc" in
  let size = Option.value size ~default:8192
  and line = Option.value line ~default:32
  and assoc = Option.value assoc ~default:1 in
  match Tiling_kernels.Kernels.find kernel with
  | exception Not_found -> Error (Printf.sprintf "unknown kernel %S" kernel)
  | spec -> (
      let n = match n with Some n -> n | None -> List.hd spec.sizes in
      match Tiling_cache.Config.make ~size ~line ~assoc () with
      | exception Invalid_argument m -> Error m
      | cache ->
          if n < 1 then Error "n must be >= 1"
          else Ok (spec, n, spec.build n, cache))

let search_opts params =
  let* seed = P.int params "seed" in
  let seed = Option.value seed ~default:20020815 in
  let* backend = P.string params "backend" in
  let* backend =
    match backend with
    | None -> Ok Tiling_search.Backend.default
    | Some s -> Tiling_search.Backend.of_string s
  in
  Ok (seed, backend)

(* The daemon's two hooks into a search, delivered through [on_eval]:
   the request deadline becomes the evaluation service's cancellation
   probe, and the persistent store becomes its memo's backing tier. *)
let attach st ~fingerprint ~cancelled eval =
  Eval.set_cancel eval cancelled;
  Option.iter
    (fun store ->
      Memo.set_tier (Eval.memo eval) (Some (Store.tier store ~fingerprint)))
    st.store

(* Fold appends from other daemons sharing this store file into our
   tables before a search starts, so a fleet worker answers a repeat
   search warm even when a sibling process computed it. *)
let refresh_store st = Option.iter Store.refresh st.store

(* Per-phase memo/store effectiveness, recorded into the request's trace
   so `tiler request --trace` can print hit rates next to the flame. *)
let eval_stats_instant ~phase eval =
  if Span.tracing () then
    Span.instant "request.eval.stats"
      ~attrs:
        [
          ("phase", Json.String phase);
          ("memo_hits", Json.Int (Eval.hits eval));
          ("fresh", Json.Int (Eval.fresh eval));
          ("distinct", Json.Int (Eval.distinct eval));
        ]

let sync_store st = Option.iter Store.sync st.store

let setup_json (spec : Tiling_kernels.Kernels.spec) n
    (cache : Tiling_cache.Config.t) =
  [
    ("kernel", Json.String spec.name);
    ("n", Json.Int n);
    ( "cache",
      Json.Obj
        [
          ("size", Json.Int cache.Tiling_cache.Config.size);
          ("line", Json.Int cache.Tiling_cache.Config.line);
          ("assoc", Json.Int cache.Tiling_cache.Config.assoc);
        ] );
  ]

let handle_analyze _st params =
  let* spec, n, nest, cache = kernel_setup params in
  let* tiles = P.int_list params "tiles" in
  let* exact = P.bool params "exact" in
  let* seed = P.int params "seed" in
  let exact = Option.value exact ~default:false
  and seed = Option.value seed ~default:20020815 in
  Ok
    ( (fun ~cancelled:_ ->
        let nest =
          match tiles with
          | None -> nest
          | Some tiles -> Tiling_ir.Transform.tile nest (Array.of_list tiles)
        in
        let engine = Tiling_cme.Engine.create nest cache in
        let report =
          if exact then Tiling_cme.Estimator.exact engine
          else Tiling_cme.Estimator.sample ~seed engine
        in
        Json.Obj
          (setup_json spec n cache
          @ [ ("report", Tiling_cme.Estimator.to_json report) ])),
      None )

let handle_tile st params =
  let* spec, n, nest, cache = kernel_setup params in
  let* seed, backend = search_opts params in
  let fingerprint =
    Store.fingerprint ~method_:"tile" ~kernel:spec.name ~n ~cache
      ~backend:backend.Tiling_search.Backend.name ~seed
  in
  Ok
    ( (fun ~cancelled ->
        refresh_store st;
        let evals = ref [] in
        let opts =
          {
            Tiling_core.Tiler.default_opts with
            seed;
            domains = st.cfg.domains;
            backend;
            on_eval =
              (fun eval ->
                evals := eval :: !evals;
                attach st ~fingerprint ~cancelled eval);
          }
        in
        let o = Tiling_core.Tiler.optimize ~opts nest cache in
        List.iter (eval_stats_instant ~phase:"tile") !evals;
        sync_store st;
        Json.Obj
          (setup_json spec n cache @ [ ("outcome", Tiling_core.Tiler.to_json o) ])),
      Some fingerprint )

let handle_pad_tile st params =
  let* spec, n, nest, cache = kernel_setup params in
  let* seed, backend = search_opts params in
  (* Two search phases, two fingerprints: candidate values in the
     tile phase depend on the padding chosen, but that padding is
     itself a deterministic function of the fingerprinted inputs. *)
  let fp phase =
    Store.fingerprint
      ~method_:("pad-tile." ^ phase)
      ~kernel:spec.name ~n ~cache
      ~backend:backend.Tiling_search.Backend.name ~seed
  in
  Ok
    ( (fun ~cancelled ->
        refresh_store st;
        let pad_evals = ref [] and tile_evals = ref [] in
        let popts =
          {
            Tiling_core.Padder.default_opts with
            seed;
            domains = st.cfg.domains;
            backend;
            on_eval =
              (fun eval ->
                pad_evals := eval :: !pad_evals;
                attach st ~fingerprint:(fp "pad") ~cancelled eval);
          }
        in
        let topts =
          {
            Tiling_core.Tiler.default_opts with
            seed;
            domains = st.cfg.domains;
            backend;
            on_eval =
              (fun eval ->
                tile_evals := eval :: !tile_evals;
                attach st ~fingerprint:(fp "tile") ~cancelled eval);
          }
        in
        let o = Tiling_core.Optimizer.pad_then_tile ~topts ~popts nest cache in
        List.iter (eval_stats_instant ~phase:"pad") !pad_evals;
        List.iter (eval_stats_instant ~phase:"tile") !tile_evals;
        sync_store st;
        Json.Obj
          (setup_json spec n cache
          @ [ ("outcome", Tiling_core.Optimizer.combined_to_json o) ])),
      (* The whole combined request is the coalescible unit; its key must
         differ from a plain "tile" of the same setup, hence the method
         prefix carried by the phase fingerprints. *)
      Some (fp "pad") )

let handle_fuzz_case _st params =
  let* line = P.require (P.string params "case") "case" in
  let* case = Tiling_fuzz.Case.of_string line in
  Ok
    ( (fun ~cancelled:_ ->
      let r = Tiling_fuzz.Oracle.check_case case in
      let triple (a, m, c) = Json.List [ Json.Int a; Json.Int m; Json.Int c ] in
      let delta (d : Tiling_fuzz.Oracle.ref_delta) =
        Json.Obj
          [
            ("ref", Json.Int d.ref_id);
            ("cme", triple d.cme);
            ("sim", triple d.sim);
          ]
      in
      let verdict, deltas =
        match r.verdict with
        | Tiling_fuzz.Oracle.Agree -> ("agree", [])
        | Tiling_fuzz.Oracle.Mismatch ds -> ("mismatch", ds)
        | Tiling_fuzz.Oracle.Inconclusive -> ("inconclusive", [])
      in
      Json.Obj
        [
          ("case", Json.String (Tiling_fuzz.Case.to_string case));
          ("verdict", Json.String verdict);
          ("deltas", Json.List (List.map delta deltas));
          ("points", Json.Int r.points);
          ("accesses", Json.Int r.accesses);
        ]),
      None )

let stats_json ?(events = 0) st =
  let p50, p95, samples = Scheduler.latency_ms st.sched in
  let inflight =
    List.map
      (fun (label, queued_s, running_s) ->
        Json.Obj
          [
            ("method", Json.String label);
            ("queued_s", Json.Float queued_s);
            ("running_s", Json.Float running_s);
          ])
      (Scheduler.inflight st.sched)
  in
  let store =
    match st.store with
    | None -> Json.Null
    | Some s ->
        Json.Obj
          [
            ("path", Json.String (Store.path s));
            ("entries", Json.Int (Store.entries s));
            ("records", Json.Int (Store.records s));
            ("fingerprints", Json.Int (Store.fingerprints s));
            ("hits", Json.Int (Store.hits s));
            ("misses", Json.Int (Store.misses s));
            ("appends", Json.Int (Store.appends s));
            ("compactions", Json.Int (Store.compactions s));
            ("skipped_on_load", Json.Int (Store.skipped_on_load s));
          ]
  in
  Json.Obj
    ([
      ("pid", Json.Int (Unix.getpid ()));
      ("version", Json.Int Protocol.version);
      ("uptime_s", Json.Float (Unix.gettimeofday () -. st.started_at));
      ( "queue",
        Json.Obj
          [
            ("depth", Json.Int (Scheduler.depth st.sched));
            ("capacity", Json.Int (Scheduler.capacity st.sched));
            ("workers", Json.Int (Scheduler.workers st.sched));
          ] );
      ( "requests",
        Json.Obj
          [
            ("completed", Json.Int (Scheduler.completed st.sched));
            ("rejected", Json.Int (Scheduler.rejected st.sched));
            ("timeouts", Json.Int (Scheduler.timeouts st.sched));
            ("coalesced", Json.Int (Scheduler.coalesced st.sched));
            ("waiting", Json.Int (Scheduler.waiting st.sched));
          ] );
      ( "latency_ms",
        Json.Obj
          [
            ("p50", Json.Float p50);
            ("p95", Json.Float p95);
            ("samples", Json.Int samples);
          ] );
      ("latency_ns_histogram", Scheduler.latency_histogram ());
      ("inflight", Json.List inflight);
      ("connections", Json.Int (Frontend.connections st.fe));
      ("store", store);
    ]
    @
    if events <= 0 then []
    else
      [
        ( "events",
          Json.List (List.map Events.to_json (Events.recent ~limit:events ())) );
      ])

(* ------------------------------------------------------------------ *)
(* Dispatch                                                             *)

let handler_for = function
  | "analyze" -> Some handle_analyze
  | "tile" -> Some handle_tile
  | "pad-tile" -> Some handle_pad_tile
  | "fuzz-case" -> Some handle_fuzz_case
  | _ -> None

let dispatch st conn (req : Protocol.request) =
  match req.meth with
  | "stats" -> (
      match P.int req.params "events" with
      | Error m ->
          reply conn
            (Protocol.error_response ~id:req.id (Protocol.err Protocol.Bad_request m))
      | Ok events ->
          let events = Option.value events ~default:0 in
          reply conn (Protocol.ok_response ~id:req.id (stats_json ~events st)))
  | meth -> (
      match handler_for meth with
      | None ->
          reply conn
            (Protocol.error_response ~id:req.id
               (Protocol.err Protocol.Unknown_method
                  (Printf.sprintf "unknown method %S" meth)))
      | Some handler -> (
          let rel_deadline =
            match P.float req.params "deadline_s" with
            | Error _ as e -> e
            | Ok rel -> (
                match (rel, st.cfg.default_deadline_s) with
                | None, None -> Ok None
                | (Some _ as r), _ | None, (Some _ as r) -> Ok r)
          in
          match
            let* work, key = handler st req.params in
            let* rel = rel_deadline in
            let* trace = P.bool req.params "trace" in
            let* progress = P.bool req.params "progress" in
            Ok
              ( work,
                key,
                rel,
                Option.value trace ~default:false,
                Option.value progress ~default:false )
          with
          | Error m ->
              reply conn
                (Protocol.error_response ~id:req.id
                   (Protocol.err Protocol.Bad_request m))
          | Ok (work, key, rel_deadline, trace, progress) -> (
              let deadline_s =
                Option.map (fun d -> Unix.gettimeofday () +. d) rel_deadline
              in
              (* Coalescing is off for traced / progress-streaming
                 requests (a waiter's envelope would carry someone else's
                 trace, and progress frames are per-subscription), and
                 requests only share a slot when their deadline budgets
                 match — a tight-deadline request must not inherit a
                 result computed under a laxer one being cancelled late,
                 nor vice versa. *)
              let key =
                if trace || progress then None
                else
                  Option.map
                    (fun k ->
                      match rel_deadline with
                      | None -> k
                      | Some d -> Printf.sprintf "%s|dl%g" k d)
                    key
              in
              let id = req.id in
              (* One root context serves both opt-ins: spans accumulate in
                 its buffer for the ["trace"] field, and its trace id is the
                 routing key that picks this request's events out of the
                 process-wide journal. *)
              let tctx =
                if trace || progress then Some (Span.start_trace ()) else None
              in
              let received_us = Span.now_us () in
              Frontend.conn_begin conn;
              let subscription =
                match (tctx, progress) with
                | Some ctx, true ->
                    let tid = ctx.Span.trace_id in
                    Some
                      (Events.subscribe (fun ev ->
                           if ev.Events.trace_id = Some tid then begin
                             Metrics.incr m_progress;
                             reply conn
                               (Protocol.progress_response ~id
                                  (Events.to_json ev))
                           end))
                | _ -> None
              in
              let close_trace result =
                match tctx with
                | None -> result
                | Some ctx -> (
                    match result with
                    | Ok (Json.Obj fields) when trace ->
                        let total_us = Span.now_us () -. received_us in
                        let tree = Span.finish_trace ctx in
                        let tree =
                          match tree with
                          | Json.Obj tfields ->
                              Json.Obj
                                (tfields @ [ ("total_us", Json.Float total_us) ])
                          | other -> other
                        in
                        Ok (Json.Obj (fields @ [ ("trace", tree) ]))
                    | result ->
                        Span.discard_trace ctx;
                        result)
              in
              let deliver ~coalesced result =
                Option.iter Events.unsubscribe subscription;
                (match close_trace result with
                | Ok r -> reply conn (Protocol.ok_response ~id ~coalesced r)
                | Error e ->
                    reply conn (Protocol.error_response ~id ~coalesced e));
                Frontend.conn_end conn
              in
              let abandon () =
                Option.iter Events.unsubscribe subscription;
                Option.iter Span.discard_trace tctx;
                Frontend.conn_end conn
              in
              match
                Scheduler.submit st.sched ?deadline_s ~label:req.meth
                  ?trace:tctx ?key ~work ~deliver ()
              with
              | Ok () -> ()
              | Error (Scheduler.Overloaded retry_after_s) ->
                  abandon ();
                  reply conn
                    (Protocol.error_response ~id
                       (Protocol.err ~retry_after_s Protocol.Overloaded
                          "admission queue is full"))
              | Error Scheduler.Draining ->
                  abandon ();
                  reply conn
                    (Protocol.error_response ~id
                       (Protocol.err Protocol.Draining
                          "daemon is draining; connect elsewhere")))))

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                            *)

let run cfg =
  let store =
    match cfg.store_path with
    | None -> Ok None
    | Some path -> Result.map Option.some (Store.open_ ~path ())
  in
  match store with
  | Error m -> Error (Printf.sprintf "cannot open store: %s" m)
  | Ok store -> (
      match
        Frontend.start ~addr:cfg.addr ~max_line_bytes:cfg.max_line_bytes
          ~metrics_addr:cfg.metrics_addr
      with
      | Error m ->
          Option.iter Store.close store;
          Error m
      | Ok fe ->
          let st =
            {
              cfg;
              fe;
              sched =
                Scheduler.create ~workers:cfg.workers ~capacity:cfg.capacity ();
              store;
              started_at = Unix.gettimeofday ();
            }
          in
          Log.app (fun f ->
              f "serving on %s (pid %d, %d workers, %d slots%s)"
                (Netio.addr_to_string cfg.addr)
                (Unix.getpid ()) cfg.workers cfg.capacity
                (match cfg.store_path with
                | Some p -> Printf.sprintf ", store %s" p
                | None -> ", no store"));
          (* Every admitted job finishes before the readers are unblocked,
             and nothing touches the store once the scheduler is drained. *)
          Frontend.serve fe ~dispatch:(dispatch st) ~drain:(fun () ->
              Scheduler.drain st.sched;
              Option.iter
                (fun s ->
                  Store.sync s;
                  Store.close s)
                store);
          Ok ())
