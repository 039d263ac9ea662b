module Json = Tiling_obs.Json
module Metrics = Tiling_obs.Metrics
module Span = Tiling_obs.Span

let m_rejected = Metrics.counter "server.admission.rejected"
let m_ok = Metrics.counter "server.requests.ok"
let m_error = Metrics.counter "server.requests.error"
let m_timeout = Metrics.counter "server.requests.timeout"
let m_latency = Metrics.histogram "server.request_ns"
let g_depth = Metrics.gauge "server.queue.depth"

(* Named for fleet mode, where the scheduler is the only coalescing layer:
   identical requests through a router meet on one worker (same shard
   key) and are merged here. *)
let m_coalesce_hits = Metrics.counter "fleet.coalesce.hits"
let g_coalesce_waiters = Metrics.gauge "fleet.coalesce.waiters"

type reject = Overloaded of float | Draining

type deliver = coalesced:bool -> (Json.t, Protocol.error) result -> unit

type job = {
  work : cancelled:(unit -> bool) -> Json.t;
  deliver : deliver;
  mutable waiters : deliver list;  (* coalesced requests; guarded by [lock] *)
  key : string option;  (* coalescing fingerprint, when dedupable *)
  deadline : float option;
  enqueued_at : float;
  label : string;
  trace : Span.context option;
  enq_us : float; (* Span.now_us at enqueue, for the queue-wait span *)
}

type inflight_entry = { i_label : string; i_started : float; i_queued_s : float }

type t = {
  queue : job Queue.t;
  lock : Mutex.t;
  nonempty : Condition.t;
  capacity : int;
  mutable closed : bool;
  mutable threads : Thread.t list;
  (* latency ring, guarded by [lock] *)
  ring : float array;
  mutable ring_len : int;
  mutable ring_pos : int;
  completed : int Atomic.t;
  rejected : int Atomic.t;
  timeouts : int Atomic.t;
  coalesced : int Atomic.t;  (* requests attached as waiters, ever *)
  mutable waiting : int;  (* waiters currently attached; guarded by [lock] *)
  (* keyed jobs that are queued or running, so an identical request can
     attach instead of consuming a slot; guarded by [lock] *)
  coalescing : (string, job) Hashtbl.t;
  (* jobs currently executing on a worker, guarded by [lock] *)
  running : (int, inflight_entry) Hashtbl.t;
  next_job : int Atomic.t;
}

let past deadline =
  match deadline with Some d -> Unix.gettimeofday () > d | None -> false

let record_latency t seconds =
  Mutex.protect t.lock (fun () ->
      t.ring.(t.ring_pos) <- seconds;
      t.ring_pos <- (t.ring_pos + 1) mod Array.length t.ring;
      t.ring_len <- min (t.ring_len + 1) (Array.length t.ring));
  Metrics.observe m_latency (int_of_float (seconds *. 1e9))

let run_job t job =
  let started = Unix.gettimeofday () in
  let queued_s = started -. job.enqueued_at in
  (* The queue phase ends here, whoever we are about to run (or fail): a
     trace always decomposes into queue wait + run time. *)
  (match job.trace with
  | Some ctx ->
      Span.record_at ctx "request.queue" ~ts_us:job.enq_us
        ~dur_us:(Span.now_us () -. job.enq_us)
  | None -> ());
  let key = Atomic.fetch_and_add t.next_job 1 in
  Mutex.protect t.lock (fun () ->
      Hashtbl.replace t.running key
        { i_label = job.label; i_started = started; i_queued_s = queued_s });
  let finish result =
    (* Detach the coalescing entry and collect the waiters under the
       lock, so no request can attach once delivery has begun: a group
       either shares this result or starts a fresh evaluation. *)
    let waiters =
      Mutex.protect t.lock (fun () ->
          Hashtbl.remove t.running key;
          (match job.key with
          | Some k -> Hashtbl.remove t.coalescing k
          | None -> ());
          let ws = job.waiters in
          job.waiters <- [];
          t.waiting <- t.waiting - List.length ws;
          Metrics.set g_coalesce_waiters (float_of_int t.waiting);
          ws)
    in
    (match result with
    | Ok _ -> Metrics.incr m_ok
    | Error { Protocol.code = Protocol.Deadline_exceeded; _ } ->
        Atomic.incr t.timeouts;
        Metrics.incr m_timeout
    | Error _ -> Metrics.incr m_error);
    Atomic.incr t.completed;
    record_latency t (Unix.gettimeofday () -. job.enqueued_at);
    (* Every member of a coalesced group is flagged — the leader included —
       so the group's envelopes are byte-identical modulo request id. *)
    job.deliver ~coalesced:(waiters <> []) result;
    List.iter (fun d -> d ~coalesced:true result) (List.rev waiters)
  in
  if past job.deadline then
    finish
      (Error
         (Protocol.err Protocol.Deadline_exceeded
            "deadline expired while the request was queued"))
  else
    let execute () =
      match job.trace with
      | Some ctx ->
          Span.with_ambient (Some ctx) (fun () ->
              Span.with_ "request.run" (fun () ->
                  job.work ~cancelled:(fun () -> past job.deadline)))
      | None -> job.work ~cancelled:(fun () -> past job.deadline)
    in
    match execute () with
    | result -> finish (Ok result)
    | exception Tiling_search.Eval.Cancelled ->
        finish
          (Error (Protocol.err Protocol.Deadline_exceeded "deadline exceeded"))
    | exception e ->
        finish
          (Error
             (Protocol.err Protocol.Internal
                (Printf.sprintf "request handler failed: %s" (Printexc.to_string e))))

let worker t () =
  let rec loop () =
    let job =
      Mutex.protect t.lock (fun () ->
          let rec await () =
            if not (Queue.is_empty t.queue) then begin
              let job = Queue.pop t.queue in
              Metrics.set g_depth (float_of_int (Queue.length t.queue));
              Some job
            end
            else if t.closed then None
            else begin
              Condition.wait t.nonempty t.lock;
              await ()
            end
          in
          await ())
    in
    match job with
    | Some job ->
        run_job t job;
        loop ()
    | None -> ()
  in
  loop ()

let create ?(workers = 2) ?(capacity = 64) () =
  let workers = max 1 workers and capacity = max 1 capacity in
  let t =
    {
      queue = Queue.create ();
      lock = Mutex.create ();
      nonempty = Condition.create ();
      capacity;
      closed = false;
      threads = [];
      ring = Array.make 1024 0.;
      ring_len = 0;
      ring_pos = 0;
      completed = Atomic.make 0;
      rejected = Atomic.make 0;
      timeouts = Atomic.make 0;
      coalesced = Atomic.make 0;
      waiting = 0;
      coalescing = Hashtbl.create 16;
      running = Hashtbl.create 8;
      next_job = Atomic.make 0;
    }
  in
  t.threads <- List.init workers (fun _ -> Thread.create (worker t) ());
  t

(* Backoff hint for a rejected client: the queue's expected service time
   from recent latencies (median x queued-ahead / workers), clamped to a
   sane range.  Uses the live queue depth, not the configured capacity, so
   the hint shrinks as the backlog drains.  With no history yet, one
   second.  Runs lock-free: [submit] calls it with [t.lock] already held,
   and a racy external read only skews an advisory hint. *)
let retry_after t =
  let p50, _, samples =
    (* inlined below to avoid forward reference *)
    let sorted = Array.sub t.ring 0 t.ring_len in
    Array.sort compare sorted;
    if t.ring_len = 0 then (0., 0., 0)
    else
      ( sorted.(t.ring_len / 2),
        sorted.(min (t.ring_len - 1) (t.ring_len * 95 / 100)),
        t.ring_len )
  in
  if samples = 0 then 1.0
  else
    let nworkers = max 1 (List.length t.threads) in
    let queued_ahead = Queue.length t.queue in
    Float.min 60.
      (Float.max 0.1
         (p50 *. float_of_int (queued_ahead + 1) /. float_of_int nworkers))

let submit t ?deadline_s ?(label = "?") ?trace ?key ~work ~deliver () =
  Mutex.protect t.lock (fun () ->
      if t.closed then Error Draining
      else
        match Option.bind key (Hashtbl.find_opt t.coalescing) with
        | Some leader ->
            (* Identical request already queued or running: share its
               result instead of evaluating again or taking a slot. *)
            leader.waiters <- deliver :: leader.waiters;
            Atomic.incr t.coalesced;
            Metrics.incr m_coalesce_hits;
            t.waiting <- t.waiting + 1;
            Metrics.set g_coalesce_waiters (float_of_int t.waiting);
            Ok ()
        | None ->
            if Queue.length t.queue >= t.capacity then begin
              Atomic.incr t.rejected;
              Metrics.incr m_rejected;
              Error (Overloaded (retry_after t))
            end
            else begin
              let job =
                {
                  work;
                  deliver;
                  waiters = [];
                  key;
                  deadline = deadline_s;
                  enqueued_at = Unix.gettimeofday ();
                  label;
                  trace;
                  enq_us = Span.now_us ();
                }
              in
              Queue.push job t.queue;
              Option.iter (fun k -> Hashtbl.replace t.coalescing k job) key;
              Metrics.set g_depth (float_of_int (Queue.length t.queue));
              Condition.signal t.nonempty;
              Ok ()
            end)

let depth t = Mutex.protect t.lock (fun () -> Queue.length t.queue)

let inflight t =
  let now = Unix.gettimeofday () in
  Mutex.protect t.lock (fun () ->
      Hashtbl.fold
        (fun _ e acc -> (e.i_label, e.i_queued_s, now -. e.i_started) :: acc)
        t.running [])
  |> List.sort (fun (_, _, a) (_, _, b) -> compare b a)

let latency_histogram () = Metrics.histogram_snapshot m_latency
let capacity t = t.capacity
let workers t = List.length t.threads
let completed t = Atomic.get t.completed
let rejected t = Atomic.get t.rejected
let timeouts t = Atomic.get t.timeouts
let coalesced t = Atomic.get t.coalesced
let waiting t = Mutex.protect t.lock (fun () -> t.waiting)

let latency_ms t =
  Mutex.protect t.lock (fun () ->
      if t.ring_len = 0 then (0., 0., 0)
      else begin
        let sorted = Array.sub t.ring 0 t.ring_len in
        Array.sort compare sorted;
        let pick q = sorted.(min (t.ring_len - 1) (t.ring_len * q / 100)) in
        (pick 50 *. 1e3, pick 95 *. 1e3, t.ring_len)
      end)

let drain t =
  let threads =
    Mutex.protect t.lock (fun () ->
        if t.closed then []
        else begin
          t.closed <- true;
          Condition.broadcast t.nonempty;
          let ts = t.threads in
          t.threads <- [];
          ts
        end)
  in
  List.iter Thread.join threads
