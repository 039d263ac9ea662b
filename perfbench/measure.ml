(* Measurement plumbing shared by the workloads: order statistics,
   interval coverage, the run's in-memory span log, the operation ledger
   behind [attempted]/[failed], and the metric table printed at the end.
   Everything here runs on the benchmark's side of the program's public
   APIs. *)

module Json = Tiling_obs.Json

(* Microseconds on the clock the program's own events are stamped with,
   so spans recorded here line up with [Tiling_obs.Events] timestamps. *)
let now_us = Tiling_obs.Span.now_us

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Quantile with linear interpolation between closest ranks (the
   definition numpy and Python's [statistics.quantiles(method=
   "inclusive")] use); 0 for an empty sample. *)
let quantile q xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    let frac = pos -. float_of_int i in
    if i + 1 < n then (a.(i) *. (1. -. frac)) +. (a.(i + 1) *. frac) else a.(i)

let median xs = quantile 0.5 xs

let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let geomean = function
  | [] -> 0.
  | xs -> exp (mean (List.map log xs))

let ratio num den = if den = 0. then 0. else num /. den

(* Length of the union of [(start, stop)] intervals, clipped to
   [lo, hi]: the part of a parent span that child spans cover. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0., None) clipped
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* ------------------------------------------------------------------ *)
(* Spans: kept in memory, written once when the run ends. *)

type span = {
  id : int;
  parent : int;  (* 0 = root *)
  name : string;
  t0 : float;
  t1 : float;
  lane : int;  (* domain or client thread, for the viewer *)
}

let tracing = ref false  (* set for the traced run only *)
let span_lock = Mutex.create ()
let spans = ref []
let next_span = Atomic.make 1
let fresh_span_id () = Atomic.fetch_and_add next_span 1

let record ?(id = fresh_span_id ()) ?(parent = 0) ?(lane = 0) name t0 t1 =
  if !tracing then
    Mutex.protect span_lock (fun () ->
        spans := { id; parent; name; t0; t1; lane } :: !spans)

(* Chrome trace_event JSON: one complete ("X") event per span, with the
   causing span's id in [args]. *)
let write_spans path =
  let events =
    List.rev_map
      (fun s ->
        Json.Obj
          [
            ("name", Json.String s.name);
            ("ph", Json.String "X");
            ("ts", Json.Float s.t0);
            ("dur", Json.Float (s.t1 -. s.t0));
            ("pid", Json.Int 1);
            ("tid", Json.Int s.lane);
            ("args", Json.Obj [ ("id", Json.Int s.id); ("parent", Json.Int s.parent) ]);
          ])
      !spans
  in
  let oc = open_out path in
  output_string oc (Json.to_string (Json.Obj [ ("traceEvents", Json.List events) ]));
  close_out oc

(* ------------------------------------------------------------------ *)
(* Operations and correctness checks.  Every timed search or request is
   one operation; it fails on an exception, an error envelope, a
   transport error or any failed check attached to it. *)

type op = { what : string; mutable failure : string option }

let op_lock = Mutex.create ()
let ops = ref []

let start_op what =
  let op = { what; failure = None } in
  Mutex.protect op_lock (fun () -> ops := op :: !ops);
  op

let fail op reason =
  Mutex.protect op_lock (fun () ->
      if op.failure = None then begin
        op.failure <- Some reason;
        Printf.printf "check failed: %s: %s\n%!" op.what reason
      end)

let check op ok reason = if not ok then fail op reason
let attempted () = List.length !ops
let failed () = List.length (List.filter (fun o -> o.failure <> None) !ops)

(* ------------------------------------------------------------------ *)
(* Metrics: value, unit and the number of samples behind the value. *)

type metric = { name : string; value : float; unit_ : string; samples : int }

let metric ?(samples = 1) name unit_ value =
  (* A per-layer figure with no samples in this workload reads 0; a
     non-finite value can only come from an empty denominator. *)
  let value = if Float.is_finite value then value else 0. in
  { name; value; unit_; samples }

let print_inputs lines = List.iter (fun l -> Printf.printf "input %s\n" l) lines

let print_metric ?(note = "") m =
  Printf.printf "metric %-34s %16.6f %-6s (n=%d)%s\n" m.name m.value m.unit_ m.samples note

(* Human table on stdout, then the one-line JSON result the harness
   reads (always the last line).  [extra] rows are printed, not put in
   the result. *)
let print_result ?(extra = []) metrics =
  List.iter print_metric metrics;
  let attempted = attempted () and failed = failed () in
  List.iter (print_metric ~note:" not gated")
    (extra
    @ [
        metric ~samples:attempted "failed_share" "ratio"
          (ratio (float_of_int failed) (float_of_int attempted));
      ]);
  let body =
    Json.Obj
      [
        ("correct", Json.Bool (failed = 0));
        ("attempted", Json.Int attempted);
        ("failed", Json.Int failed);
        ( "metrics",
          Json.Obj
            (List.map
               (fun m ->
                 ( m.name,
                   Json.Obj
                     [ ("value", Json.Float m.value); ("unit", Json.String m.unit_) ]
                 ))
               metrics) );
      ]
  in
  print_endline (Json.to_string body)

(* ------------------------------------------------------------------ *)
(* CPU time.  The gated timings are CPU seconds, not wall-clock: on a
   shared host a process that waits for a core -- behind another
   process, or while the hypervisor runs another guest on its virtual
   CPU (steal, which a paravirtualised kernel leaves out of every task's
   run time) -- takes longer by the clock but is charged nothing. *)

(* User + system seconds of this process, all domains and threads,
   from getrusage (microsecond resolution). *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* User + system seconds of this process's reaped children, from
   getrusage (microsecond resolution). *)
let children_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_cutime +. t.Unix.tms_cstime

(* Space-separated fields of a /proc stat line after [skip] leading
   ones. *)
let fields_after line skip =
  List.filteri (fun i _ -> i >= skip) (String.split_on_char ' ' line |> List.filter (( <> ) ""))

let clock_ticks = 100.  (* USER_HZ, the unit of /proc CPU times on Linux *)

(* User + system seconds of a live child process, from
   /proc/PID/stat (10 ms resolution); 0 once it is gone. *)
let proc_cpu_s pid =
  match open_in (Printf.sprintf "/proc/%d/stat" pid) with
  | exception Sys_error _ -> 0.
  | ic ->
      let line = try input_line ic with End_of_file -> "" in
      close_in ic;
      (* The command name may hold spaces; fields resume after its ')'. *)
      match String.rindex_opt line ')' with
      | None -> 0.
      | Some i -> (
          match fields_after (String.sub line (i + 1) (String.length line - i - 1)) 11 with
          | utime :: stime :: _ -> (float_of_string utime +. float_of_string stime) /. clock_ticks
          | _ -> 0.)

(* Seconds of steal summed over the machine's CPUs, from /proc/stat: 0
   outside a virtual machine.  Printed so a run's wall-clock figures
   can be read against the host's load. *)
let steal_s () =
  match open_in "/proc/stat" with
  | exception Sys_error _ -> 0.
  | ic ->
      let line = try input_line ic with End_of_file -> "" in
      close_in ic;
      (match fields_after line 1 with
      | _user :: _nice :: _sys :: _idle :: _iowait :: _irq :: _softirq :: steal :: _ ->
          float_of_string steal /. clock_ticks
      | _ -> 0.)

(* Peak resident set of a live process, from /proc. *)
let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0.
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0.
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
                (fun kb -> float_of_int kb /. 1024.)
            else scan ()
      in
      let v = scan () in
      close_in ic;
      v
