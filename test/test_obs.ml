(* The observability layer: metrics registry under concurrency, span
   tracer output well-formedness, trace contexts, the events journal,
   the OpenMetrics encoder, and the CLI's --json contract. *)

module Json = Tiling_obs.Json
module Metrics = Tiling_obs.Metrics
module Span = Tiling_obs.Span
module Events = Tiling_obs.Events
module Openmetrics = Tiling_obs.Openmetrics

let get path json =
  List.fold_left
    (fun acc key ->
      match acc with Some j -> Json.member key j | None -> None)
    (Some json) path

(* ------------------------------------------------------------------ *)
(* Metrics                                                              *)

let test_counters_concurrent () =
  Metrics.reset ();
  Metrics.set_enabled true;
  Fun.protect ~finally:(fun () ->
      Metrics.set_enabled false;
      Metrics.reset ())
  @@ fun () ->
  let c = Metrics.counter "test.obs.concurrent" in
  let per_domain = 10_000 in
  let work () =
    for _ = 1 to per_domain do
      Metrics.incr c
    done
  in
  let domains = Array.init 4 (fun _ -> Domain.spawn work) in
  Array.iter Domain.join domains;
  Alcotest.(check int)
    "4 domains x 10k increments sum exactly" (4 * per_domain)
    (Metrics.counter_value c)

let test_disabled_is_inert () =
  Metrics.reset ();
  Metrics.set_enabled false;
  let c = Metrics.counter "test.obs.disabled" in
  Metrics.incr c;
  Metrics.add c 42;
  Alcotest.(check int) "disabled counter never moves" 0 (Metrics.counter_value c);
  Metrics.reset ()

let test_snapshot_shape () =
  Metrics.reset ();
  Metrics.set_enabled true;
  Fun.protect ~finally:(fun () ->
      Metrics.set_enabled false;
      Metrics.reset ())
  @@ fun () ->
  let c = Metrics.counter "test.obs.snap" in
  Metrics.add c 7;
  let h = Metrics.histogram "test.obs.hist" in
  Metrics.observe h 100;
  Metrics.observe h 100_000;
  let snap = Metrics.snapshot () in
  (match get [ "counters"; "test.obs.snap" ] snap with
  | Some (Json.Int 7) -> ()
  | _ -> Alcotest.fail "counter missing from snapshot");
  (match get [ "histograms"; "test.obs.hist"; "count" ] snap with
  | Some (Json.Int 2) -> ()
  | _ -> Alcotest.fail "histogram count missing from snapshot");
  (* the snapshot itself must round-trip through the printer/parser *)
  match Json.of_string (Json.to_string snap) with
  | Ok reparsed -> Alcotest.(check bool) "round-trip" true (reparsed = snap)
  | Error m -> Alcotest.fail ("snapshot did not reparse: " ^ m)

let buckets_of h =
  match Json.member "buckets" (Metrics.histogram_snapshot h) with
  | Some (Json.List l) ->
      List.map
        (fun b ->
          ( (match Json.member "le" b with Some (Json.Int le) -> le | _ -> -1),
            match Json.member "count" b with Some (Json.Int c) -> c | _ -> -1
          ))
        l
  | _ -> []

let test_histogram_boundaries () =
  Metrics.reset ();
  Metrics.set_enabled true;
  Fun.protect ~finally:(fun () ->
      Metrics.set_enabled false;
      Metrics.reset ())
  @@ fun () ->
  let h = Metrics.histogram "test.obs.bounds" in
  (* Bucket upper bounds are 2^k - 1: observations at the powers of two
     themselves must land in the next bucket up, 0 in the le=0 bucket. *)
  List.iter (Metrics.observe h) [ 0; 1; 2; 3; 4; 1024 ];
  Alcotest.(check (list (pair int int)))
    "bucket boundaries at powers of two"
    [ (0, 1); (1, 1); (3, 2); (7, 1); (2047, 1) ]
    (buckets_of h);
  match
    ( Json.member "count" (Metrics.histogram_snapshot h),
      Json.member "sum" (Metrics.histogram_snapshot h) )
  with
  | Some (Json.Int 6), Some (Json.Int 1034) -> ()
  | _ -> Alcotest.fail "count/sum mismatch"

let test_histogram_concurrent_observe () =
  Metrics.reset ();
  Metrics.set_enabled true;
  Fun.protect ~finally:(fun () ->
      Metrics.set_enabled false;
      Metrics.reset ())
  @@ fun () ->
  let h = Metrics.histogram "test.obs.concurrent_hist" in
  let per_domain = 5_000 in
  let observers =
    Array.init 4 (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to per_domain do
              Metrics.observe h ((d * per_domain) + i)
            done))
  in
  (* Snapshots taken mid-storm must be well-formed (monotone occupied
     buckets, count = bucket total) even while observes race. *)
  for _ = 1 to 50 do
    let bs = buckets_of h in
    let counted = List.fold_left (fun acc (_, c) -> acc + c) 0 bs in
    (match Json.member "count" (Metrics.histogram_snapshot h) with
    | Some (Json.Int n) ->
        Alcotest.(check bool) "snapshot count within bounds" true
          (n >= 0 && n <= 4 * per_domain)
    | _ -> Alcotest.fail "count missing");
    Alcotest.(check bool) "bucket total within bounds" true
      (counted >= 0 && counted <= 4 * per_domain);
    ignore
      (List.fold_left
         (fun prev (le, _) ->
           Alcotest.(check bool) "buckets ascending" true (le > prev);
           le)
         (-1) bs)
  done;
  Array.iter Domain.join observers;
  match Json.member "count" (Metrics.histogram_snapshot h) with
  | Some (Json.Int n) ->
      Alcotest.(check int) "all observations land" (4 * per_domain) n
  | _ -> Alcotest.fail "count missing"

let test_snapshot_disabled_stable () =
  Metrics.reset ();
  Metrics.set_enabled false;
  let h = Metrics.histogram "test.obs.disabled_hist" in
  Metrics.observe h 42;
  (* disabled: inert *)
  let snap = Metrics.histogram_snapshot h in
  Alcotest.(check bool) "stable empty shape" true
    (snap
    = Json.Obj
        [ ("count", Json.Int 0); ("sum", Json.Int 0); ("buckets", Json.List []) ]
    );
  let full = Metrics.snapshot () in
  (match
     ( Json.member "counters" full,
       Json.member "gauges" full,
       Json.member "histograms" full )
   with
  | Some (Json.Obj _), Some (Json.Obj _), Some (Json.Obj _) -> ()
  | _ -> Alcotest.fail "snapshot loses its three sections when disabled");
  Metrics.reset ()

(* ------------------------------------------------------------------ *)
(* Instrument-name hygiene: the registry and the OpenMetrics inventory   *)
(* agree, and every name is mangle-safe.                                *)

let test_metric_name_hygiene () =
  List.iter
    (fun (name, kind) ->
      ignore kind;
      Alcotest.(check bool)
        (Printf.sprintf "registered name %S matches [a-z0-9_.]+" name)
        true
        (Openmetrics.valid_name name);
      (* every library instrument is documented in the inventory; names
         minted by tests themselves are exempt *)
      if not (String.length name >= 5 && String.sub name 0 5 = "test.") then
        Alcotest.(check bool)
          (Printf.sprintf "registered name %S is in the inventory" name)
          true
          (List.mem_assoc name Openmetrics.inventory))
    (Metrics.names ());
  List.iter
    (fun (name, help) ->
      Alcotest.(check bool)
        (Printf.sprintf "inventory name %S matches [a-z0-9_.]+" name)
        true (Openmetrics.valid_name name);
      Alcotest.(check bool)
        (Printf.sprintf "inventory name %S has HELP text" name)
        true
        (String.length help > 0))
    Openmetrics.inventory;
  (* the inventory is duplicate-free *)
  let names = List.map fst Openmetrics.inventory in
  Alcotest.(check int) "inventory has no duplicates"
    (List.length names)
    (List.length (List.sort_uniq compare names))

(* ------------------------------------------------------------------ *)
(* OpenMetrics encoder                                                  *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_openmetrics_shape () =
  Metrics.reset ();
  Metrics.set_enabled true;
  Fun.protect ~finally:(fun () ->
      Metrics.set_enabled false;
      Metrics.reset ())
  @@ fun () ->
  let c = Metrics.counter "test.om.requests" in
  Metrics.add c 5;
  let h = Metrics.histogram "test.om.lat" in
  List.iter (Metrics.observe h) [ 3; 900; 1000 ];
  let text = Openmetrics.render () in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "contains %S" needle) true
        (contains text needle))
    [
      "# HELP tiling_test_om_requests ";
      "# TYPE tiling_test_om_requests counter";
      "tiling_test_om_requests_total 5";
      "# TYPE tiling_test_om_lat histogram";
      "tiling_test_om_lat_sum 1903";
      "tiling_test_om_lat_count 3";
    ];
  (* cumulative buckets: grep the le series and check monotonicity and
     the +Inf terminal equal to the count *)
  let lines = String.split_on_char '\n' text in
  let bucket_lines =
    List.filter
      (fun l -> contains l "tiling_test_om_lat_bucket{le=")
      lines
  in
  let values =
    List.map
      (fun l ->
        match String.rindex_opt l ' ' with
        | Some i ->
            int_of_string (String.sub l (i + 1) (String.length l - i - 1))
        | None -> Alcotest.fail ("unparseable bucket line: " ^ l))
      bucket_lines
  in
  Alcotest.(check bool) "at least two buckets" true (List.length values >= 2);
  ignore
    (List.fold_left
       (fun prev v ->
         Alcotest.(check bool) "cumulative buckets never decrease" true
           (v >= prev);
         v)
       0 values);
  let last = List.nth bucket_lines (List.length bucket_lines - 1) in
  Alcotest.(check bool) "last bucket is +Inf" true
    (contains last {|le="+Inf"|});
  Alcotest.(check int) "+Inf equals count" 3
    (List.nth values (List.length values - 1));
  (* exposition ends with the EOF marker *)
  let n = String.length text in
  Alcotest.(check bool) "ends with # EOF" true
    (n >= 6 && String.sub text (n - 6) 6 = "# EOF\n")

(* ------------------------------------------------------------------ *)
(* Events journal                                                       *)

let test_events_ring () =
  Events.clear ();
  Events.set_enabled true;
  Fun.protect ~finally:(fun () ->
      Events.set_enabled false;
      Events.set_capacity 1024;
      Events.clear ())
  @@ fun () ->
  let base = Events.last_seq () in
  for i = 1 to 5 do
    Events.emit "test.ev" ~attrs:[ ("i", Json.Int i) ]
  done;
  let evs = Events.recent ~since:base () in
  Alcotest.(check int) "five buffered" 5 (List.length evs);
  Alcotest.(check bool) "oldest first" true
    (List.for_all2
       (fun ev i -> ev.Events.seq = base + i)
       evs [ 1; 2; 3; 4; 5 ]);
  let last2 = Events.recent ~since:base ~limit:2 () in
  Alcotest.(check int) "limit keeps the newest" 2 (List.length last2);
  Alcotest.(check int) "newest survives the limit" (base + 5)
    ((List.nth last2 1).Events.seq);
  (* shrink the ring: numbering continues, old events fall off *)
  Events.set_capacity 16;
  for i = 1 to 40 do
    Events.emit "test.ev.flood" ~attrs:[ ("i", Json.Int i) ]
  done;
  let evs = Events.recent () in
  Alcotest.(check bool) "ring bounded" true (List.length evs <= 16);
  Alcotest.(check int) "newest kept" (base + 45)
    ((List.nth evs (List.length evs - 1)).Events.seq)

let test_events_subscribers_and_trace_id () =
  Events.clear ();
  (* ring disabled: subscribers still hear events *)
  Events.set_enabled false;
  let got = ref [] in
  let token = Events.subscribe (fun ev -> got := ev :: !got) in
  Fun.protect ~finally:(fun () ->
      Events.unsubscribe token;
      Events.clear ())
  @@ fun () ->
  Events.emit "test.sub" ~attrs:[ ("k", Json.Int 1) ];
  (* emitted under an ambient trace context, the event carries the id *)
  let ctx = Span.start_trace () in
  Span.with_ambient (Some ctx) (fun () -> Events.emit "test.sub.traced");
  Span.discard_trace ctx;
  (match !got with
  | [ traced; plain ] ->
      Alcotest.(check string) "kind" "test.sub" plain.Events.kind;
      Alcotest.(check bool) "no trace id outside a trace" true
        (plain.Events.trace_id = None);
      Alcotest.(check bool) "ambient trace id attached" true
        (traced.Events.trace_id <> None);
      Alcotest.(check bool) "nothing buffered while disabled" true
        (Events.recent () = [])
  | l -> Alcotest.failf "expected 2 events, got %d" (List.length l));
  Events.unsubscribe token;
  Events.emit "test.sub.after";
  Alcotest.(check int) "unsubscribed hears nothing" 2 (List.length !got)

(* ------------------------------------------------------------------ *)
(* Request-scoped trace contexts                                        *)

let test_trace_context_tree () =
  let ctx = Span.start_trace () in
  Alcotest.(check bool) "no ambient context outside with_ambient" true
    (Span.current () = None);
  Span.with_ambient (Some ctx) (fun () ->
      Alcotest.(check bool) "ambient context visible" true
        (Span.current () <> None);
      Span.with_ "outer" (fun () ->
          Span.with_ "inner" ~attrs:[ ("k", Json.Int 7) ] (fun () ->
              ignore (Sys.opaque_identity 0));
          Span.instant "mark"));
  Span.record_at ctx "queue" ~ts_us:1. ~dur_us:2.;
  let tree = Span.finish_trace ctx in
  let spans = match get [ "spans" ] tree with
    | Some (Json.List l) -> l
    | _ -> Alcotest.fail "spans missing"
  in
  Alcotest.(check int) "two roots: queue and outer" 2 (List.length spans);
  let find name l =
    List.find_opt (fun s -> Json.member "name" s = Some (Json.String name)) l
  in
  (match find "outer" spans with
  | Some outer -> (
      match Json.member "children" outer with
      | Some (Json.List kids) ->
          Alcotest.(check int) "outer has inner and mark" 2 (List.length kids);
          (match find "inner" kids with
          | Some inner ->
              Alcotest.(check bool) "inner keeps attrs" true
                (get [ "attrs"; "k" ] inner = Some (Json.Int 7))
          | None -> Alcotest.fail "inner missing")
      | _ -> Alcotest.fail "outer has no children")
  | None -> Alcotest.fail "outer missing");
  (match find "queue" spans with
  | Some q ->
      Alcotest.(check bool) "record_at keeps its timing" true
        (Json.member "dur_us" q = Some (Json.Float 2.))
  | None -> Alcotest.fail "queue root missing");
  (* a finished trace is gone: finishing again yields the empty shape *)
  match get [ "spans" ] (Span.finish_trace ctx) with
  | Some (Json.List []) -> ()
  | _ -> Alcotest.fail "double finish not empty"

let test_trace_capacity_drops_deep_spans () =
  Span.set_trace_capacity 16;
  Fun.protect ~finally:(fun () -> Span.set_trace_capacity 8192)
  @@ fun () ->
  let ctx = Span.start_trace () in
  let rec nest d =
    if d > 0 then Span.with_ "deep" (fun () -> nest (d - 1))
  in
  Span.with_ambient (Some ctx) (fun () -> nest 30);
  let tree = Span.finish_trace ctx in
  (* 30 nested spans against a 16-slot cap: deep spans beyond the cap are
     dropped and counted, the shallow skeleton (depth <= 4) survives. *)
  (match get [ "dropped" ] tree with
  | Some (Json.Int d) -> Alcotest.(check bool) "some spans dropped" true (d > 0)
  | _ -> Alcotest.fail "dropped missing");
  let rec depth_of j =
    match Json.member "children" j with
    | Some (Json.List (_ :: _ as kids)) ->
        1 + List.fold_left (fun acc k -> max acc (depth_of k)) 0 kids
    | _ -> 1
  in
  match get [ "spans" ] tree with
  | Some (Json.List (root :: _)) ->
      Alcotest.(check bool) "shallow skeleton retained" true
        (depth_of root >= 4)
  | _ -> Alcotest.fail "spans missing"

let test_trace_ambient_propagates_to_pool () =
  let ctx = Span.start_trace () in
  Span.with_ambient (Some ctx) (fun () ->
      ignore
        (Tiling_util.Par.map ~domains:2
           (fun x -> x * x)
           (Array.init 64 Fun.id)));
  let tree = Span.finish_trace ctx in
  (* the pool's helper domains inherit the submitter's context, so the
     par.chunk spans land inside this trace *)
  let rec count_named name j =
    let self =
      if Json.member "name" j = Some (Json.String name) then 1 else 0
    in
    match Json.member "children" j with
    | Some (Json.List kids) ->
        self + List.fold_left (fun acc k -> acc + count_named name k) 0 kids
    | _ -> self
  in
  match get [ "spans" ] tree with
  | Some (Json.List spans) ->
      let chunks =
        List.fold_left (fun acc s -> acc + count_named "par.chunk" s) 0 spans
      in
      Alcotest.(check bool) "par.chunk spans joined the trace" true (chunks > 0)
  | _ -> Alcotest.fail "spans missing"

(* ------------------------------------------------------------------ *)
(* Spans                                                                *)

let test_span_nesting_chrome_json () =
  Span.clear ();
  Span.set_enabled true;
  Fun.protect ~finally:(fun () ->
      Span.set_enabled false;
      Span.clear ())
  @@ fun () ->
  Span.with_ "outer" (fun () ->
      Span.with_ "inner" ~attrs:[ ("k", Json.Int 1) ] (fun () -> ignore (Sys.opaque_identity 0));
      Span.instant "tick");
  let doc = Span.to_chrome_json () in
  let reparsed =
    match Json.of_string (Json.to_string doc) with
    | Ok j -> j
    | Error m -> Alcotest.fail ("chrome trace did not reparse: " ^ m)
  in
  let events =
    match Json.member "traceEvents" reparsed with
    | Some (Json.List l) -> l
    | _ -> Alcotest.fail "traceEvents missing"
  in
  let find name =
    List.find_opt
      (fun e -> Json.member "name" e = Some (Json.String name))
      events
  in
  let span_bounds e =
    match (get [ "ts" ] e, get [ "dur" ] e) with
    | Some ts, Some dur ->
        let ts = Option.get (Json.to_float ts) in
        let dur = Option.get (Json.to_float dur) in
        (ts, ts +. dur)
    | _ -> Alcotest.fail "span without ts/dur"
  in
  match (find "outer", find "inner", find "tick") with
  | Some outer, Some inner, Some tick ->
      Alcotest.(check bool)
        "outer is a complete event" true
        (Json.member "ph" outer = Some (Json.String "X"));
      Alcotest.(check bool)
        "tick is an instant event" true
        (Json.member "ph" tick = Some (Json.String "i"));
      let o0, o1 = span_bounds outer and i0, i1 = span_bounds inner in
      Alcotest.(check bool) "inner nested inside outer" true
        (o0 <= i0 && i1 <= o1);
      Alcotest.(check bool) "inner keeps its attrs" true
        (get [ "args"; "k" ] inner = Some (Json.Int 1))
  | _ -> Alcotest.fail "expected outer/inner/tick events in the trace"

let test_span_disabled_records_nothing () =
  Span.clear ();
  Span.set_enabled false;
  let r = Span.with_ "ghost" (fun () -> 17) in
  Alcotest.(check int) "with_ is transparent" 17 r;
  Alcotest.(check int) "nothing recorded" 0 (Span.events_recorded ())

(* ------------------------------------------------------------------ *)
(* Parser hardening: every malformed input is a structured [Error],     *)
(* never an exception, and the resource caps actually bite.             *)

let check_rejects name input =
  match Json.of_string input with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "%s: %S parsed but should not" name input

let test_json_rejects_malformed () =
  check_rejects "unterminated string" {|{"a": "xyz|};
  check_rejects "unterminated object" {|{"a": 1|};
  check_rejects "unterminated array" "[1,2";
  check_rejects "missing colon" {|{"a" 1}|};
  check_rejects "trailing garbage" "{} x";
  check_rejects "bare word" "nul";
  check_rejects "lonely escape" {|"\|};
  check_rejects "bad unicode escape" {|"\uZZZZ"|};
  check_rejects "truncated unicode escape" {|"\u00|};
  check_rejects "control char in string" "\"a\nb\"";
  check_rejects "empty input" "";
  (* and the errors really are values, not escaping exceptions *)
  match Json.of_string {|"\uD8|} with Error _ -> () | Ok _ -> Alcotest.fail "parsed"

let test_json_accepts_escapes () =
  match Json.of_string {|"A\t\"\\"|} with
  | Ok (Json.String s) -> Alcotest.(check string) "decoded" "A\t\"\\" s
  | Ok _ -> Alcotest.fail "wrong shape"
  | Error m -> Alcotest.fail m

let test_json_depth_cap () =
  let nested d = String.make d '[' ^ String.make d ']' in
  (match Json.of_string ~max_depth:10 (nested 10) with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "depth 10 under cap 10 rejected: %s" m);
  (match Json.of_string ~max_depth:10 (nested 11) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "depth 11 over cap 10 accepted");
  (* objects count too *)
  match Json.of_string ~max_depth:3 {|{"a":{"b":{"c":{"d":1}}}}|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "object nesting over cap accepted"

let test_json_size_cap () =
  let big = Printf.sprintf {|{"k":%S}|} (String.make 100 'x') in
  (match Json.of_string ~max_size:32 big with
  | Error m ->
      Alcotest.(check bool) "error has a message" true (String.length m > 0)
  | Ok _ -> Alcotest.fail "oversized input accepted");
  match Json.of_string ~max_size:(String.length big) big with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "input at the cap rejected: %s" m

let test_json_default_depth_survives () =
  (* a hostile 100k-deep input must neither parse nor blow the stack *)
  let d = 100_000 in
  let hostile = String.make d '[' in
  match Json.of_string hostile with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated 100k-deep input accepted"

(* The float printer's reference: the shortest of [%.12g] and [%.17g]
   that round-trips, through [Printf]'s format interpreter, with [.0]
   appended when neither a point nor an exponent shows. *)
let reference_float f =
  let s = Printf.sprintf "%.17g" f in
  let s =
    let shorter = Printf.sprintf "%.12g" f in
    if float_of_string shorter = f then shorter else s
  in
  if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then s else s ^ ".0"

let prop_json_floats =
  QCheck.Test.make ~name:"JSON floats print as the Printf reference" ~count:20_000
    (QCheck.make ~print:(Printf.sprintf "%h")
       QCheck.Gen.(
         oneof
           [
             map Int64.float_of_bits int64;
             float;
             map float_of_int int;
             oneofl
               [
                 0.; -0.; 1.; -1.; 0.1; 1. /. 3.; 1e15; 1e16; 1e17; 1e300; -1e300;
                 Float.max_float; Float.min_float; 4.9e-324; -4.9e-324;
                 2.2250738585072009e-308; 123456789012.5; 0.9682; 3.4238;
               ];
           ]))
    (fun f ->
      QCheck.assume (Float.is_finite f);
      String.equal (Json.to_string (Json.Float f)) (reference_float f))

(* ------------------------------------------------------------------ *)
(* CLI --json contract                                                  *)

let tiler_exe = Filename.concat (Filename.concat ".." "bin") "tiler.exe"

let run_capture argv =
  let out = Filename.temp_file "tiler_out" ".txt" in
  let err = Filename.temp_file "tiler_err" ".txt" in
  let cmd =
    Printf.sprintf "%s > %s 2> %s"
      (String.concat " " (List.map Filename.quote argv))
      (Filename.quote out) (Filename.quote err)
  in
  let status = Sys.command cmd in
  let slurp f =
    let ic = open_in_bin f in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Sys.remove f;
    s
  in
  (status, slurp out, slurp err)

let test_cli_json () =
  if not (Sys.file_exists tiler_exe) then
    Alcotest.skip ()
  else begin
    let status, stdout, stderr =
      run_capture [ tiler_exe; "analyze"; "MM"; "-n"; "24"; "--json" ]
    in
    Alcotest.(check int) "exit status" 0 status;
    let doc =
      match Json.of_string (String.trim stdout) with
      | Ok j -> j
      | Error m -> Alcotest.fail ("stdout is not valid JSON: " ^ m)
    in
    Alcotest.(check bool) "command field" true
      (Json.member "command" doc = Some (Json.String "analyze"));
    Alcotest.(check bool) "kernel field" true
      (Json.member "kernel" doc = Some (Json.String "MM"));
    let center =
      match get [ "result"; "miss_ratio"; "center" ] doc with
      | Some j -> Option.get (Json.to_float j)
      | None -> Alcotest.fail "result.miss_ratio.center missing"
    in
    Alcotest.(check bool) "miss ratio in (0,1)" true (center > 0. && center < 1.);
    (* the human text (now on stderr) quotes the same ratio to 2 decimals *)
    let human_pct = Printf.sprintf "miss=%.2f%%" (100. *. center) in
    let contains hay needle =
      let nh = String.length hay and nn = String.length needle in
      let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool)
      (Printf.sprintf "stderr mentions %s" human_pct)
      true (contains stderr human_pct)
  end

let suite =
  [
    Alcotest.test_case "counters sum exactly under 4 domains" `Quick
      test_counters_concurrent;
    Alcotest.test_case "disabled metrics are inert" `Quick test_disabled_is_inert;
    Alcotest.test_case "snapshot shape and round-trip" `Quick test_snapshot_shape;
    Alcotest.test_case "histogram bucket boundaries at powers of two" `Quick
      test_histogram_boundaries;
    Alcotest.test_case "histogram snapshot under concurrent observe" `Quick
      test_histogram_concurrent_observe;
    Alcotest.test_case "snapshot while disabled keeps a stable empty shape"
      `Quick test_snapshot_disabled_stable;
    Alcotest.test_case "instrument names match the inventory and convention"
      `Quick test_metric_name_hygiene;
    Alcotest.test_case "OpenMetrics exposition is well-formed" `Quick
      test_openmetrics_shape;
    Alcotest.test_case "events ring buffers, bounds and numbers" `Quick
      test_events_ring;
    Alcotest.test_case "events subscribers and ambient trace ids" `Quick
      test_events_subscribers_and_trace_id;
    Alcotest.test_case "trace context builds a span tree" `Quick
      test_trace_context_tree;
    Alcotest.test_case "full trace buffer drops deep spans, keeps skeleton"
      `Quick test_trace_capacity_drops_deep_spans;
    Alcotest.test_case "ambient trace context crosses the domain pool" `Quick
      test_trace_ambient_propagates_to_pool;
    Alcotest.test_case "span nesting produces well-formed Chrome JSON" `Quick
      test_span_nesting_chrome_json;
    Alcotest.test_case "disabled spans record nothing" `Quick
      test_span_disabled_records_nothing;
    Alcotest.test_case "parser rejects malformed input as values" `Quick
      test_json_rejects_malformed;
    Alcotest.test_case "parser decodes escapes" `Quick test_json_accepts_escapes;
    Alcotest.test_case "nesting depth cap" `Quick test_json_depth_cap;
    Alcotest.test_case "payload size cap" `Quick test_json_size_cap;
    Alcotest.test_case "hostile deep input cannot blow the stack" `Quick
      test_json_default_depth_survives;
    QCheck_alcotest.to_alcotest prop_json_floats;
    Alcotest.test_case "tiler analyze --json parses and matches human output"
      `Quick test_cli_json;
  ]
