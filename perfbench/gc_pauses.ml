(* GC pause time from OCaml's [Runtime_events] ring (traced runs only).
   A poller thread drains the ring every few milliseconds and sums, per
   domain, the time spent inside a minor collection or a major slice —
   the stretches in which that domain's mutator is stopped.  The ring
   file lives in [OCAML_RUNTIME_EVENTS_DIR], which the runner points at
   its work directory. *)

module RE = Runtime_events

let pause_ns = Atomic.make 0
let lost = Atomic.make 0

let is_pause = function RE.EV_MINOR | RE.EV_MAJOR_SLICE -> true | _ -> false

(* Per ring (domain): nesting depth of pause phases and the start of the
   outermost one. *)
let depth = Hashtbl.create 8
let started = Hashtbl.create 8
let ns ts = Int64.to_int (RE.Timestamp.to_int64 ts)

let callbacks =
  RE.Callbacks.create
    ~runtime_begin:(fun ring ts phase ->
      if is_pause phase then begin
        let d = Option.value (Hashtbl.find_opt depth ring) ~default:0 in
        if d = 0 then Hashtbl.replace started ring (ns ts);
        Hashtbl.replace depth ring (d + 1)
      end)
    ~runtime_end:(fun ring ts phase ->
      if is_pause phase then
        match Hashtbl.find_opt depth ring with
        | Some d when d > 0 ->
            Hashtbl.replace depth ring (d - 1);
            if d = 1 then
              ignore
                (Atomic.fetch_and_add pause_ns (ns ts - Hashtbl.find started ring))
        | _ -> ())
    ~lost_events:(fun _ n -> ignore (Atomic.fetch_and_add lost n))
    ()

type t = { cursor : RE.cursor; running : bool Atomic.t; poller : Thread.t }

let start () =
  RE.start ();
  let cursor = RE.create_cursor None in
  let running = Atomic.make true in
  let poller =
    Thread.create
      (fun () ->
        while Atomic.get running do
          ignore (RE.read_poll cursor callbacks None);
          Thread.delay 0.005
        done)
      ()
  in
  { cursor; running; poller }

let drain t = ignore (RE.read_poll t.cursor callbacks None)

let stop t =
  Atomic.set t.running false;
  Thread.join t.poller;
  drain t;
  RE.free_cursor t.cursor

let pause_ms () = float_of_int (Atomic.get pause_ns) /. 1e6
