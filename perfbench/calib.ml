(* Machine-speed calibration.

   On a shared virtual machine the same code runs at different speeds
   from one second to the next without any steal showing: other tenants'
   load on the host's caches and memory slows every instruction.  On the
   baseline machine a fixed loop took between 53 and 141 ms within one
   minute, CPU time and wall-clock alike.

   So the benchmark times a fixed piece of work of its own alongside the
   program -- a calibration sample -- and states each gated timing in
   reference seconds: measured CPU time x (reference time of one sample
   / mean time of the samples taken alongside).  The sample allocates
   heavily, probes a hash table of tuple keys and updates an 8 MB array
   at random, because a loop that stayed in the first-level cache slowed
   only two thirds as much as the program did when the host was busy;
   this one moved with the program's warm replays (slope 0.95-0.96 over
   0.7 s windows, MM and T2D).  The benchmark's own code never changes
   between the runs it compares, so the samples measure only the
   machine.

   Samples run in a child process (bench.exe --calibrator) that answers
   one request at a time on a pipe: its memory stays out of the
   benchmark's peak RSS, and its CPU time is its own. *)

open Measure

let big = lazy (Array.make (1 lsl 20) 1)
let table = Hashtbl.create 65536

let work () =
  let big = Lazy.force big in
  let x = ref 12345 and acc = ref 0 in
  for _ = 1 to 150_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let i = !x land ((1 lsl 20) - 1) in
    acc := !acc + big.(i);
    big.(i) <- !acc land 255
  done;
  for i = 1 to 30_000 do
    let k = ((i * 7919) land 65535, i land 7) in
    (match Hashtbl.find_opt table k with
    | Some l -> acc := !acc + List.length l
    | None -> Hashtbl.replace table k [ i; i + 1; i + 2 ]);
    acc := !acc + List.fold_left (fun s (a, b) -> s + a + b) 0 (List.init 6 (fun j -> (j, i)))
  done;
  !acc

(* The calibrator process: one sample per byte read, its CPU seconds
   written back as a line; exits at end of input. *)
let serve () =
  try
    while true do
      ignore (input_char stdin);
      let c0 = cpu_s () in
      ignore (Sys.opaque_identity (work ()));
      Printf.printf "%.9f\n%!" (cpu_s () -. c0)
    done
  with End_of_file -> ()

(* CPU seconds of one sample on the baseline machine (2 cores, see
   README.md) when it ran fastest; only the unit of the gated figures
   depends on it. *)
let reference_s = 0.008

type child = { pid : int; req : out_channel; resp : in_channel }

let lock = Mutex.create ()
let children = ref [||]
let samples = ref []  (* (wall-clock time at its end, CPU seconds) *)

let request c =
  output_char c.req 's';
  flush c.req;
  float_of_string (input_line c.resp)

let spawn () =
  let exe = Sys.executable_name in
  let req_r, req_w = Unix.pipe ~cloexec:true () and resp_r, resp_w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe [| exe; "--calibrator" |] req_r resp_w Unix.stderr in
  Unix.close req_r;
  Unix.close resp_w;
  let c = { pid; req = Unix.out_channel_of_descr req_w; resp = Unix.in_channel_of_descr resp_r } in
  (* Unrecorded warm-up: the first samples build the array and table. *)
  for _ = 1 to 3 do
    ignore (request c)
  done;
  c

(* Two calibrators, one per core, for work that keeps both cores busy. *)
let start () = children := Array.init 2 (fun _ -> spawn ())

let stop () =
  Array.iter
    (fun c ->
      close_out_noerr c.req;
      ignore (Unix.waitpid [] c.pid);
      close_in_noerr c.resp)
    !children;
  children := [||]

let record cpu = samples := (Unix.gettimeofday (), cpu) :: !samples

(* One sample; the caller waits for it. *)
let sample () =
  Mutex.protect lock (fun () ->
      let cpu = request !children.(0) in
      record cpu;
      cpu)

(* One sample on each calibrator at once, for the state of both cores
   that a two-domain search runs on. *)
let sample_both () =
  Mutex.protect lock (fun () ->
      Array.iter
        (fun c ->
          output_char c.req 's';
          flush c.req)
        !children;
      Array.iter (fun c -> record (float_of_string (input_line c.resp))) !children)

(* A sample if [every] seconds have passed since the last one taken
   here; returns whether one was taken. *)
let last = ref 0.

let maybe_sample ?(every = 0.3) ?(both = false) () =
  if Unix.gettimeofday () -. !last < every then false
  else begin
    if both then sample_both () else ignore (sample ());
    last := Unix.gettimeofday ();
    true
  end

(* The scale that turns CPU seconds spent in [t0, t1] into reference
   seconds: the reference over the mean of that window's samples, or of
   all samples so far if the window holds none. *)
let scale ~t0 ~t1 =
  let all = Mutex.protect lock (fun () -> !samples) in
  let inside = List.filter (fun (t, _) -> t >= t0 && t <= t1) all in
  let pick = if inside = [] then all else inside in
  ratio reference_s (mean (List.map snd pick))

let count () = List.length !samples

(* Mean CPU seconds of all samples so far. *)
let mean_s () = mean (List.map snd !samples)

(* A background thread that samples both cores at once, about a tenth
   of the time, until the returned function is called: for phases in
   which the program works in another process, on either core, and this
   one waits on sockets.  With one calibrator, which ran on the idle
   core, the same cold key's calibrated time still ranged over 4.3-6.9
   reference seconds in four runs. *)
let background () =
  let stop = Atomic.make false in
  let th =
    Thread.create
      (fun () ->
        while not (Atomic.get stop) do
          let t0 = Unix.gettimeofday () in
          sample_both ();
          Thread.delay (10. *. (Unix.gettimeofday () -. t0))
        done)
      ()
  in
  fun () ->
    Atomic.set stop true;
    Thread.join th
