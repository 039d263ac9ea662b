(* The benchmark program: one seeded workload per invocation.

     bench.exe --workload W --seed N --seconds S --trace 0|1
               --tiler PATH --work-dir DIR [--tiny] [--plant WHAT]

   W is tile-cme or serve-fleet.  With --trace 0 the last stdout line
   carries the end-to-end metrics, with --trace 1 the per-layer ones.
   --tiny shrinks every input for the self-test, and --plant corrupts one
   answer (untiled, illegal, repeat, warm, pair, inproc) so the self-test
   can show the matching check fires.  tile-cme starts bench.exe
   --setup-probe [--tiny] to time its set-up in a fresh process, and
   every run starts bench.exe --calibrator for its calibration samples
   (see [Calib]). *)

let usage = "bench.exe --workload W --seed N --seconds S --trace 0|1 --tiler PATH --work-dir DIR"

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workload = ref "" and seed = ref (-1) and seconds = ref 0. and trace = ref 0 in
  let tiler = ref "" and work_dir = ref "" and tiny = ref false and plant = ref "" in
  let setup_probe = ref false and calibrator = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_float seconds, "S");
      ("--trace", Arg.Set_int trace, "0|1");
      ("--tiler", Arg.Set_string tiler, "PATH of tiler.exe (serve-fleet)");
      ("--work-dir", Arg.Set_string work_dir, "DIR for sockets, stores, logs, spans");
      ("--tiny", Arg.Set tiny, " tiny inputs (self-test)");
      ("--plant", Arg.Set_string plant, "WHAT corrupt one answer (self-test)");
      ("--setup-probe", Arg.Set setup_probe, " run tile-cme's set-up and report ready");
      ("--calibrator", Arg.Set calibrator, " serve calibration samples on stdin/stdout");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !setup_probe then begin
    Tile_wl.setup_child ~tiny:!tiny;
    exit 0
  end;
  if !calibrator then begin
    Calib.serve ();
    exit 0
  end;
  if !seed < 0 || !seconds <= 0. || (!trace <> 0 && !trace <> 1) || !work_dir = "" then begin
    prerr_endline usage;
    exit 2
  end;
  let traced = !trace = 1 in
  Measure.tracing := traced;
  Calib.start ();
  let end_to_end, layers =
    Fun.protect ~finally:Calib.stop @@ fun () ->
    match !workload with
    | "tile-cme" ->
        Tile_wl.run ~seed:!seed ~seconds:!seconds ~traced ~tiny:!tiny ~plant:!plant
          ~work_dir:!work_dir
    | "serve-fleet" ->
        Fleet_wl.run ~seed:!seed ~seconds:!seconds ~traced ~tiny:!tiny ~plant:!plant
          ~work_dir:!work_dir ~tiler:!tiler
    | w ->
        prerr_endline ("unknown workload " ^ w);
        exit 2
  in
  let e2e = Catalog.fill Catalog.end_to_end end_to_end in
  let extra = Catalog.fill Catalog.informational end_to_end in
  if traced then begin
    (* Timings of a traced run carry the tracing overhead. *)
    List.iter (Measure.print_metric ~note:" traced") (e2e @ extra);
    Measure.print_result (Catalog.fill Catalog.per_layer layers)
  end
  else Measure.print_result ~extra e2e
