(* The paper's tables and figures (EXPERIMENTS.md).

     dune exec bench/main.exe            -- regenerate every table and figure
     dune exec bench/main.exe -- TARGET  -- one or more of: table2 fig8 fig9
                                            table3 table4 joint order assoc
                                            ga-convergence solver-accuracy
                                            equations

   Output is the human-readable tables on stdout; nothing is written to
   disk.  Performance is measured by perfbench/ (perfbench/README.md). *)

let targets : (string * (unit -> unit)) list =
  [
    ("table2", Experiments.table2);
    ("fig8", Experiments.fig8);
    ("fig9", Experiments.fig9);
    ("table3", Experiments.table3);
    ("table4", Experiments.table4);
    ("joint", Experiments.joint);
    ("order", Experiments.order);
    ("assoc", Experiments.associativity);
    ("ga-convergence", Experiments.ga_convergence);
    ("solver-accuracy", Experiments.solver_accuracy);
    ("equations", Experiments.equations);
  ]

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [] ->
      Fmt.pr "Reproducing every table and figure (see EXPERIMENTS.md).@.";
      List.iter (fun (_, f) -> f ()) targets
  | names ->
      List.iter
        (fun name ->
          match List.assoc_opt name targets with
          | Some f -> f ()
          | None ->
              Fmt.epr "unknown target %s; available: %s@." name
                (String.concat " " (List.map fst targets));
              exit 1)
        names
