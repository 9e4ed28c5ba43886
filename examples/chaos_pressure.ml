(* The graceful-degradation ladder under an external memory attack.

   A phantom process starts grabbing committed memory early in the run and
   keeps absorbing whatever the server's own components release —
   execution grants, compile sessions — until essentially nothing is
   left, then lets go. SALES clients run through the whole episode.

   The same storm is replayed twice from the same seed: once on the plain
   throttled server, once with the resilience layer (greedy-plan compile
   fallback, reduced-grant spill execution, retry with backoff). The
   resilient server turns a flood of hard errors into
   degraded-but-successful completions.

     dune exec examples/chaos_pressure.exe *)

(* The canonical chaos run of Server.Scenario without its allocation
   glitch: the ballast alone over the measured window with no drain, as
   [dbsim chaos] and test/test_chaos.ml run it. The ballast's appetite
   exceeds physical memory (4 GiB) on purpose —
   the slow ramp keeps eating freed grants, ratcheting the server down
   to scraps. *)
let scenario = { Server.Scenario.default with glitch = 0. }
let faults = Server.Scenario.faults scenario
let seed = 42

let run ~resilient =
  let base =
    if resilient then Server.Config.resilient () else Server.Config.default ()
  in
  let config = { base with Server.Config.seed; faults } in
  let { Server.Scenario.clients; warmup; measure; slice; think; _ } = scenario in
  Server.Experiment.run ~config
    ~client_config:
      { Workload.Client.default_config with Workload.Client.think_mean = think }
    ~clients ~warmup ~measure ~slice ()

let () =
  print_endline "Fault schedule:";
  List.iter
    (fun f -> print_endline ("  " ^ Faultsim.Fault.label f))
    faults;
  print_newline ();
  let on = run ~resilient:true in
  let off = run ~resilient:false in
  Format.printf "%a@.@." Server.Experiment.pp_summary on;
  Format.printf "%a@.@." Server.Experiment.pp_summary off;
  Server.Report.resilience_section [ on; off ];
  print_newline ();
  Printf.printf "  resilient   %s\n"
    (Server.Report.sparkline (Array.map snd on.Server.Experiment.slices));
  Printf.printf "  unprotected %s\n"
    (Server.Report.sparkline (Array.map snd off.Server.Experiment.slices));
  let uplift = 100. *. Server.Experiment.uplift on off in
  Printf.printf
    "\n\
     With the ladder the server completes %d queries (+%.0f%%) against %d\n\
     unprotected, and hard errors drop from %d to %d: queries that would\n\
     have failed run instead with greedy plans and spilling grants, and\n\
     retries ride out the spike until the broker calms down.\n"
    on.Server.Experiment.total_completed uplift
    off.Server.Experiment.total_completed off.Server.Experiment.total_errors
    on.Server.Experiment.total_errors
