(* The graceful-degradation ladder under an external memory attack.

   A phantom process starts grabbing committed memory at t=100s and keeps
   absorbing whatever the server's own components release — execution
   grants, compile sessions — until essentially nothing is left, then
   lets go. 35 clients run the SALES workload through the whole episode.

   The same storm is replayed twice from the same seed: once on the plain
   throttled server, once with the resilience layer (greedy-plan compile
   fallback, reduced-grant spill execution, retry with backoff). The
   resilient server turns a flood of hard errors into
   degraded-but-successful completions.

     dune exec examples/chaos_pressure.exe *)

let gib = Dbmem.Units.gib

(* The canonical chaos scenario of test/test_chaos.ml: ballast spike at
   t=100s, 35 clients. The ballast's appetite (12 GiB) exceeds physical
   memory (4 GiB) on purpose — the slow 600s ramp keeps eating freed
   grants, ratcheting the server down to scraps. *)
let clients = 35
let seed = 42
let warmup = 60.
let measure = 1000.
let slice = 60.

let faults =
  [
    Faultsim.Fault.Memory_ballast
      { at = 100.; bytes = gib 12; hold = 0.; ramp_steps = 240; step_s = 2.5 };
  ]

let run ~resilient =
  let base =
    if resilient then Server.Config.resilient () else Server.Config.default ()
  in
  let config = { base with Server.Config.seed; faults } in
  Server.Experiment.run ~config ~clients ~warmup ~measure ~slice ()

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
