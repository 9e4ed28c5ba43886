let chaos_faults ?(ballast_gib = 12.) ?(at = 100.) ?(ramp_steps = 240)
    ?(step_s = 2.5) ?(glitch = 0.15) () =
  let window = float_of_int ramp_steps *. step_s in
  (if ballast_gib > 0. then
     Faultsim.Fault.pressure_spike ~ramp_steps ~step_s ~at
       ~bytes:(int_of_float (ballast_gib *. float_of_int (Dbmem.Units.gib 1)))
       ~hold:0. ()
   else [])
  @
  if glitch > 0. then
    [
      Faultsim.Fault.Alloc_glitch
        { at; duration = window; fail_prob = glitch; clerks = [ "compile" ] };
    ]
  else []

type outcome = {
  dbms : Dbms.t;
  report : Health.Report.t;
  completed : int;
  faults : Faultsim.Fault.spec list;
  client_stats : Workload.Client.stats;
}

let run_chaos ?(config = Config.supervised ()) ?faults ?seed ?(clients = 35)
    ?(warmup = 60.) ?(measure = 1000.) ?(drain = 900.) ?(think_mean = 100.)
    ?trace () =
  let faults = match faults with Some f -> f | None -> chaos_faults () in
  let cfg = { config with Config.faults } in
  let cfg =
    match seed with Some s -> { cfg with Config.seed = s } | None -> cfg
  in
  let stop = warmup +. measure in
  let dbms, stats, _ =
    Experiment.load ?trace cfg (Workload.Sales.catalog ())
      ~templates:(Workload.Sales.templates ())
      ~client_config:
        { Workload.Client.default_config with Workload.Client.think_mean }
      ~clients ~stop
  in
  let eng = Dbms.engine dbms in
  (* Clients stop submitting at [stop]; the drain window lets in-flight
     queries finish so a session still watched at the end really is stuck,
     not merely truncated by the clock. *)
  Sim.Engine.run eng ~until:(stop +. drain);
  let report = Dbms.health_report dbms ~since:warmup () in
  {
    dbms;
    report;
    completed = Metrics.total_completions (Dbms.metrics dbms) ~since:warmup ();
    faults;
    client_stats = stats;
  }
