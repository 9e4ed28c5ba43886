(* The fault-injection harness and the graceful-degradation ladder.

   The acceptance scenario is the one examples/chaos_pressure.ml ships:
   the canonical chaos run's memory-ballast spike, replayed from a fixed
   seed with resilience on and off. The resilient server must
   complete at least 20% more queries and report strictly fewer hard
   errors. *)

let gib = Dbmem.Units.gib

(* The canonical chaos run without its allocation glitch, as [dbsim
   chaos] runs it: the ballast alone, over the measured window with no
   drain. *)
let spike = { Server.Scenario.default with glitch = 0. }

let run_spike ~resilient =
  let base =
    if resilient then Server.Config.resilient () else Server.Config.default ()
  in
  let config =
    { base with Server.Config.seed = 42; faults = Server.Scenario.faults spike }
  in
  Server.Experiment.run ~config
    ~client_config:
      { Workload.Client.default_config with
        Workload.Client.think_mean = spike.think }
    ~clients:spike.clients ~warmup:spike.warmup ~measure:spike.measure
    ~slice:spike.slice ()

(* Both arms of the spike, run once and shared by the tests that read
   them. *)
let spike_on = lazy (run_spike ~resilient:true)
let spike_off = lazy (run_spike ~resilient:false)

let test_ladder_beats_unprotected () =
  let on = Lazy.force spike_on in
  let off = Lazy.force spike_off in
  (* The storm actually happened, identically, in both runs. *)
  Alcotest.(check int) "fault started (on)" 1 on.Server.Experiment.faults_started;
  Alcotest.(check int) "fault finished (on)" 1 on.Server.Experiment.faults_finished;
  (* The exact peak differs between the two runs (the servers release
     memory differently under the squeeze) but both must have been
     starved of most of the machine. *)
  Alcotest.(check bool)
    "ballast squeezed most of the machine" true
    (on.Server.Experiment.ballast_peak > gib 3
    && off.Server.Experiment.ballast_peak > gib 3);
  (* The unprotected server suffered: the errors are there to be saved. *)
  Alcotest.(check bool)
    "unprotected run hits hard errors" true
    (off.Server.Experiment.total_errors > 50);
  (* Acceptance: >= 20% more completions, strictly fewer hard errors. *)
  Alcotest.(check bool)
    (Printf.sprintf "completions %d >= 1.2 * %d"
       on.Server.Experiment.total_completed
       off.Server.Experiment.total_completed)
    true
    (float_of_int on.Server.Experiment.total_completed
    >= 1.2 *. float_of_int off.Server.Experiment.total_completed);
  Alcotest.(check bool)
    (Printf.sprintf "hard errors %d < %d" on.Server.Experiment.total_errors
       off.Server.Experiment.total_errors)
    true
    (on.Server.Experiment.total_errors < off.Server.Experiment.total_errors);
  (* The ladder, not luck: degraded rungs actually carried queries. *)
  Alcotest.(check bool)
    "degraded completions used" true
    (on.Server.Experiment.degraded > 0)

(* Same seed + same fault schedule => identical tallies, run to run. The
   whole simulation, chaos included, is a pure function of the seed. *)
let test_deterministic_replay () =
  let a = run_spike ~resilient:true in
  let b = run_spike ~resilient:true in
  Alcotest.(check int)
    "completions" a.Server.Experiment.total_completed
    b.Server.Experiment.total_completed;
  Alcotest.(check int)
    "retries" a.Server.Experiment.retries b.Server.Experiment.retries;
  Alcotest.(check int)
    "degraded" a.Server.Experiment.degraded b.Server.Experiment.degraded;
  Alcotest.(check int)
    "errors" a.Server.Experiment.total_errors
    b.Server.Experiment.total_errors;
  Alcotest.(check (list (pair string int)))
    "error tallies" a.Server.Experiment.errors b.Server.Experiment.errors;
  Alcotest.(check int)
    "ballast peak" a.Server.Experiment.ballast_peak
    b.Server.Experiment.ballast_peak;
  Alcotest.(check int)
    "abandoned" a.Server.Experiment.client_stats.Workload.Client.abandoned
    b.Server.Experiment.client_stats.Workload.Client.abandoned

(* A chaos schedule composed of every fault kind runs end to end through
   Experiment (bursts included) without any process dying, and the
   conservation invariants hold. *)
let test_full_schedule_composes () =
  let faults =
    [
      Faultsim.Fault.Memory_ballast
        { at = 40.; bytes = gib 2; hold = 80.; ramp_steps = 8; step_s = 2. };
      Faultsim.Fault.Disk_storm
        { at = 60.; duration = 120.; throughput_factor = 0.4; extra_seek_s = 0.004 };
      Faultsim.Fault.Client_burst
        { at = 80.; duration = 100.; clients = 10; think_mean = 20. };
      Faultsim.Fault.Alloc_glitch
        { at = 100.; duration = 60.; fail_prob = 0.3; clerks = [ "compile" ] };
    ]
  in
  let config =
    { (Server.Config.resilient ()) with Server.Config.seed = 7; faults }
  in
  let r =
    Server.Experiment.run ~config ~clients:12 ~warmup:0. ~measure:400.
      ~slice:100. ()
  in
  Alcotest.(check int) "all faults started" 4 r.Server.Experiment.faults_started;
  Alcotest.(check int) "all faults finished" 4 r.Server.Experiment.faults_finished;
  let c = r.Server.Experiment.client_stats in
  Alcotest.(check bool)
    "attempts >= submitted" true
    (c.Workload.Client.attempts >= c.Workload.Client.submitted);
  Alcotest.(check int)
    "completions = successes" c.Workload.Client.succeeded
    r.Server.Experiment.total_completed

(* A single server refuses nothing on its own: every error it books on
   either arm of the spike is a severe resource failure (701, 8645,
   8651), so its total error count is its hard-error count. The
   informational codes belong to the routing layer above it. *)
let test_server_books_only_severe () =
  List.iter
    (fun (arm, r) ->
      List.iter
        (fun code ->
          if Health.Error.severity code <> Health.Error.Severe then
            let name = Health.Error.code_name code in
            Alcotest.(check int)
              (Printf.sprintf "%s (%s)" name arm)
              0
              (List.assoc name r.Server.Experiment.errors))
        Health.Error.all_codes)
    [ ("on", Lazy.force spike_on); ("off", Lazy.force spike_off) ]

(* With an empty schedule and resilience off, install_faults is a no-op
   and the config is exactly the seed default. *)
let test_no_faults_no_injector () =
  let eng = Sim.Engine.create ~seed:3 () in
  let dbms =
    Server.Dbms.create eng (Server.Config.default ()) (Workload.Sales.catalog ())
  in
  Alcotest.(check bool)
    "no injector" true
    (Server.Dbms.install_faults dbms = None);
  Alcotest.(check bool)
    "no ballast clerk" true
    (Server.Dbms.ballast_clerk dbms = None)

let test_spec_validation () =
  let bad =
    [
      Faultsim.Fault.Memory_ballast
        { at = -1.; bytes = 1; hold = 0.; ramp_steps = 1; step_s = 1. };
      Faultsim.Fault.Memory_ballast
        { at = 0.; bytes = 0; hold = 0.; ramp_steps = 1; step_s = 1. };
      Faultsim.Fault.Disk_storm
        { at = 0.; duration = 1.; throughput_factor = 0.; extra_seek_s = 0. };
      Faultsim.Fault.Disk_storm
        { at = 0.; duration = 1.; throughput_factor = 1.5; extra_seek_s = 0. };
      Faultsim.Fault.Client_burst
        { at = 0.; duration = 1.; clients = 0; think_mean = 1. };
      Faultsim.Fault.Alloc_glitch
        { at = 0.; duration = 1.; fail_prob = 1.5; clerks = [] };
    ]
  in
  List.iter
    (fun spec ->
      Alcotest.(check bool)
        ("rejected: " ^ Faultsim.Fault.label spec)
        true
        (match Faultsim.Fault.validate spec with
        | () -> false
        | exception Invalid_argument _ -> true))
    bad

let suite =
  [
    ("spec validation", `Quick, test_spec_validation);
    ("no faults, no injector", `Quick, test_no_faults_no_injector);
    ("full schedule composes", `Slow, test_full_schedule_composes);
    ("deterministic replay", `Slow, test_deterministic_replay);
    ("ladder beats unprotected", `Slow, test_ladder_beats_unprotected);
    ("server books only severe codes", `Slow, test_server_books_only_severe);
  ]
