(* Robustness sweep: short end-to-end runs across a grid of configurations
   and seeds. Every run must finish without simulation-process failures
   (the engine raises otherwise) and satisfy basic conservation
   invariants. These runs are much smaller than the benchmark windows, so
   the whole sweep stays fast. *)

let run_one ~seed ~clients ~throttled ~policy ~cpus ~memory_gib =
  let base =
    if throttled then Server.Config.default () else Server.Config.unthrottled ()
  in
  let config =
    {
      base with
      Server.Config.seed;
      cpus;
      memory_bytes = Dbmem.Units.gib memory_gib;
      pool_policy = policy;
    }
  in
  Server.Experiment.run ~config ~clients ~warmup:0. ~measure:400. ~slice:100. ()

let check_invariants name (r : Server.Experiment.result) =
  let c = r.Server.Experiment.client_stats in
  Alcotest.(check bool)
    (name ^ ": attempts >= submitted")
    true
    (c.Workload.Client.attempts >= c.Workload.Client.submitted);
  Alcotest.(check bool)
    (name ^ ": succeeded + abandoned <= submitted")
    true
    (c.Workload.Client.succeeded + c.Workload.Client.abandoned
    <= c.Workload.Client.submitted);
  Alcotest.(check int)
    (name ^ ": completions = successes")
    c.Workload.Client.succeeded r.Server.Experiment.total_completed;
  Alcotest.(check bool)
    (name ^ ": pool hit rate sane")
    true
    (Float.is_nan r.Server.Experiment.pool_hit_rate
    || (r.Server.Experiment.pool_hit_rate >= 0. && r.Server.Experiment.pool_hit_rate <= 1.))

let test_config_grid () =
  List.iter
    (fun (clients, throttled, policy, cpus, memory_gib) ->
      let name =
        Printf.sprintf "c%d-%b-%dcpu-%dgib" clients throttled cpus memory_gib
      in
      let r = run_one ~seed:1 ~clients ~throttled ~policy ~cpus ~memory_gib in
      check_invariants name r)
    [
      (4, true, Bufpool.Policy.Lru, 2, 1);
      (4, false, Bufpool.Policy.Lru, 2, 1);
      (12, true, Bufpool.Policy.Clock, 4, 2);
      (12, false, Bufpool.Policy.Lru2, 4, 2);
      (24, true, Bufpool.Policy.Lru2, 8, 4);
      (24, false, Bufpool.Policy.Lru2, 8, 4);
    ]

let test_seed_sweep () =
  for seed = 100 to 107 do
    let r =
      run_one ~seed ~clients:10 ~throttled:(seed mod 2 = 0)
        ~policy:Bufpool.Policy.Lru2 ~cpus:4 ~memory_gib:2
    in
    check_invariants (Printf.sprintf "seed%d" seed) r
  done

let test_tiny_memory_survives () =
  (* A pathologically small machine: lots of errors are fine, crashes are
     not. *)
  let r =
    run_one ~seed:5 ~clients:8 ~throttled:true ~policy:Bufpool.Policy.Lru ~cpus:1
      ~memory_gib:1
  in
  check_invariants "tiny" r

let test_static_ladder_variant () =
  let config =
    {
      (Server.Config.default ()) with
      Server.Config.throttle = Qcore.Throttle_config.static_only ();
      seed = 9;
    }
  in
  let r =
    Server.Experiment.run ~config ~clients:16 ~warmup:0. ~measure:400. ~slice:100. ()
  in
  check_invariants "static ladder" r

let test_single_gate_variant () =
  let config =
    {
      (Server.Config.default ()) with
      Server.Config.throttle = Qcore.Throttle_config.single_gate ();
      seed = 10;
    }
  in
  let r =
    Server.Experiment.run ~config ~clients:16 ~warmup:0. ~measure:400. ~slice:100. ()
  in
  check_invariants "single gate" r

let test_tpch_workload_end_to_end () =
  (* The comparison workload also runs through the full server. *)
  let config = { (Server.Config.default ()) with Server.Config.seed = 11 } in
  (* TPC-H executions scan tens of GB (no star-style date slicing), so
     they take ~20 minutes each on this hardware: use a long window. *)
  let r =
    Server.Experiment.run ~config
      ~catalog:(Workload.Tpch.catalog ())
      ~templates:(Workload.Tpch.templates ())
      ~clients:4 ~warmup:0. ~measure:3000. ~slice:500. ()
  in
  check_invariants "tpch" r;
  Alcotest.(check bool) "tpch completes queries" true
    (r.Server.Experiment.total_completed > 0)

(* Derive a pseudo-random (but seed-deterministic) fault schedule without
   touching global randomness: simple arithmetic on the seed. *)
let schedule_of_seed seed =
  let gib = Dbmem.Units.gib in
  let pick n k = (seed * 7919 + (n * 104729)) mod k in
  let ballast =
    Faultsim.Fault.Memory_ballast
      {
        at = 20. +. float_of_int (pick 1 60);
        bytes = gib (1 + pick 2 3);
        hold = 40. +. float_of_int (pick 3 120);
        ramp_steps = 4 + pick 4 12;
        step_s = 1. +. float_of_int (pick 5 4);
      }
  in
  let storm =
    Faultsim.Fault.Disk_storm
      {
        at = 30. +. float_of_int (pick 6 80);
        duration = 60. +. float_of_int (pick 7 120);
        throughput_factor = 0.3 +. (0.1 *. float_of_int (pick 8 5));
        extra_seek_s = 0.002 *. float_of_int (pick 9 4);
      }
  in
  let glitch =
    Faultsim.Fault.Alloc_glitch
      {
        at = 40. +. float_of_int (pick 10 60);
        duration = 30. +. float_of_int (pick 11 90);
        fail_prob = 0.1 +. (0.1 *. float_of_int (pick 12 4));
        clerks = (if pick 13 2 = 0 then [ "compile" ] else []);
      }
  in
  let burst =
    Faultsim.Fault.Client_burst
      {
        at = 25. +. float_of_int (pick 14 60);
        duration = 50. +. float_of_int (pick 15 100);
        clients = 2 + pick 16 8;
        think_mean = 10. +. float_of_int (pick 17 40);
      }
  in
  match seed mod 4 with
  | 0 -> [ ballast ]
  | 1 -> [ ballast; storm ]
  | 2 -> [ ballast; glitch; burst ]
  | _ -> [ ballast; storm; glitch; burst ]

let test_fault_schedule_sweep () =
  (* Random chaos schedules across seeds, resilience alternating: nothing
     crashes and the conservation invariants keep holding. *)
  for seed = 200 to 205 do
    let faults = schedule_of_seed seed in
    List.iter Faultsim.Fault.validate faults;
    let base =
      if seed mod 2 = 0 then Server.Config.resilient ()
      else Server.Config.default ()
    in
    let config = { base with Server.Config.seed; faults } in
    let r =
      Server.Experiment.run ~config ~clients:10 ~warmup:0. ~measure:400.
        ~slice:100. ()
    in
    check_invariants (Printf.sprintf "chaos seed%d" seed) r;
    Alcotest.(check int)
      (Printf.sprintf "chaos seed%d: every fault ran" seed)
      (List.length faults) r.Server.Experiment.faults_started
  done

(* After the storm passes and the workload quiesces, nothing may leak:
   every monitor acquire has its release, and the transient clerks
   (compile sessions, execution grants, ballast) are drained back to
   zero. *)
let test_quiesce_drains () =
  let gib = Dbmem.Units.gib in
  let faults =
    [
      Faultsim.Fault.Memory_ballast
        { at = 50.; bytes = gib 2; hold = 100.; ramp_steps = 8; step_s = 4. };
      Faultsim.Fault.Disk_storm
        { at = 60.; duration = 150.; throughput_factor = 0.5; extra_seek_s = 0.003 };
      Faultsim.Fault.Alloc_glitch
        { at = 70.; duration = 80.; fail_prob = 0.4; clerks = [] };
    ]
  in
  let cfg =
    { (Server.Config.resilient ()) with Server.Config.seed = 77; faults }
  in
  let eng = Sim.Engine.create ~seed:77 () in
  let dbms = Server.Dbms.create eng cfg (Workload.Sales.catalog ()) in
  Server.Dbms.start dbms;
  let stats = Workload.Client.make_stats () in
  let ids = ref 0 in
  let rng = Sim.Rng.split (Sim.Engine.rng eng) in
  ignore (Server.Dbms.install_faults dbms);
  for i = 1 to 12 do
    Workload.Client.spawn eng rng
      ~name:(Printf.sprintf "c%d" i)
      ~templates:(Workload.Sales.templates ())
      ~submit:(fun q -> Server.Dbms.submit_catch dbms q)
      ~config:Workload.Client.default_config ~stats ~ids ~until:300.
  done;
  (* Run far past the last submission and the last fault so every query,
     retry and backoff has finished. *)
  Sim.Engine.run eng ~until:4000.;
  Array.iter
    (fun m ->
      Alcotest.(check int)
        (Printf.sprintf "monitor %s: acquires = releases" (Qcore.Monitor.name m))
        (Qcore.Monitor.acquires m) (Qcore.Monitor.releases m);
      Alcotest.(check int)
        (Printf.sprintf "monitor %s: nothing held" (Qcore.Monitor.name m))
        0 (Qcore.Monitor.in_use m))
    (Qcore.Compile_gov.monitors (Server.Dbms.governor dbms));
  List.iter
    (fun name ->
      let clerk = List.assoc name (Server.Dbms.clerks dbms) in
      Alcotest.(check int)
        (Printf.sprintf "clerk %s drained" name)
        0
        (Dbmem.Manager.clerk_used clerk))
    [ "compile"; "execution"; "ballast" ]

let suite =
  [
    ("config grid", `Slow, test_config_grid);
    ("seed sweep", `Slow, test_seed_sweep);
    ("tiny memory survives", `Slow, test_tiny_memory_survives);
    ("static ladder variant", `Slow, test_static_ladder_variant);
    ("single gate variant", `Slow, test_single_gate_variant);
    ("tpch workload end to end", `Slow, test_tpch_workload_end_to_end);
    ("fault schedule sweep", `Slow, test_fault_schedule_sweep);
    ("quiesce drains clerks and monitors", `Slow, test_quiesce_drains);
  ]
