(* Sharded-mode tests: ring placement, the shard lifecycle state machine,
   fault-schedule shapes, submission-count conservation over fuzzed shard
   faults, bit-identity of the parallel fan-out, and the headline
   crash-failover retention bound. *)

let mib = Dbmem.Units.mib

(* A cheap cell: two shards, six clients, a short window. Sim time is
   free; the 64 MiB-per-shard validation floor sets the memory scale. *)
let small_cfg ?(shards = 2) ?(gateways = true) ?(hedge = false) ?(seed = 11)
    ?(schedule = Server.Shards.No_fault) () =
  {
    Server.Shards.c_shards = shards;
    c_clients = 6;
    c_variants = 8;
    c_think = 10.;
    c_warmup = 60.;
    c_measure = 240.;
    c_slice = 30.;
    c_total = mib 256 * shards;
    c_gateways = gateways;
    c_hedge = hedge;
    c_seed = seed;
    c_schedule = schedule;
  }

(* ------------------------------------------------------------------ *)
(* Consistent-hash ring *)

let make_shards eng n =
  Array.init n (fun i ->
      Server.Shard.create eng ~index:i
        ~name:(Printf.sprintf "shard%d" i)
        (Server.Config.default ())
        (Workload.Sales.catalog ()))

let test_ring_spreads_templates () =
  let eng = Sim.Engine.create ~seed:1 () in
  let n = 4 in
  let router = Server.Router.create eng (make_shards eng n) in
  let homes = Array.make n 0 in
  for i = 0 to 39 do
    let template = Printf.sprintf "p%03d" i in
    let prefs = Server.Router.preference router ~template in
    (* Every preference list is a permutation of all shard indices: the
       walk must offer every shard exactly once, home first. *)
    Alcotest.(check (list int))
      (template ^ " preference is a permutation")
      (List.init n Fun.id)
      (List.sort compare prefs);
    homes.(List.hd prefs) <- homes.(List.hd prefs) + 1
  done;
  Array.iteri
    (fun i c ->
      Alcotest.(check bool)
        (Printf.sprintf "shard%d is home to some template" i)
        true (c > 0))
    homes

let test_ring_stable_under_health () =
  (* Placement is pure ring arithmetic: a template's preference order
     does not change when shards crash, so traffic snaps back to the
     home shard on rejoin with no rebalance step. *)
  let eng = Sim.Engine.create ~seed:1 () in
  let shards = make_shards eng 3 in
  let router = Server.Router.create eng shards in
  let before = Server.Router.preference router ~template:"p007" in
  Server.Shard.crash shards.(List.hd before) ~restart_delay:10.;
  Alcotest.(check (list int)) "preference unchanged by a crash" before
    (Server.Router.preference router ~template:"p007")

(* The per-shard breakers: a home shard that fails hard three times in a
   row trips its breaker, the next arrival spills to the next shard on
   the ring, and after the 60 s cooldown a successful probe sends the
   template home again. Compile allocations on the home shard fail
   until the fault is cleared, so each attempt there ends in a 701. *)
let test_router_breaker_spills_and_heals () =
  let eng = Sim.Engine.create ~seed:1 () in
  let shards = make_shards eng 2 in
  let trace = Obs.Trace.create () in
  let router = Server.Router.create ~trace eng shards in
  let rng = Sim.Rng.create 5 in
  let sales = List.hd (Workload.Sales.templates ()) in
  let query id = Workload.Template.instance rng sales ~id in
  let first = query 1 in
  let template = Server.Dbms.template_of_qid first.Optimizer.Query.qid in
  let home, next =
    match Server.Router.preference router ~template with
    | h :: n :: _ -> (shards.(h), shards.(n))
    | _ -> Alcotest.fail "two shards expected"
  in
  let breaker_records name =
    Array.fold_left
      (fun (opens, closes) (r : Obs.Trace.record) ->
        match r.event with
        | Obs.Event.Breaker_open { shard } when shard = name ->
            (opens + 1, closes)
        | Obs.Event.Breaker_close { shard } when shard = name ->
            (opens, closes + 1)
        | _ -> (opens, closes))
      (0, 0) (Obs.Trace.records trace)
  in
  let home_name = Server.Shard.name home in
  let manager = Server.Dbms.manager (Server.Shard.dbms home) in
  Dbmem.Manager.set_alloc_fault manager
    (Some (fun clerk _ -> clerk = "compile"));
  let finished = ref false in
  Sim.Engine.spawn eng ~name:"client" (fun () ->
      (* One submission: the router retries the retryable 701 twice, and
         every attempt goes home while its breaker is closed. *)
      (match Server.Router.submit router first with
      | Error { Health.Error.code = Health.Error.Insufficient_memory; _ } -> ()
      | Ok () -> Alcotest.fail "the faulted home shard completed a query"
      | Error e -> Alcotest.failf "unexpected error %s" (Health.Error.to_string e));
      let tripped_at = Sim.Engine.now eng in
      Alcotest.(check int) "three attempts at home" 3 (Server.Shard.accepted home);
      Alcotest.(check (pair int int)) "home breaker opened" (1, 0)
        (breaker_records home_name);
      Alcotest.(check int) "no spill yet" 0 (Server.Router.spills router);
      (* The next arrival spills along the ring and completes there. *)
      Alcotest.(check bool) "spilled arrival completes" true
        (Result.is_ok (Server.Router.submit router (query 2)));
      Alcotest.(check int) "spill counted" 1 (Server.Router.spills router);
      Alcotest.(check int) "ran on the next shard" 1 (Server.Shard.accepted next);
      Alcotest.(check int) "home left alone" 3 (Server.Shard.accepted home);
      (* The fault clears; past the cooldown the next arrival is the
         half-open probe, succeeds at home and closes the breaker. *)
      Dbmem.Manager.set_alloc_fault manager None;
      Sim.Engine.sleep (Float.max 0. (tripped_at +. 60. -. Sim.Engine.now eng));
      Alcotest.(check bool) "probe completes" true
        (Result.is_ok (Server.Router.submit router (query 3)));
      Alcotest.(check int) "probe ran at home" 4 (Server.Shard.accepted home);
      Alcotest.(check (pair int int)) "home breaker closed" (1, 1)
        (breaker_records home_name);
      Alcotest.(check bool) "later arrival completes" true
        (Result.is_ok (Server.Router.submit router (query 4)));
      Alcotest.(check int) "template home again" 5 (Server.Shard.accepted home);
      Alcotest.(check int) "no further spill" 1 (Server.Router.spills router);
      finished := true);
  Sim.Engine.run eng ~until:10_000.;
  Alcotest.(check bool) "client finished" true !finished

(* ------------------------------------------------------------------ *)
(* Shard lifecycle *)

let test_shard_lifecycle () =
  let eng = Sim.Engine.create ~seed:3 () in
  let cfg =
    { (Server.Config.default ()) with
      Server.Config.plan_cache_floor_bytes = mib 32 }
  in
  let sh =
    Server.Shard.create ~probation:30. eng ~index:0 ~name:"s0" cfg
      (Workload.Sales.catalog ())
  in
  Alcotest.(check string) "starts up" "up"
    (Server.Shard.lifecycle_name (Server.Shard.state sh));
  (* Warm the plan cache with one stable-qid query, then crash. *)
  let templates = Workload.Sales.parameterized_templates ~variants:2 () in
  let q =
    (List.hd templates).Workload.Template.instantiate (Sim.Rng.create 5) 0
  in
  Sim.Engine.spawn eng (fun () ->
      ignore (Server.Dbms.submit (Server.Shard.dbms sh) q));
  Sim.Engine.run eng ~until:500.;
  Alcotest.(check bool) "cache warmed before the crash" true
    (Plancache.Cache.bytes (Server.Dbms.plan_cache (Server.Shard.dbms sh)) > 0);
  (* The engine clock sits at the last executed event, not at [until]:
     anchor the timeline there. *)
  let t_crash = Sim.Engine.now eng in
  Server.Shard.crash sh ~restart_delay:50.;
  Alcotest.(check string) "down after crash" "down"
    (Server.Shard.lifecycle_name (Server.Shard.state sh));
  Alcotest.(check int) "plan cache flushed" 0
    (Plancache.Cache.bytes (Server.Dbms.plan_cache (Server.Shard.dbms sh)));
  (* A down shard refuses with the routing back-pressure code. *)
  (match Server.Shard.submit sh q with
  | Error { Health.Error.code = Health.Error.Shard_unavailable; _ } -> ()
  | _ -> Alcotest.fail "down shard accepted a query");
  Alcotest.(check int) "refusal counted" 1 (Server.Shard.refused sh);
  (* Restart delay passes: recovering; probation passes: up. *)
  Sim.Engine.run eng ~until:(t_crash +. 60.);
  Alcotest.(check string) "recovering after restart delay" "recovering"
    (Server.Shard.lifecycle_name (Server.Shard.state sh));
  Sim.Engine.run eng ~until:(t_crash +. 120.);
  Alcotest.(check string) "up after probation" "up"
    (Server.Shard.lifecycle_name (Server.Shard.state sh));
  Alcotest.(check int) "one crash counted" 1 (Server.Shard.crashes sh)

(* ------------------------------------------------------------------ *)
(* Fault schedules *)

let test_fault_schedules_validate () =
  let cfg4 = small_cfg ~shards:4 () in
  Alcotest.(check int) "no-fault is empty" 0
    (List.length (Server.Shards.faults_of cfg4));
  List.iter
    (fun schedule ->
      let specs =
        Server.Shards.faults_of { cfg4 with Server.Shards.c_schedule = schedule }
      in
      Alcotest.(check bool)
        (Server.Shards.schedule_name schedule ^ " yields specs")
        true (specs <> []);
      List.iter Faultsim.Fault.validate specs)
    [ Server.Shards.Crash_failover; Rolling_restart; Brownout ];
  (* Rolling restarts are staggered: the outage windows are disjoint, so
     at most one shard is ever down. *)
  let windows =
    Server.Shards.faults_of
      { cfg4 with Server.Shards.c_schedule = Server.Shards.Rolling_restart }
    |> List.map Faultsim.Fault.window
    |> List.sort compare
  in
  let rec disjoint = function
    | (_, stop) :: ((start, _) :: _ as rest) -> stop <= start && disjoint rest
    | _ -> true
  in
  Alcotest.(check bool) "rolling outages do not overlap" true (disjoint windows)

(* ------------------------------------------------------------------ *)
(* Conservation and accounting over fuzzed fault schedules *)

let check_conservation (o : Server.Shards.outcome) =
  let open Server.Shards in
  (* Router books balance: every submission ends ok or failed, nothing
     stays in flight after the drain. *)
  o.submitted = o.ok + o.failed
  && o.in_flight_at_stop = 0
  (* Clients saw exactly the router's totals: every router submission is
     a client attempt (a client that retries a rejected query submits
     again, so attempts — not distinct queries — are what conserve). *)
  && o.cl_attempts = o.submitted
  && o.cl_submitted <= o.cl_attempts
  && o.cl_succeeded = o.ok
  (* Rejections are a subset of failures; completions happened inside
     the measure window, so they cannot exceed total successes. *)
  && o.rejected <= o.failed
  && o.completed <= o.ok
  (* Every shard's intake is accounted: finished or lost, none vanish. *)
  && List.for_all
       (fun r -> r.sh_accepted = r.sh_finished + r.sh_lost)
       o.shard_results
  (* The arbiter never grants past the machine (one keepalive byte per
     pool is the documented slack). *)
  && o.max_budget_sum <= o.o_config.c_total + o.o_config.c_shards

let prop_conservation_under_shard_faults =
  QCheck.Test.make ~name:"shards: counts conserved over fuzzed fault schedules"
    ~count:8
    QCheck.(
      quad (int_range 0 3) (int_range 2 4) bool (int_range 1 1000))
    (fun (sched, shards, gateways, seed) ->
      let schedule =
        match sched with
        | 0 -> Server.Shards.No_fault
        | 1 -> Server.Shards.Crash_failover
        | 2 -> Server.Shards.Rolling_restart
        | _ -> Server.Shards.Brownout
      in
      let hedge = schedule = Server.Shards.Brownout in
      check_conservation
        (Server.Shards.run (small_cfg ~shards ~gateways ~hedge ~seed ~schedule ())))

(* ------------------------------------------------------------------ *)
(* Parallel fan-out determinism *)

let prop_shards_parallel_bit_identical =
  QCheck.Test.make ~name:"shards: jobs:1 = jobs:4, bit-identical outcomes"
    ~count:3
    QCheck.(pair (int_range 1 500) (int_range 0 1))
    (fun (seed, sched) ->
      let schedule =
        if sched = 0 then Server.Shards.No_fault else Server.Shards.Crash_failover
      in
      let cells =
        [
          small_cfg ~seed ~schedule ();
          small_cfg ~seed:(seed + 1) ~gateways:false ~schedule ();
        ]
      in
      let fingerprint outcomes = Marshal.to_string outcomes [ Marshal.No_sharing ] in
      let seq = Parallel.Pool.run ~jobs:1 Server.Shards.run cells in
      let par = Parallel.Pool.run ~jobs:4 Server.Shards.run cells in
      String.equal (fingerprint seq) (fingerprint par))

(* ------------------------------------------------------------------ *)
(* Crash-failover retention *)

let test_crash_failover_retention () =
  (* The acceptance bound: with gateways on, a 4-shard crash+restart run
     keeps at least 80% of its no-fault throughput — the survivors absorb
     the traffic and the rejoining shard rides out its recompilation
     storm behind the compile gateways. *)
  let base =
    {
      (small_cfg ~shards:4 ()) with
      Server.Shards.c_clients = 16;
      c_variants = 24;
      c_think = 20.;
      c_warmup = 120.;
      c_measure = 400.;
      c_slice = 40.;
      c_total = mib 4096;
      c_seed = 42;
    }
  in
  let no_fault = Server.Shards.run base in
  let crash =
    Server.Shards.run
      { base with Server.Shards.c_schedule = Server.Shards.Crash_failover }
  in
  Alcotest.(check bool) "baseline produced work" true
    (no_fault.Server.Shards.completed > 0);
  let crashed =
    List.find
      (fun r -> r.Server.Shards.sh_crashes > 0)
      crash.Server.Shards.shard_results
  in
  Alcotest.(check bool) "crashed shard recompiled on rejoin" true
    (crashed.Server.Shards.sh_recompiles > 0);
  Alcotest.(check bool) "crashed shard rejoined" true
    (crashed.Server.Shards.sh_final_state = "up"
    || crashed.Server.Shards.sh_final_state = "recovering");
  let retention =
    Server.Shards.retention ~fault:crash ~no_fault
  in
  (* Bound pinned by the seed audit (test/seed_audit.exe): across seeds
     1..20 this config's retention spans [0.877, 1.000], so 0.8 leaves
     real margin at every audited seed, not just this one. *)
  Alcotest.(check bool)
    (Printf.sprintf "retention %.2f >= 0.8" retention)
    true (retention >= 0.8);
  Alcotest.(check bool) "conservation holds in both cells" true
    (check_conservation no_fault && check_conservation crash)

(* A client with no think time would sleep a zero or negative delay;
   the runner refuses the config before building an engine. *)
let test_rejects_non_positive_think () =
  List.iter
    (fun think ->
      Alcotest.check_raises
        (Printf.sprintf "think %g" think)
        (Invalid_argument "Shards.run: think <= 0")
        (fun () ->
          ignore
            (Server.Shards.run
               { Server.Shards.default_config with c_think = think })))
    [ 0.; -5. ]

let suite =
  [
    ("ring spreads templates", `Quick, test_ring_spreads_templates);
    ("ring stable under health changes", `Quick, test_ring_stable_under_health);
    ("router breaker spills and heals", `Quick, test_router_breaker_spills_and_heals);
    ("shard lifecycle", `Quick, test_shard_lifecycle);
    ("fault schedules validate", `Quick, test_fault_schedules_validate);
    ("non-positive think rejected", `Quick, test_rejects_non_positive_think);
    QCheck_alcotest.to_alcotest prop_conservation_under_shard_faults;
    QCheck_alcotest.to_alcotest prop_shards_parallel_bit_identical;
    ("crash failover retention", `Slow, test_crash_failover_retention);
  ]
