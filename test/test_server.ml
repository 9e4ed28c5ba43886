(* Integration tests: the assembled DBMS under the SALES workload. *)

let quick_run ?(clients = 6) ?(throttled = true) ?(seed = 42) ?(measure = 600.) () =
  let config =
    if throttled then { (Server.Config.default ()) with Server.Config.seed }
    else { (Server.Config.unthrottled ()) with Server.Config.seed }
  in
  Server.Experiment.run ~config ~clients ~warmup:0. ~measure ~slice:60. ()

let test_end_to_end_completes_queries () =
  let r = quick_run () in
  Alcotest.(check bool) "completed several queries" true
    (r.Server.Experiment.total_completed > 5);
  Alcotest.(check bool) "compile time in band" true
    (r.Server.Experiment.compile_mean_s > 1.
    && r.Server.Experiment.compile_max_s < 200.);
  Alcotest.(check bool) "exec time in band" true
    (r.Server.Experiment.exec_mean_s > 5.
    && r.Server.Experiment.exec_max_s < 700.)

let test_metrics_match_client_stats () =
  let r = quick_run () in
  (* With warmup = 0 the metric window covers everything the clients saw. *)
  Alcotest.(check int) "completions = client successes"
    r.Server.Experiment.client_stats.Workload.Client.succeeded
    r.Server.Experiment.total_completed;
  let slice_sum =
    Array.fold_left (fun acc (_, v) -> acc +. v) 0. r.Server.Experiment.slices
  in
  Alcotest.(check int) "slices sum to total" r.Server.Experiment.total_completed
    (int_of_float slice_sum)

let test_throttling_reduces_errors_under_load () =
  let on = quick_run ~clients:32 ~throttled:true ~measure:1200. () in
  let off = quick_run ~clients:32 ~throttled:false ~measure:1200. () in
  Alcotest.(check bool)
    (Printf.sprintf "errors: throttled %d <= unthrottled %d"
       on.Server.Experiment.total_errors off.Server.Experiment.total_errors)
    true
    (on.Server.Experiment.total_errors <= off.Server.Experiment.total_errors);
  Alcotest.(check bool)
    (Printf.sprintf "throughput: throttled %.1f >= unthrottled %.1f"
       on.Server.Experiment.mean_per_slice off.Server.Experiment.mean_per_slice)
    true
    (on.Server.Experiment.mean_per_slice >= off.Server.Experiment.mean_per_slice);
  Alcotest.(check bool) "unthrottled compile peak higher" true
    (off.Server.Experiment.compile_peak_max >= on.Server.Experiment.compile_peak_max)

let test_deterministic_given_seed () =
  let a = quick_run ~seed:7 () and b = quick_run ~seed:7 () in
  Alcotest.(check int) "same completions" a.Server.Experiment.total_completed
    b.Server.Experiment.total_completed;
  Alcotest.(check (float 1e-9)) "same mean" a.Server.Experiment.mean_per_slice
    b.Server.Experiment.mean_per_slice;
  let c = quick_run ~seed:8 () in
  Alcotest.(check bool) "different seed differs" true
    (a.Server.Experiment.total_completed <> c.Server.Experiment.total_completed
    || a.Server.Experiment.compile_mean_s <> c.Server.Experiment.compile_mean_s)

let test_memory_series_recorded () =
  let r = quick_run () in
  let names = List.map fst r.Server.Experiment.memory_series in
  List.iter
    (fun n -> Alcotest.(check bool) ("series " ^ n) true (List.mem n names))
    [ "bufpool"; "plancache"; "compile"; "execution" ];
  List.iter
    (fun (_, s) -> Alcotest.(check bool) "non-empty" true (Sim.Series.length s > 10))
    r.Server.Experiment.memory_series

(* Direct Dbms API tests (no Experiment wrapper). *)

let make_dbms ?(config = Server.Config.default ()) () =
  let eng = Sim.Engine.create ~seed:config.Server.Config.seed () in
  let dbms = Server.Dbms.create eng config (Workload.Sales.catalog ()) in
  Server.Dbms.start dbms;
  (eng, dbms)

let test_submit_single_query () =
  let eng, dbms = make_dbms () in
  let rng = Sim.Rng.create 1 in
  let t = List.hd (Workload.Sales.templates ()) in
  let q = Workload.Template.instance rng t ~id:1 in
  let result = ref None in
  Sim.Engine.spawn eng (fun () -> result := Some (Server.Dbms.submit dbms q));
  Sim.Engine.run eng ~until:2_000.;
  (match !result with
  | Some (Ok ()) -> ()
  | Some (Error e) -> Alcotest.failf "submit failed: %s" (Health.Error.to_string e)
  | None -> Alcotest.fail "submit did not finish");
  let m = Server.Dbms.metrics dbms in
  Alcotest.(check int) "one completion" 1 (Server.Metrics.total_completions m ());
  Alcotest.(check bool) "compile peak recorded" true
    (Sim.Stats.Online.count (Server.Metrics.compile_peak m) = 1)

let test_diagnostic_queries_hit_plan_cache () =
  let eng, dbms = make_dbms () in
  let rng = Sim.Rng.create 2 in
  let t = Workload.Sales.diagnostic_template () in
  Sim.Engine.spawn eng (fun () ->
      for i = 1 to 5 do
        match Server.Dbms.submit dbms (Workload.Template.instance rng t ~id:i) with
        | Ok () -> ()
        | Error _ -> Alcotest.fail "diagnostic failed"
      done);
  Sim.Engine.run eng ~until:5_000.;
  let m = Server.Dbms.metrics dbms in
  Alcotest.(check int) "five completions" 5 (Server.Metrics.total_completions m ());
  (* Same fingerprint: compiled once, four cache hits. *)
  Alcotest.(check int) "four cache hits" 4 (Server.Metrics.cache_hits m);
  Alcotest.(check int) "one cached entry" 1
    (Plancache.Cache.entries (Server.Dbms.plan_cache dbms))

let test_memory_clean_after_quiesce () =
  let eng, dbms = make_dbms () in
  let rng = Sim.Rng.create 3 in
  Sim.Engine.spawn eng (fun () ->
      List.iteri
        (fun i t ->
          if i < 3 then
            ignore (Server.Dbms.submit dbms (Workload.Template.instance rng t ~id:i)))
        (Workload.Sales.templates ()));
  Sim.Engine.run eng ~until:10_000.;
  let clerks = Server.Dbms.clerks dbms in
  (* Transient consumers are empty once the system is idle; caches keep
     their contents. *)
  Alcotest.(check int) "compile clerk drained" 0
    (Dbmem.Manager.clerk_used (List.assoc "compile" clerks));
  Alcotest.(check int) "execution clerk drained" 0
    (Dbmem.Manager.clerk_used (List.assoc "execution" clerks));
  Alcotest.(check bool) "buffer pool retained pages" true
    (Dbmem.Manager.clerk_used (List.assoc "bufpool" clerks) > 0)

let test_broker_runs_during_experiment () =
  let eng, dbms = make_dbms () in
  Sim.Engine.run eng ~until:100.;
  Alcotest.(check bool) "broker ticked" true
    (Qcore.Broker.ticks (Server.Dbms.broker dbms) >= 99)

let test_gateways_exercised_under_load () =
  let config = Server.Config.default () in
  let eng, dbms = make_dbms ~config () in
  let stats = Workload.Client.make_stats () in
  let ids = ref 0 in
  let rng = Sim.Rng.split (Sim.Engine.rng eng) in
  for i = 1 to 24 do
    Workload.Client.spawn eng rng
      ~name:(Printf.sprintf "c%d" i)
      ~templates:(Workload.Sales.templates ())
      ~submit:(fun q -> Server.Dbms.submit_catch dbms q)
      ~config:{ Workload.Client.default_config with Workload.Client.think_mean = 5. }
      ~stats ~ids ~until:900.
  done;
  Sim.Engine.run eng ~until:900.;
  let monitors = Qcore.Compile_gov.monitors (Server.Dbms.governor dbms) in
  Alcotest.(check bool) "small gateway used" true
    (Qcore.Monitor.acquires monitors.(0) > 10);
  Alcotest.(check bool) "medium gateway used" true
    (Qcore.Monitor.acquires monitors.(1) > 0);
  Array.iter
    (fun m ->
      Alcotest.(check bool)
        (Printf.sprintf "%s within slots" (Qcore.Monitor.name m))
        true
        (Qcore.Monitor.in_use m <= Qcore.Monitor.slots m))
    monitors

let test_unthrottled_governor_untouched () =
  let config = Server.Config.unthrottled () in
  let eng, dbms = make_dbms ~config () in
  let rng = Sim.Rng.create 5 in
  let t = List.hd (Workload.Sales.templates ()) in
  Sim.Engine.spawn eng (fun () ->
      ignore (Server.Dbms.submit dbms (Workload.Template.instance rng t ~id:1)));
  Sim.Engine.run eng ~until:2_000.;
  let monitors = Qcore.Compile_gov.monitors (Server.Dbms.governor dbms) in
  Array.iter
    (fun m -> Alcotest.(check int) "no acquisitions" 0 (Qcore.Monitor.acquires m))
    monitors

let test_experiment_uplift_helper () =
  let mk mean =
    let r = quick_run ~measure:60. () in
    { r with Server.Experiment.mean_per_slice = mean }
  in
  let a = mk 40. and b = mk 30. in
  Alcotest.(check (float 1e-9)) "uplift" (1. /. 3.) (Server.Experiment.uplift a b)

(* Multi-tenant runs: a cheap two-tenant cast so the full machinery
   (arbiter + per-pool servers) stays fast enough for unit tests. *)
let tenant_specs () =
  [
    {
      Server.Tenants.tname = "eager";
      tweight = 1.0;
      tmin_share = 0.2;
      tmax_share = 0.9;
      tclients = 4;
      tthink_mean = 20.;
      tworkload = Server.Tenants.Sales;
    };
    {
      Server.Tenants.tname = "calm";
      tweight = 1.0;
      tmin_share = 0.2;
      tmax_share = 0.9;
      tclients = 3;
      tthink_mean = 15.;
      tworkload = Server.Tenants.Light;
    };
  ]

let tenants_run ?(mode = Server.Tenants.Isolated) ?(seed = 11) () =
  Server.Tenants.run ~specs:(tenant_specs ()) ~mode
    ~total_bytes:(Dbmem.Units.gib 1) ~seed ~warmup:60. ~measure:240. ~slice:60.
    ()

let test_tenants_budgets_fit_machine () =
  let o = tenants_run () in
  let open Server.Tenants in
  let sum_start =
    List.fold_left (fun a t -> a + t.budget_start) 0 o.tenants
  in
  let sum_end = List.fold_left (fun a t -> a + t.budget_end) 0 o.tenants in
  Alcotest.(check bool) "initial budgets fit" true (sum_start <= o.ototal);
  Alcotest.(check bool) "arbitrated budgets fit" true (sum_end <= o.ototal);
  List.iter
    (fun t ->
      Alcotest.(check bool)
        (t.rname ^ " keeps its floor") true
        (t.budget_end >= t.floor))
    o.tenants;
  Alcotest.(check bool) "arbiter ticked" true (o.arb_ticks > 0);
  List.iter
    (fun t ->
      Alcotest.(check bool) (t.rname ^ " completed work") true (t.completed > 0))
    o.tenants

let test_tenants_reproducible () =
  let a = tenants_run ~seed:23 () and b = tenants_run ~seed:23 () in
  let open Server.Tenants in
  List.iter2
    (fun x y ->
      Alcotest.(check int) (x.rname ^ " completions equal") x.completed
        y.completed;
      Alcotest.(check int) (x.rname ^ " budget_end equal") x.budget_end
        y.budget_end)
    a.tenants b.tenants;
  Alcotest.(check int) "same rebalances" a.arb_rebalances b.arb_rebalances

let test_tenants_solo_stream_unchanged () =
  (* The victim must submit the same query stream alone as it does with
     neighbours: client RNG is keyed by (seed, tenant name), not by the
     number of pools sharing the engine. *)
  let open Server.Tenants in
  let shared = tenants_run ~seed:5 () in
  let alone =
    solo ~specs:(tenant_specs ()) ~victim:"calm"
      ~total_bytes:(Dbmem.Units.gib 1) ~seed:5 ~warmup:60. ~measure:240.
      ~slice:60. ()
  in
  let s = find_tenant shared "calm" and a = find_tenant alone "calm" in
  Alcotest.(check int) "same submissions" s.submitted a.submitted

let suite =
  [
    ("end-to-end completes queries", `Slow, test_end_to_end_completes_queries);
    ("metrics match client stats", `Slow, test_metrics_match_client_stats);
    ("throttling reduces errors", `Slow, test_throttling_reduces_errors_under_load);
    ("deterministic given seed", `Slow, test_deterministic_given_seed);
    ("memory series recorded", `Slow, test_memory_series_recorded);
    ("submit single query", `Quick, test_submit_single_query);
    ("diagnostic queries hit cache", `Quick, test_diagnostic_queries_hit_plan_cache);
    ("memory clean after quiesce", `Quick, test_memory_clean_after_quiesce);
    ("broker runs", `Quick, test_broker_runs_during_experiment);
    ("gateways exercised under load", `Slow, test_gateways_exercised_under_load);
    ("unthrottled governor untouched", `Quick, test_unthrottled_governor_untouched);
    ("experiment uplift helper", `Quick, test_experiment_uplift_helper);
    ("tenants budgets fit machine", `Slow, test_tenants_budgets_fit_machine);
    ("tenants reproducible", `Slow, test_tenants_reproducible);
    ("tenants solo stream unchanged", `Slow, test_tenants_solo_stream_unchanged);
  ]
