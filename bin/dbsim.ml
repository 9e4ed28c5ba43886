(* Command-line driver for the simulated DBMS: single runs,
   throttled-vs-unthrottled comparisons, client sweeps, the scenario
   experiments, and the paper's evaluation ([dbsim paper], bin/paper.ml). *)

open Cmdliner

let clients_arg =
  Fanout.clients_arg ~default:30 ~doc:"Number of concurrent clients."

let throttle_arg =
  Arg.(value & opt bool true & info [ "throttle" ] ~doc:"Enable compilation throttling.")

let warmup_arg = Fanout.warmup_arg ~default:600.
let measure_arg = Fanout.measure_arg ~default:1800.
let slice_arg = Fanout.slice_arg ~default:60.

(* The workload a command serves: its catalog and its templates. *)
let workload_arg =
  let load = function
    | `Sales -> (Workload.Sales.catalog (), Workload.Sales.templates ())
    | `Snowflake -> (Workload.Snowflake.catalog (), Workload.Snowflake.templates ())
    | `Tpch -> (Workload.Tpch.catalog (), Workload.Tpch.templates ())
  in
  Term.(
    const load
    $ Arg.(
        value
        & opt (enum [ ("sales", `Sales); ("snowflake", `Snowflake); ("tpch", `Tpch) ]) `Sales
        & info [ "workload" ] ~doc:"Workload: sales, snowflake or tpch."))

(* Detailed single run that keeps the server around for resource stats. *)
let run_verbose ~clients ~throttle ~warmup ~measure ~seed =
  let cfg = Paper.config ~throttle ~seed in
  let stop = warmup +. measure in
  let dbms, _, _ =
    Server.Experiment.load cfg (Workload.Sales.catalog ())
      ~templates:(Workload.Sales.templates ())
      ~client_config:Workload.Client.default_config ~clients ~stop
  in
  Sim.Engine.run (Server.Dbms.engine dbms) ~until:stop;
  let m = Server.Dbms.metrics dbms in
  let grants = Server.Dbms.grants dbms in
  let disk = Server.Dbms.disk dbms in
  Printf.printf "completions=%d errors=%d\n"
    (Server.Metrics.total_completions m ~since:warmup ())
    (Server.Metrics.total_errors m);
  Format.printf "grant waits: %a timeouts=%d in_use=%s of %s@."
    Sim.Stats.Online.pp (Execsim.Grant.wait_stats grants)
    (Execsim.Grant.timeouts grants)
    (Dbmem.Units.bytes_to_string (Execsim.Grant.in_use grants))
    (Dbmem.Units.bytes_to_string (Execsim.Grant.total grants));
  Printf.printf "disk: read %.1f GB, written %.1f GB, util %.2f\n"
    (float_of_int (Bufpool.Disk.bytes_read disk) /. 1e9)
    (float_of_int (Bufpool.Disk.bytes_written disk) /. 1e9)
    ((float_of_int (Bufpool.Disk.bytes_read disk + Bufpool.Disk.bytes_written disk)
      /. (float_of_int cfg.Server.Config.disk_spindles
         *. cfg.Server.Config.disk_throughput))
     /. stop);
  Format.printf "disk queue: %a@." Sim.Stats.Online.pp (Bufpool.Disk.queue_wait disk);
  Format.printf "pool: %a@." Bufpool.Pool.pp (Server.Dbms.pool dbms);
  Format.printf "cache: %a@." Plancache.Cache.pp (Server.Dbms.plan_cache dbms);
  Printf.printf "cpu util=%.2f queued=%d\n"
    (Execsim.Cpu.utilization (Server.Dbms.cpu dbms))
    (Execsim.Cpu.queued (Server.Dbms.cpu dbms));
  Format.printf "%a@." Dbmem.Manager.pp (Server.Dbms.manager dbms);
  Format.printf "%a@." Qcore.Broker.pp (Server.Dbms.broker dbms);
  Format.printf "%a@." Qcore.Compile_gov.pp (Server.Dbms.governor dbms);
  Format.printf "compile: %a@.exec: %a@."
    Sim.Stats.Online.pp (Server.Metrics.compile_time m)
    Sim.Stats.Online.pp (Server.Metrics.exec_time m)

let verbose_cmd =
  let action clients throttle warmup measure seed =
    run_verbose ~clients ~throttle ~warmup ~measure ~seed
  in
  Cmd.v (Cmd.info "verbose" ~doc:"Single run with resource diagnostics.")
    Term.(const action $ clients_arg $ throttle_arg $ warmup_arg $ measure_arg $ Fanout.seed_arg)

(* [run], [compare] and [sweep]: SALES cells over the flags' windows, a
   client count and a server config each. *)
let experiment ?report ~warmup ~measure ~slice cells section =
  {
    Fanout.cells;
    run =
      (fun ?trace (clients, config) ->
        Paper.run_cell ?trace ~warmup ~measure ~slice ~clients config);
    section = (fun _ results -> section results);
    report;
  }

(* Each arm's slice and memory rows (one column per clerk), as CSV
   blocks. *)
let series_report oc _ results =
  List.iter
    (fun (r : Server.Experiment.result) ->
      let arm = if r.throttled then "throttled" else "unthrottled" in
      Printf.fprintf oc "[slices %s]\n" arm;
      Fanout.(csv oc [ float 0 "slice_start_s" fst; float 0 "completions" snd ])
        (Array.to_list r.slices);
      match r.memory_series with
      | [] -> ()
      | (_, first) :: _ as series ->
          let clerk (name, s) =
            Fanout.str (name ^ "_bytes") (fun k ->
                if Sim.Series.length s > k then
                  Printf.sprintf "%.0f" (snd (Sim.Series.nth s k))
                else "")
          in
          Printf.fprintf oc "[memory %s]\n" arm;
          Fanout.csv oc
            (Fanout.float 0 "time_s" (fun k -> fst (Sim.Series.nth first k))
            :: List.map clerk series)
            (List.init (Sim.Series.length first) Fun.id))
    results

let series_doc = "slice and memory series"

let run_cmd =
  let section =
    List.iter (fun (r : Server.Experiment.result) ->
        Format.printf "%a@." Server.Experiment.pp_summary r;
        List.iter
          (fun (k, n) -> if n > 0 then Printf.printf "  error %s: %d\n" k n)
          r.errors;
        Printf.printf "  client: submitted %d attempts %d succeeded %d abandoned %d\n"
          r.client_stats.submitted r.client_stats.attempts
          r.client_stats.succeeded r.client_stats.abandoned;
        Server.Report.table ~header:[ "slice start (s)"; "completions" ]
          (Array.to_list
             (Array.map
                (fun (t, v) -> [ Printf.sprintf "%.0f" t; Printf.sprintf "%.0f" v ])
                r.slices));
        print_endline ("  " ^ Server.Report.sparkline (Array.map snd r.slices)))
  in
  let spec clients throttle warmup measure slice =
    experiment ~report:series_report ~warmup ~measure ~slice
      (fun seed -> [ (clients, Paper.config ~throttle ~seed) ])
      section
  in
  Fanout.cmd (Cmd.info "run" ~doc:"Run the SALES benchmark once.")
    ~report:series_doc ~seed_titles:true
    Term.(const spec $ clients_arg $ throttle_arg $ warmup_arg $ measure_arg $ slice_arg)

let compare_cmd =
  let spec clients warmup measure slice =
    experiment ~report:series_report ~warmup ~measure ~slice
      (fun seed ->
        Paper.sweep_cells ~throttles:[ true; false ] ~counts:[ clients ] ~seed)
      (Paper.print_pair
         ~title:
           (Printf.sprintf "Throughput, %d clients (completions per %.0fs slice)"
              clients slice))
  in
  Fanout.cmd
    (Cmd.info "compare" ~doc:"Throttled vs unthrottled at one client count (Figures 3-5).")
    ~report:series_doc ~seed_titles:true
    Term.(const spec $ clients_arg $ warmup_arg $ measure_arg $ slice_arg)

let sweep_cmd =
  let list_arg =
    Arg.(
      value
      & opt (list Fanout.pos_int) [ 10; 20; 30; 35; 40 ]
      & info [ "list" ] ~doc:"Client counts to sweep.")
  in
  let spec counts throttle warmup measure slice =
    experiment ~warmup ~measure ~slice
      (fun seed -> Paper.sweep_cells ~throttles:[ throttle ] ~counts ~seed)
      Paper.print_sweep
  in
  Fanout.cmd (Cmd.info "sweep" ~doc:"Sweep client counts (peak-throughput claim).")
    ~seed_titles:true
    Term.(
      const spec $ list_arg $ throttle_arg $ warmup_arg $ measure_arg
      $ slice_arg)

let paper_cmd =
  let experiments_arg =
    Arg.(
      value
      & pos_all (enum (List.map (fun (name, _) -> (name, name)) Paper.experiments)) []
      & info [] ~docv:"EXPERIMENT"
          ~doc:
            (Printf.sprintf
               "Experiments to run, in order (default: all). One of %s."
               (String.concat ", "
                  (List.map (fun (name, _) -> Printf.sprintf "$(b,%s)" name)
                     Paper.experiments))))
  in
  Cmd.v
    (Cmd.info "paper"
       ~doc:
         "Reproduce the paper's figures, tables and ablations (pinned by \
          test/paper.golden).")
    Term.(const (fun names jobs -> Paper.run ~jobs names) $ experiments_arg $ Fanout.jobs_arg)

let sql_cmd =
  let count_arg =
    Arg.(
      value & opt Fanout.pos_int 2
      & info [ "count"; "n" ] ~doc:"Number of instances to print.")
  in
  let action count (_, templates) seed =
    let rng = Sim.Rng.create seed in
    for i = 1 to count do
      let t = Workload.Template.pick rng templates in
      print_endline (Optimizer.Query.to_sql (Workload.Template.instance rng t ~id:i));
      print_newline ()
    done
  in
  Cmd.v
    (Cmd.info "sql" ~doc:"Print uniquified query instances as SQL text.")
    Term.(const action $ count_arg $ workload_arg $ Fanout.seed_arg)

(* [chaos] and [health] run the canonical chaos run, [Server.Scenario.t]:
   each flag defaults from the record its command starts from, and each
   cell is [Experiment.run] on the record. *)
module Scenario = Server.Scenario

let scenario_clients_arg (d : Scenario.t) =
  Fanout.clients_arg ~default:d.clients ~doc:"Number of concurrent clients."

let scenario_run ?catalog ?templates (s : Scenario.t) ?trace config =
  Server.Experiment.run ~config ?catalog ?templates ~drain:s.drain
    ~client_config:
      { Workload.Client.default_config with Workload.Client.think_mean = s.think }
    ?trace ~clients:s.clients ~warmup:s.warmup ~measure:s.measure
    ~slice:s.slice ()

let print_schedule faults =
  List.iter (fun f -> Printf.printf "  %s\n" (Faultsim.Fault.label f)) faults;
  print_newline ()

let chaos_cmd =
  (* The A/B compares the arms' measured windows, so it drains nothing;
     and its faults are the ballast alone unless --glitch asks for more,
     so what the resilient arm saves is what the external pressure
     alone costs the unprotected server. *)
  let d = { Scenario.default with glitch = 0.; drain = 0. } in
  let ballast_gib =
    Arg.(
      value
      & opt (Fanout.gib ~zero:true) d.ballast_gib
      & info [ "ballast-gib" ]
          ~doc:"Ballast appetite, GiB (0 disables). May exceed physical \
                memory: the ramp then absorbs whatever other components \
                release, like a runaway external process.")
  in
  let ballast_at =
    Arg.(value & opt Fanout.nonneg_float d.at & info [ "ballast-at" ] ~doc:"Ballast spike start, seconds of sim time.")
  in
  let ballast_hold =
    Arg.(value & opt Fanout.nonneg_float d.hold & info [ "ballast-hold" ] ~doc:"Seconds the ballast holds after its ramp.")
  in
  let ballast_steps =
    Arg.(value & opt Fanout.pos_int d.ramp_steps & info [ "ballast-steps" ] ~doc:"Ballast ramp increments.")
  in
  let ballast_step_s =
    Arg.(value & opt Fanout.nonneg_float d.step_s & info [ "ballast-step-s" ] ~doc:"Seconds between ballast increments.")
  in
  let storm_arg =
    Arg.(value & flag & info [ "disk-storm" ] ~doc:"Also degrade the disk during the spike window.")
  in
  let burst_arg =
    Arg.(value & opt Fanout.nonneg_int d.burst & info [ "burst" ] ~doc:"Extra burst clients during the spike window (0 = none).")
  in
  let glitch_arg =
    Arg.(
      value
      & opt Fanout.probability d.glitch
      & info [ "glitch" ]
          ~doc:"Transient allocation-failure probability during the spike window (0 = none).")
  in
  let think_arg =
    Fanout.think_arg ~default:d.think ~doc:"Client mean think time, seconds."
  in
  let spec clients warmup measure slice ballast_gib at hold ramp_steps step_s
      disk_storm burst glitch think (catalog, templates) =
    let s =
      { d with clients; warmup; measure; slice; ballast_gib; at; hold;
               ramp_steps; step_s; disk_storm; burst; glitch; think }
    in
    let faults = Scenario.faults s in
    let section seed = function
      | [ on; off ] ->
          Printf.printf "Chaos schedule (%d clients, seed %d):\n" clients seed;
          print_schedule faults;
          Format.printf "%a@.@." Server.Experiment.pp_summary on;
          Format.printf "%a@.@." Server.Experiment.pp_summary off;
          Server.Report.table ~header:Server.Report.result_header
            [ Server.Report.result_row on; Server.Report.result_row off ];
          Server.Report.resilience_section [ on; off ];
          print_newline ();
          Printf.printf "  resilient   %s\n" (Server.Report.sparkline (Array.map snd on.Server.Experiment.slices));
          Printf.printf "  unprotected %s\n" (Server.Report.sparkline (Array.map snd off.Server.Experiment.slices));
          let up = 100. *. Server.Experiment.uplift on off in
          Printf.printf
            "\n  completions uplift with resilience: %+.0f%% (%d vs %d); hard errors %d vs %d\n"
            up on.Server.Experiment.total_completed off.Server.Experiment.total_completed
            on.Server.Experiment.total_errors off.Server.Experiment.total_errors
      | _ -> assert false
    in
    {
      Fanout.cells =
        (fun seed ->
          List.map
            (fun base -> { base with Server.Config.seed; faults })
            [ Server.Config.resilient (); Server.Config.default () ]);
      (* The shared catalog/templates are read-only during runs, so the
         cells may execute on different domains. *)
      run = scenario_run ~catalog ~templates s;
      section;
      report = None;
    }
  in
  Fanout.cmd
    (Cmd.info "chaos"
       ~doc:"Run a fault schedule with resilience on vs off (graceful-degradation demo).")
    Term.(
      const spec $ scenario_clients_arg d $ Fanout.warmup_arg ~default:d.warmup
      $ Fanout.measure_arg ~default:d.measure $ Fanout.slice_arg ~default:d.slice
      $ ballast_gib $ ballast_at $ ballast_hold $ ballast_steps
      $ ballast_step_s $ storm_arg $ burst_arg $ glitch_arg $ think_arg
      $ workload_arg)

let trace_cmd =
  let scenario_arg =
    Arg.(
      value
      & opt (enum [ ("server", `Server); ("figure2", `Figure2) ]) `Server
      & info [ "scenario" ]
          ~doc:
            "What to trace: $(b,server) (a short SALES run on the full \
             server) or $(b,figure2) (the paper's three-query throttling \
             example).")
  in
  let out_arg =
    Arg.(
      value
      & opt string "trace"
      & info [ "out"; "o" ] ~docv:"PREFIX"
          ~doc:"Write PREFIX.json (Chrome trace-event) and PREFIX.jsonl.")
  in
  let trace_clients_arg =
    Fanout.clients_arg ~default:12 ~doc:"Concurrent clients (server scenario only)."
  in
  let trace_measure_arg =
    Arg.(
      value & opt Fanout.pos_float 240.
      & info [ "measure" ] ~doc:"Simulated seconds (server scenario only).")
  in
  let trace_seed_arg =
    Arg.(
      value & opt int 42
      & info [ "seed" ]
          ~doc:
            "Random seed (server scenario only; $(b,figure2) always runs \
             seed 7).")
  in
  let action scenario out clients measure seed =
    let trace = Obs.Trace.create () in
    (match scenario with
    | `Figure2 -> ignore (Server.Figure2.run ~trace ())
    | `Server ->
        let cfg = { (Server.Config.default ()) with Server.Config.seed } in
        ignore
          (Server.Experiment.run ~config:cfg ~trace ~clients ~warmup:0.
             ~measure ~slice:60. ()));
    let records = Obs.Trace.records trace in
    Printf.printf "captured %d trace events (%d dropped)\n"
      (Array.length records) (Obs.Trace.dropped trace);
    (* Per-category counts. *)
    let cats = Hashtbl.create 8 in
    Array.iter
      (fun (r : Obs.Trace.record) ->
        let c = Obs.Event.category r.Obs.Trace.event in
        Hashtbl.replace cats c
          (1 + Option.value ~default:0 (Hashtbl.find_opt cats c)))
      records;
    Hashtbl.fold (fun c n acc -> (c, n) :: acc) cats []
    |> List.sort compare
    |> List.iter (fun (c, n) -> Printf.printf "  %-12s %d\n" c n);
    (* Gateway wait percentiles, from the trace. *)
    List.iter
      (fun (gate, h) ->
        Format.printf "gateway %-10s waits: %a@." gate Obs.Hist.pp_summary h)
      (Obs.Analyze.wait_histograms records);
    List.iter
      (fun (gate, peak) ->
        Printf.printf "gateway %-10s peak concurrent holders: %d\n" gate peak)
      (Obs.Analyze.max_holders records);
    let violations = Obs.Analyze.admission_violations records in
    Printf.printf "admission-order violations: %d\n" (List.length violations);
    (* Figure 2 from the trace: each query's usage staircase, and the
       gateway waits that explain its flat segments. *)
    if scenario = `Figure2 then begin
      List.iter
        (fun (qid, pts) ->
          let peak = List.fold_left (fun a (_, u) -> max a u) 0 pts in
          Printf.printf "  %-10s %d usage points, peak %s\n" qid
            (List.length pts)
            (Dbmem.Units.bytes_to_string peak))
        (Obs.Analyze.usage_points records);
      List.iter
        (fun (w : Obs.Analyze.wait) ->
          if w.finish -. w.start > 0.5 then
            Printf.printf "  %-10s blocked at %-8s %7.1fs .. %7.1fs (%s)\n"
              w.qid w.gate w.start w.finish
              (match w.outcome with
              | `Acquired -> "acquired"
              | `Timeout -> "timeout"
              | `Open -> "open"))
        (Obs.Analyze.gateway_waits records)
    end;
    let chrome = out ^ ".json" and jsonl = out ^ ".jsonl" in
    Obs.Export.chrome_to_file chrome records;
    Obs.Export.jsonl_to_file jsonl records;
    Printf.printf "wrote %s (load in chrome://tracing or https://ui.perfetto.dev) and %s\n"
      chrome jsonl
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Record a query-lifecycle trace and export it as Chrome \
          trace-event JSON + JSONL.")
    Term.(
      const action $ scenario_arg $ out_arg $ trace_clients_arg
      $ trace_measure_arg $ trace_seed_arg)


let health_cmd =
  let d = Scenario.default in
  let drain_arg =
    Arg.(
      value & opt Fanout.nonneg_float d.drain
      & info [ "drain" ]
          ~doc:"Extra seconds after clients stop, so in-flight queries can \
                finish; anything still in flight after the drain is stuck.")
  in
  let resilience_arg =
    Arg.(
      value & opt bool true
      & info [ "resilience" ]
          ~doc:"Run with the retry/degrade ladder on (false = the \
                default server, no resilience).")
  in
  let glitch_arg =
    Arg.(
      value & opt Fanout.probability d.glitch
      & info [ "glitch" ]
          ~doc:"Allocation-failure probability on the compile clerk during \
                the spike window (0 = ballast only).")
  in
  let spec clients warmup measure drain resilience glitch =
    let s = { d with clients; warmup; measure; drain; glitch } in
    let faults = Scenario.faults s in
    let config =
      if resilience then Server.Config.resilient ()
      else Server.Config.default ()
    in
    let section seed =
      List.iter (fun (r : Server.Experiment.result) ->
          Printf.printf "Chaos schedule (%d clients, seed %d, %s):\n" clients seed
            (if resilience then "resilience on" else "resilience off");
          print_schedule faults;
          Format.printf "%a@." Health.Report.pp r.health;
          let stuck = Health.Report.stuck r.health in
          Printf.printf "\n  stuck queries: %d%s\n" stuck
            (if stuck = 0 then "" else "  <-- QUERIES STUCK"))
    in
    let report oc _ =
      List.iter (fun (r : Server.Experiment.result) ->
          Format.fprintf (Format.formatter_of_out_channel oc) "%a@."
            Health.Report.pp r.health)
    in
    {
      Fanout.cells = (fun seed -> [ { config with Server.Config.seed; faults } ]);
      run = scenario_run s;
      section;
      report = Some report;
    }
  in
  Fanout.cmd
    (Cmd.info "health"
       ~doc:
         "Run the canonical chaos schedule and print the health report \
          with the error-budget table.")
    ~report:"health report"
    ~stuck:(fun (r : Server.Experiment.result) -> Health.Report.stuck r.health)
    Term.(
      const spec $ scenario_clients_arg d $ Fanout.warmup_arg ~default:d.warmup
      $ Fanout.measure_arg ~default:d.measure $ drain_arg $ resilience_arg
      $ glitch_arg)

let tenants_cmd =
  let warmup_arg = Fanout.warmup_arg ~default:400. in
  let measure_arg = Fanout.measure_arg ~default:1200. in
  let total_gib_arg =
    Arg.(
      value & opt (Fanout.gib ~zero:false) 4.
      & info [ "total-gib" ]
          ~doc:"Machine memory split across the tenant pools, GiB.")
  in
  let spec warmup measure slice total_gib =
    let open Server.Tenants in
    let total_bytes = Dbmem.Units.of_gib total_gib in
    let machine = Dbmem.Units.bytes_to_string total_bytes in
    (* Per seed: the victim alone at its pool size, the cast under the
       guaranteed arbiter, and the cast under demand-chasing arbitration
       with no guarantees. *)
    let run ?trace (seed, kind) =
      match kind with
      | `Solo ->
          solo ?trace ~victim:"victim" ~total_bytes ~seed ~warmup ~measure
            ~slice ()
      | `Isolated ->
          Server.Tenants.run ?trace ~mode:Isolated ~total_bytes ~seed ~warmup
            ~measure ~slice ()
      | `Free ->
          Server.Tenants.run ?trace ~mode:Free_for_all ~total_bytes ~seed
            ~warmup ~measure ~slice ()
    in
    let retentions = function
      | [ o_solo; o_iso; o_free ] ->
          let v = find_tenant o_solo "victim" in
          ( retention ~shared:(find_tenant o_iso "victim") ~solo:v,
            retention ~shared:(find_tenant o_free "victim") ~solo:v )
      | _ -> assert false
    in
    let columns =
      Fanout.
        [
          str "pool" (fun r -> r.rname);
          str "workload" (fun r -> workload_name r.rworkload);
          int "clients" (fun r -> r.rclients);
          float 2 "compl_per_slice" (fun r -> r.mean_per_slice);
          int "total" (fun r -> r.completed);
          int "budget_start" (fun r -> r.budget_start);
          int "budget_end" (fun r -> r.budget_end);
          int "floor" (fun r -> r.floor);
          float 3 "pool_hit" (fun r -> r.pool_hit_rate);
          float 3 "cache_hit" (fun r -> r.cache_hit_rate);
          int "errors" (fun r -> r.errors);
          int "abandoned" (fun r -> r.abandoned);
        ]
    in
    let section seed outcomes =
      Printf.printf "\nNoisy neighbour, seed %d (machine %s):\n" seed machine;
      List.iter Server.Report.tenants_section outcomes;
      let r_iso, r_free = retentions outcomes in
      Printf.printf
        "\n  victim retention vs solo: isolated %.0f%%, free-for-all %.0f%%\n"
        (100. *. r_iso) (100. *. r_free)
    in
    let report oc seed outcomes =
      let pr fmt = Printf.fprintf oc fmt in
      pr "noisy-neighbour report, seed %d, machine %s\n" seed machine;
      List.iter
        (fun o ->
          pr "[%s]\n" (mode_name o.omode);
          Fanout.csv oc columns o.tenants;
          if o.omode <> Static then
            pr "arbiter ticks=%d rebalances=%d moved=%d reclaimed=%d scarce=%b\n"
              o.arb_ticks o.arb_rebalances o.arb_moved o.arb_reclaimed
              o.arb_scarce)
        outcomes;
      let r_iso, r_free = retentions outcomes in
      pr "victim_retention isolated=%.3f free_for_all=%.3f\n" r_iso r_free
    in
    {
      Fanout.cells =
        (fun seed -> List.map (fun k -> (seed, k)) [ `Solo; `Isolated; `Free ]);
      run;
      section;
      report = Some report;
    }
  in
  Fanout.cmd
    (Cmd.info "tenants"
       ~doc:
         "Multi-tenant noisy-neighbour experiment: victim solo vs shared \
          with arbiter isolation vs shared free-for-all.")
    ~report:"tenant report"
    Term.(const spec $ warmup_arg $ measure_arg $ slice_arg $ total_gib_arg)

(* Flags that [shards], [storm] and [cache] share; each command defaults
   them from its scenario's [default_config]. *)
let shards_arg ~default =
  Arg.(value & opt int default & info [ "shards" ] ~doc:"Number of shards (failure domains).")

let router_clients_arg ~default =
  Fanout.clients_arg ~default ~doc:"Concurrent clients across the router."

let variants_arg ~default =
  Arg.(
    value & opt Fanout.pos_int default
    & info [ "variants" ]
        ~doc:"Parameterized (cacheable) query templates in the workload.")

let mean_think_arg ~default =
  Fanout.think_arg ~default ~doc:"Client think time, seconds (mean)."

let gib_of_bytes b = Dbmem.Units.to_mib b /. 1024.

let total_gib_arg ~bytes =
  Arg.(
    value
    & opt (Fanout.gib ~zero:false) (gib_of_bytes bytes)
    & info [ "total-gib" ] ~doc:"Machine memory split across the shards, GiB.")

let shards_cmd =
  let open Server.Shards in
  let d = default_config in
  let shards_arg = shards_arg ~default:d.c_shards in
  let clients_arg = router_clients_arg ~default:d.c_clients in
  let variants_arg = variants_arg ~default:d.c_variants in
  let think_arg = mean_think_arg ~default:d.c_think in
  let warmup_arg = Fanout.warmup_arg ~default:d.c_warmup in
  let measure_arg = Fanout.measure_arg ~default:d.c_measure in
  let slice_arg = Fanout.slice_arg ~default:d.c_slice in
  let total_gib_arg = total_gib_arg ~bytes:d.c_total in
  let hedge_arg =
    Arg.(
      value & flag
      & info [ "hedge" ]
          ~doc:"Hedge submissions whose home shard is browned out.")
  in
  let rolling_arg =
    Arg.(
      value & flag
      & info [ "rolling" ]
          ~doc:"Also run the staggered rolling-restart schedule.")
  in
  let spec shards clients variants think warmup measure slice total_gib hedge
      rolling =
    let total_bytes = Dbmem.Units.of_gib total_gib in
    let machine = Dbmem.Units.bytes_to_string total_bytes in
    (* Per seed: the healthy baseline, then crash-failover with gateways
       on and off — the off cell shows what the recompilation storm costs
       without compile throttling. *)
    let kinds =
      [ (No_fault, true); (Crash_failover, true); (Crash_failover, false) ]
      @ (if rolling then [ (Rolling_restart, true) ] else [])
      @ if hedge then [ (Brownout, true) ] else []
    in
    let base =
      {
        default_config with
        c_shards = shards;
        c_clients = clients;
        c_variants = variants;
        c_think = think;
        c_warmup = warmup;
        c_measure = measure;
        c_slice = slice;
        c_total = total_bytes;
        c_hedge = hedge;
      }
    in
    let cell c_seed (c_schedule, c_gateways) =
      { base with c_seed; c_schedule; c_gateways }
    in
    let columns =
      Fanout.
        [
          str "shard" (fun r -> r.sh_name);
          str "state" (fun r -> r.sh_final_state);
          int "crashes" (fun r -> r.sh_crashes);
          int "accepted" (fun r -> r.sh_accepted);
          int "finished" (fun r -> r.sh_finished);
          int "lost" (fun r -> r.sh_lost);
          int "refused" (fun r -> r.sh_refused);
          int "recompiles" (fun r -> r.sh_recompiles);
          float 3 "cache_hit" (fun r -> r.sh_cache_hit_rate);
          int "budget_end" (fun r -> r.sh_budget_end);
        ]
    in
    let section seed outcomes =
      let baseline = List.hd outcomes in
      Printf.printf "\nSharded failover, seed %d (machine %s, %d shards):\n"
        seed machine shards;
      List.iter
        (fun o ->
          if o.o_config.c_schedule = No_fault then Server.Report.shards_section o
          else Server.Report.shards_section ~baseline o)
        outcomes;
      let find gateways =
        List.find_opt
          (fun o ->
            o.o_config.c_schedule = Crash_failover
            && o.o_config.c_gateways = gateways)
          outcomes
      in
      let ret o = 100. *. retention ~fault:o ~no_fault:baseline in
      match (find true, find false) with
      | Some on, Some off ->
          Printf.printf
            "\n  crash-failover retention vs no-fault: gateways on %.0f%%, \
             off %.0f%%\n"
            (ret on) (ret off)
      | _ -> ()
    in
    let report oc seed outcomes =
      let pr fmt = Printf.fprintf oc fmt in
      let baseline = List.hd outcomes in
      pr "sharded-failover report, seed %d, machine %s, %d shards\n" seed
        machine shards;
      List.iter
        (fun o ->
          pr "[%s gateways=%b hedge=%b]\n"
            (schedule_name o.o_config.c_schedule)
            o.o_config.c_gateways o.o_config.c_hedge;
          Fanout.csv oc columns o.shard_results;
          pr
            "router submitted=%d ok=%d failed=%d rejected=%d spills=%d \
             hedges=%d hedge_wins=%d retries=%d p50_ms=%.1f p99_ms=%.1f\n"
            o.submitted o.ok o.failed o.rejected o.spills o.hedges
            o.hedge_wins o.retries o.p50_ms o.p99_ms;
          pr
            "arbiter ticks=%d rebalances=%d moved=%d reclaimed=%d \
             max_budget_sum=%d\n"
            o.arb_ticks o.arb_rebalances o.arb_moved o.arb_reclaimed
            o.max_budget_sum;
          if o.o_config.c_schedule <> No_fault then
            pr "retention=%.3f\n" (retention ~fault:o ~no_fault:baseline))
        outcomes
    in
    {
      Fanout.cells =
        (fun seed ->
          let cfgs = List.map (cell seed) kinds in
          List.iter validate cfgs;
          cfgs);
      run = Server.Shards.run;
      section;
      report = Some report;
    }
  in
  Fanout.cmd
    (Cmd.info "shards"
       ~doc:
         "Sharded scale-out experiment: health-aware routing over N failure \
          domains, crash-failover with cold-cache recompilation storms, \
          with and without compile gateways.")
    ~report:"shard report"
    ~trace:
      ( "Trace the crash-failover gateways-on cell in the same run and \
         write PREFIX-seedN.json Chrome traces (per-shard lifecycle + \
         budget counters, gateway waits).",
        fun (c : Server.Shards.config) ->
          c.c_schedule = Server.Shards.Crash_failover && c.c_gateways )
    Term.(
      const spec $ shards_arg $ clients_arg $ variants_arg $ think_arg
      $ warmup_arg $ measure_arg $ slice_arg $ total_gib_arg $ hedge_arg
      $ rolling_arg)

let storm_cmd =
  let open Server.Storms in
  let d = default_config in
  let shards_arg = shards_arg ~default:d.s_shards in
  let clients_arg = router_clients_arg ~default:d.s_clients in
  let variants_arg = variants_arg ~default:d.s_variants in
  let think_arg = mean_think_arg ~default:d.s_think in
  let warmup_arg = Fanout.warmup_arg ~default:d.s_warmup in
  let measure_arg = Fanout.measure_arg ~default:d.s_measure in
  let slice_arg = Fanout.slice_arg ~default:d.s_slice in
  let total_gib_arg = total_gib_arg ~bytes:d.s_total in
  let defenses_arg =
    Arg.(
      value
      & opt
          (enum [ ("on", [ true ]); ("off", [ false ]); ("both", [ true; false ]) ])
          [ true; false ]
      & info [ "defenses" ]
          ~doc:
            "Defense stack: $(b,on), $(b,off), or $(b,both) (the A/B \
             comparison).")
  in
  let schedule_arg =
    Arg.(
      value
      & opt
          (enum
             [
               ("crash", [ Cold_crash ]);
               ("invalidation", [ Mass_invalidation ]);
               ("both", [ Cold_crash; Mass_invalidation ]);
             ])
          [ d.s_schedule ]
      & info [ "schedule" ]
          ~doc:
            "Storm trigger: $(b,crash) (shard 1 rejoins cold), \
             $(b,invalidation) (every plan cache flushed in place), or \
             $(b,both).")
  in
  let spec shards clients variants think warmup measure slice total_gib arms
      schedules =
    let total_bytes = Dbmem.Units.of_gib total_gib in
    let machine = Dbmem.Units.bytes_to_string total_bytes in
    let base =
      {
        default_config with
        s_shards = shards;
        s_clients = clients;
        s_variants = variants;
        s_think = think;
        s_warmup = warmup;
        s_measure = measure;
        s_slice = slice;
        s_total = total_bytes;
      }
    in
    let cells s_seed =
      let cfgs =
        List.concat_map
          (fun s_schedule ->
            List.map
              (fun s_defenses -> { base with s_seed; s_schedule; s_defenses })
              arms)
          schedules
      in
      List.iter validate cfgs;
      cfgs
    in
    (* Each schedule's defended/undefended pair, when both arms ran. *)
    let pairs outcomes =
      List.filter_map
        (fun sch ->
          let find d =
            List.find_opt
              (fun o -> o.o_config.s_schedule = sch && o.o_config.s_defenses = d)
              outcomes
          in
          match (find true, find false) with
          | Some defended, Some undefended -> Some (sch, defended, undefended)
          | _ -> None)
        schedules
    in
    let columns =
      Fanout.
        [
          str "schedule" (fun o -> schedule_name o.o_config.s_schedule);
          bool "defenses" (fun o -> o.o_config.s_defenses);
          float 2 "pre_rate" (fun o -> o.pre_rate);
          float 2 "post_rate" (fun o -> o.post_rate);
          str "recovery_s" (fun o ->
              if o.recovered then Printf.sprintf "%.1f" o.recovery_s else "inf");
          bool "recovered" (fun o -> o.recovered);
          float 3 "retry_amp" (fun o -> o.retry_amp);
          int "dup_compiles" (fun o -> o.dup_compiles);
          int "coalesced" (fun o -> o.coalesced);
          int "storms" (fun o -> o.storms_detected);
          int "lifo_shifts" (fun o -> o.lifo_shifts);
          int "budget_denials" (fun o -> o.budget_denials);
          int "submitted" (fun o -> o.submitted);
          int "ok" (fun o -> o.ok);
          int "failed" (fun o -> o.failed);
          int "rejected" (fun o -> o.rejected);
          int "retries" (fun o -> o.retries);
          float 1 "p50_ms" (fun o -> o.p50_ms);
          float 1 "p99_ms" (fun o -> o.p99_ms);
          int "abandoned" (fun o -> o.cl_abandoned);
        ]
    in
    let section seed outcomes =
      Printf.printf
        "\nCold-cache storm, seed %d (machine %s, %d shards, %d clients):\n"
        seed machine shards clients;
      List.iter Server.Report.storms_section outcomes;
      List.iter
        (fun (sch, defended, undefended) ->
          Printf.printf "\n  [%s]" (schedule_name sch);
          Server.Report.storms_verdict ~defended ~undefended)
        (pairs outcomes)
    in
    let report oc seed outcomes =
      Printf.fprintf oc
        "storm report, seed %d, machine %s, %d shards, %d clients\n" seed
        machine shards clients;
      Fanout.csv oc columns outcomes;
      List.iter
        (fun (sch, defended, undefended) ->
          Printf.fprintf oc "%s defense_win=%b\n" (schedule_name sch)
            (faster_recovery ~defended ~undefended))
        (pairs outcomes)
    in
    { Fanout.cells; run = Server.Storms.run; section; report = Some report }
  in
  Fanout.cmd
    (Cmd.info "storm"
       ~doc:
         "Metastable-failure experiment: cold-cache storms (crash-failover \
          or mass invalidation) with the defense stack — singleflight, \
          retry budgets, adaptive queues — on vs off.")
    ~report:"storm report"
    ~trace:
      ( "Trace the defended first-schedule cell (the first cell, under \
         $(b,--defenses off)) in the same run and write PREFIX-seedN.json \
         Chrome traces (storm begin/end instants, singleflight coalesces, \
         queue-discipline shifts, gateway waits).",
        fun (c : Server.Storms.config) -> c.s_defenses )
    Term.(
      const spec $ shards_arg $ clients_arg $ variants_arg $ think_arg
      $ warmup_arg $ measure_arg $ slice_arg $ total_gib_arg $ defenses_arg
      $ schedule_arg)

let cache_cmd =
  let open Server.Cached in
  let d = default_config in
  let mode_arg =
    let all = [ Cache_off; Cache_fixed; Cache_brokered ] in
    Arg.(
      value
      & opt
          (enum
             [
               ("all", all);
               ("off", [ Cache_off ]);
               ("fixed", [ Cache_fixed ]);
               ("brokered", [ Cache_brokered ]);
             ])
          all
      & info [ "mode" ]
          ~doc:
            "Cache mode to run: $(b,off), $(b,fixed), $(b,brokered), or \
             $(b,all) (the three-way comparison).")
  in
  let clients_arg =
    Fanout.clients_arg ~default:d.k_clients ~doc:"Number of concurrent clients."
  in
  let think_arg = mean_think_arg ~default:d.k_think in
  let ratio_arg =
    Arg.(
      value & opt Fanout.probability d.k_ratio
      & info [ "param-ratio" ]
          ~doc:
            "Fraction of traffic replaying parameterized (cacheable) \
             statements; the rest is uniquified ad-hoc.")
  in
  let variants_arg =
    Arg.(
      value & opt Fanout.pos_int d.k_variants
      & info [ "variants" ] ~doc:"Distinct parameterized statements.")
  in
  let writers_arg =
    Arg.(
      value & opt int d.k_writers
      & info [ "writers" ]
          ~doc:"Writer sessions invalidating cached results by relation.")
  in
  let warmup_arg = Fanout.warmup_arg ~default:d.k_warmup in
  let measure_arg = Fanout.measure_arg ~default:d.k_measure in
  let slice_arg = Fanout.slice_arg ~default:d.k_slice in
  let memory_gib_arg =
    Arg.(
      value
      & opt (Fanout.gib ~zero:false) (gib_of_bytes d.k_memory)
      & info [ "memory-gib" ] ~doc:"Machine memory, GiB.")
  in
  let cache_mib_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "cache-mib" ]
          ~doc:
            (Printf.sprintf
               "Cache byte budget, MiB (fixed mode) / broker cap (brokered \
                mode). Default %.0f. Conflicts with $(b,--mode off)."
               (Dbmem.Units.to_mib d.k_cache_bytes)))
  in
  let ttl_arg =
    Arg.(
      value & opt Fanout.nonneg_float d.k_ttl
      & info [ "ttl" ] ~doc:"Cached-entry lifetime, seconds (0 = no expiry).")
  in
  let ballast_gib_arg =
    Arg.(
      value & opt (Fanout.gib ~zero:true) d.k_ballast_gib
      & info [ "ballast-gib" ]
          ~doc:
            "Inject a memory ballast mid-window (GiB): the pressure under \
             which a brokered cache shrinks and a fixed one squeezes the \
             engine.")
  in
  let flash_arg =
    Arg.(
      value & opt int 0
      & info [ "flash" ]
          ~doc:
            "Flash crowd: this many extra clients appear halfway through \
             the measure window for a fifth of it (0 = none).")
  in
  let peak_load_arg =
    Arg.(
      value & opt Fanout.at_least_one 1.
      & info [ "peak-load" ]
          ~doc:
            "Diurnal curve: load swings sinusoidally up to this multiple \
             of the baseline over one measure-length cycle (1 = flat).")
  in
  let spec modes clients think ratio variants writers warmup measure slice
      memory_gib cache_mib ttl ballast_gib flash peak_load =
    (* Structured conflicts, caught before any simulation runs. *)
    (match (modes, cache_mib) with
    | [ Cache_off ], Some _ ->
        Fanout.fail
          "--cache-mib conflicts with --mode off (cache-off runs no cache)"
    | _ -> ());
    if flash < 0 then Fanout.fail "--flash below 0";
    let base =
      {
        default_config with
        k_clients = clients;
        k_think = think;
        k_ratio = ratio;
        k_variants = variants;
        k_writers = writers;
        k_warmup = warmup;
        k_measure = measure;
        k_slice = slice;
        k_memory = Dbmem.Units.of_gib memory_gib;
        k_cache_bytes =
          Option.fold cache_mib ~none:d.k_cache_bytes ~some:Dbmem.Units.mib;
        k_ttl = ttl;
        k_ballast_gib = ballast_gib;
        k_diurnal =
          (if peak_load > 1. then
             Some { Workload.Mix.period = measure; peak_load }
           else None);
        k_flash =
          (if flash > 0 then
             [
               {
                 Workload.Mix.at = warmup +. (0.5 *. measure);
                 duration = 0.2 *. measure;
                 clients = flash;
                 think = think /. 4.;
               };
             ]
           else []);
      }
    in
    let cells k_seed =
      let cfgs = List.map (fun k_mode -> { base with k_mode; k_seed }) modes in
      List.iter validate cfgs;
      cfgs
    in
    let find mode = List.find_opt (fun o -> o.o_config.k_mode = mode) in
    let columns =
      Fanout.
        [
          str "mode" (fun o -> mode_name o.o_config.k_mode);
          float 2 "compl_per_slice" (fun o -> o.mean_per_slice);
          int "completed" (fun o -> o.completed);
          int "requests" (fun o -> o.requests);
          int "hits" (fun o -> o.hits);
          int "misses" (fun o -> o.misses);
          int "bypasses" (fun o -> o.bypasses);
          float 3 "hit_rate" (fun o -> o.cache_hit_rate);
          int "stores" (fun o -> o.stores);
          int "refused" (fun o -> o.refused);
          int "evictions" (fun o -> o.evictions);
          int "expired" (fun o -> o.expired);
          int "invalidated" (fun o -> o.invalidated);
          int "shrink_events" (fun o -> o.shrink_events);
          int "shrink_freed" (fun o -> o.shrink_freed);
          int "resident_end" (fun o -> o.resident_end);
          int "resident_peak" (fun o -> o.resident_peak);
          int "budget_end" (fun o -> o.budget_end);
          int "gw_acquires" (fun o -> o.gw_acquires);
          int "gw_timeouts" (fun o -> o.gw_timeouts);
          float 3 "gw_wait_mean_s" (fun o -> o.gw_wait_mean_s);
          int "compiles" (fun o -> o.compiles);
          int "plan_hits" (fun o -> o.plan_hits);
          float 0 "compile_peak_max" (fun o -> o.compile_peak_max);
          int "ooms" (fun o -> o.ooms);
          float 1 "p50_ms" (fun o -> o.p50_ms);
          float 1 "p99_ms" (fun o -> o.p99_ms);
          int "abandoned" (fun o -> o.cl_abandoned);
        ]
    in
    let section seed outcomes =
      Printf.printf
        "\nMid-tier cache, seed %d (machine %.0f GiB, %.0f%% parameterized):\n"
        seed memory_gib (100. *. ratio);
      let baseline = find Cache_off outcomes in
      List.iter
        (fun o ->
          match baseline with
          | Some b when o.o_config.k_mode <> Cache_off ->
              Server.Report.cached_section ~baseline:b o
          | _ -> Server.Report.cached_section o)
        outcomes;
      if List.length outcomes > 1 then Server.Report.cached_comparison outcomes
    in
    let report oc seed outcomes =
      Printf.fprintf oc "mid-tier cache report, seed %d, machine %.0f GiB\n"
        seed memory_gib;
      Fanout.csv oc columns outcomes;
      match (find Cache_off outcomes, find Cache_brokered outcomes) with
      | Some off, Some brokered ->
          Printf.fprintf oc "brokered_uplift=%.3f gw_drop=%d\n"
            (uplift brokered ~over:off)
            (off.gw_acquires - brokered.gw_acquires)
      | _ -> ()
    in
    { Fanout.cells; run = Server.Cached.run; section; report = Some report }
  in
  Fanout.cmd
    (Cmd.info "cache"
       ~doc:
         "Mid-tier statement/result cache under mixed parameterized/ad-hoc \
          traffic: cache-off vs fixed vs broker-governed, with optional \
          memory ballast, diurnal curve and flash crowds.")
    ~report:"cache report"
    ~trace:
      ( "Trace the brokered cell (the only cell, under $(b,--mode off) or \
         $(b,--mode fixed)) in the same run and write PREFIX-seedN.json \
         Chrome traces (cache residency/hit-rate counters, \
         lookup/store/invalidate/shrink instants, gateway waits).",
        fun (c : Server.Cached.config) -> c.k_mode = Server.Cached.Cache_brokered )
    Term.(
      const spec $ mode_arg $ clients_arg $ think_arg $ ratio_arg
      $ variants_arg $ writers_arg $ warmup_arg $ measure_arg $ slice_arg
      $ memory_gib_arg $ cache_mib_arg $ ttl_arg $ ballast_gib_arg $ flash_arg
      $ peak_load_arg)

let info_cmd =
  let action () =
    let cfg = Server.Config.default () in
    Format.printf "%a@.@." Server.Config.pp cfg;
    Format.printf "%a@." Optimizer.Catalog.pp (Workload.Sales.catalog ())
  in
  Cmd.v (Cmd.info "info" ~doc:"Print the server configuration and SALES catalog.")
    Term.(const action $ const ())

(* Condense cmdliner's multi-line complaint (message + usage dump + help
   hint) into one structured stderr line, so scripts and CI logs get a
   single greppable "dbsim: error: ..." instead of a wrapped paragraph. *)
let one_line_error raw =
  let lines = String.split_on_char '\n' raw in
  let is_noise l =
    let l = String.trim l in
    String.length l = 0
    || (String.length l >= 6 && String.sub l 0 6 = "Usage:")
    || (String.length l >= 4 && String.sub l 0 4 = "Try ")
  in
  let msg =
    List.filter (fun l -> not (is_noise l)) lines
    |> List.map String.trim |> String.concat " "
  in
  let msg =
    let p = "dbsim: " in
    if
      String.length msg >= String.length p
      && String.sub msg 0 (String.length p) = p
    then String.sub msg (String.length p) (String.length msg - String.length p)
    else msg
  in
  Printf.sprintf "dbsim: error: %s (try 'dbsim --help')" msg

let () =
  let doc = "Simulated DBMS reproducing CIDR'07 query-compilation throttling" in
  let group =
    Cmd.group (Cmd.info "dbsim" ~doc)
      [ run_cmd; compare_cmd; sweep_cmd; paper_cmd; chaos_cmd; health_cmd; tenants_cmd;
        shards_cmd; cache_cmd; storm_cmd; trace_cmd; info_cmd; verbose_cmd;
        sql_cmd ]
  in
  let errbuf = Buffer.create 256 in
  let err = Format.formatter_of_buffer errbuf in
  let code = Cmd.eval ~err group in
  Format.pp_print_flush err ();
  if Buffer.length errbuf > 0 then
    if code = Cmd.Exit.cli_error then
      prerr_endline (one_line_error (Buffer.contents errbuf))
    else prerr_string (Buffer.contents errbuf);
  exit code
