(* Reproduction harness: one entry per figure/table of the paper plus the
   in-text claims and the ablations listed in DESIGN.md.

     dune exec bench/main.exe            # everything
     dune exec bench/main.exe -- figure3 overhead ...
     dune exec bench/main.exe -- --jobs 4 client-sweep   # fan cells over 4 domains

   Paper: Baryshnikov et al., "Managing Query Compilation Memory
   Consumption to Improve DBMS Throughput", CIDR 2007. *)

let mib = Dbmem.Units.mib

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* Standard experiment windows. Figures use a long measured window (18
   slices of 200 s); secondary experiments use a shorter one. *)
let warmup = 600.
let fig_measure = 3600.
let fig_slice = 200.
let quick_measure = 1800.

let throttled_config seed =
  { (Server.Config.default ()) with Server.Config.seed }

let unthrottled_config seed =
  { (Server.Config.unthrottled ()) with Server.Config.seed }

(* Worker-domain count for experiment grids: --jobs N, or DBSIM_JOBS, or
   sequential. Every run is an independent cell with its own engine and
   RNG, and run_grid returns results in submission order, so the printed
   output is identical at any job count. *)
let jobs = ref 1

let run_grid cells = Server.Experiment.run_grid ~jobs:!jobs cells

let pair_cells ~clients ~measure ~seed =
  List.map
    (fun config () ->
      Server.Experiment.run ~config ~clients ~warmup ~measure ~slice:fig_slice ())
    [ throttled_config seed; unthrottled_config seed ]

let run_pair ~clients ~measure ~seed =
  match run_grid (pair_cells ~clients ~measure ~seed) with
  | [ on; off ] -> (on, off)
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* Figure 1: the monitor ladder *)

let figure1 () =
  section "Figure 1 - memory monitors (gateway ladder)";
  let cfg = Qcore.Throttle_config.default () in
  Qcore.Throttle_config.validate cfg ~cpus:8;
  Format.printf "%a@." Qcore.Throttle_config.pp cfg;
  print_endline
    "  (thresholds increase and concurrency decreases down the ladder;\n\
    \   compilations below the first threshold run unthrottled, and the\n\
    \   medium/big thresholds are recomputed from the broker target as\n\
    \   target * F / S while the system is under pressure)"

(* ------------------------------------------------------------------ *)
(* Figure 2: compilation throttling trace *)

(* Set by the --trace flag: figure2 additionally records a full trace,
   renders the figure from the trace stream, and writes Chrome + JSONL
   exports next to the working directory. *)
let trace_requested = ref false

let figure2 () =
  section "Figure 2 - compilation throttling example (memory vs time)";
  let trace =
    if !trace_requested then Obs.Trace.create () else Obs.Trace.null
  in
  let r = Server.Figure2.run ~trace () in
  let series = r.Server.Figure2.series in
  let n = Sim.Series.length series.(0) in
  (* Trim trailing all-zero samples (everything finished). *)
  let value arr k =
    if Sim.Series.length arr > k then snd (Sim.Series.nth arr k) else 0.
  in
  let last_active = ref 0 in
  for k = 0 to n - 1 do
    if value series.(0) k +. value series.(1) k +. value series.(2) k > 0. then
      last_active := k
  done;
  let n = min n (!last_active + 2) in
  let rows = ref [] in
  for k = n - 1 downto 0 do
    let t, v1 = Sim.Series.nth series.(0) k in
    let v2 = value series.(1) k in
    let v3 = value series.(2) k in
    if k mod 2 = 0 then
      rows :=
        [ Printf.sprintf "%.0f" t;
          Printf.sprintf "%.1f" (v1 /. 1048576.);
          Printf.sprintf "%.1f" (v2 /. 1048576.);
          Printf.sprintf "%.1f" (v3 /. 1048576.) ]
        :: !rows
  done;
  Server.Report.table ~header:[ "t (s)"; "Q1 (MiB)"; "Q2 (MiB)"; "Q3 (MiB)" ] !rows;
  let spark s =
    let _, values = Sim.Series.to_arrays s in
    Server.Report.sparkline (Array.sub values 0 (min n (Array.length values)))
  in
  Printf.printf "  Q1 %s\n  Q2 %s\n  Q3 %s\n" (spark series.(0)) (spark series.(1)) (spark series.(2));
  print_endline
    "  (flat segments are compilations blocked at a monitor; memory drops\n\
    \   to zero when a compilation completes and frees its memory)";
  if !trace_requested then begin
    let records = Obs.Trace.records trace in
    (* Render the figure directly from the trace stream: the per-query
       usage staircase and the exact gateway-wait intervals that explain
       its flat segments. *)
    Printf.printf "\n  from the trace (%d events):\n" (Array.length records);
    List.iter
      (fun (qid, pts) ->
        let peak = List.fold_left (fun a (_, u) -> max a u) 0 pts in
        Printf.printf "    %-10s %d usage points, peak %s\n" qid
          (List.length pts)
          (Dbmem.Units.bytes_to_string peak))
      (Obs.Analyze.usage_points records);
    List.iter
      (fun (w : Obs.Analyze.wait) ->
        if w.Obs.Analyze.finish -. w.Obs.Analyze.start > 0.5 then
          Printf.printf "    %-10s blocked at %-8s %7.1fs .. %7.1fs (%s)\n"
            w.Obs.Analyze.qid w.Obs.Analyze.gate w.Obs.Analyze.start
            w.Obs.Analyze.finish
            (match w.Obs.Analyze.outcome with
            | `Acquired -> "acquired"
            | `Timeout -> "timeout"
            | `Open -> "open"))
      (Obs.Analyze.gateway_waits records);
    Obs.Export.chrome_to_file "figure2-trace.json" records;
    Obs.Export.jsonl_to_file "figure2-trace.jsonl" records;
    Printf.printf
      "  wrote figure2-trace.json (chrome://tracing, Perfetto) and \
       figure2-trace.jsonl\n"
  end

(* ------------------------------------------------------------------ *)
(* Figures 3-5: throughput at 30/35/40 clients *)

let throughput_figure ~figure ~clients =
  section
    (Printf.sprintf "Figure %d - throughput, %d clients (completions per %.0fs slice)"
       figure clients fig_slice);
  let on, off = run_pair ~clients ~measure:fig_measure ~seed:42 in
  Server.Report.figure_series
    ~title:(Printf.sprintf "%d clients, warm-up %.0fs excluded" clients warmup)
    ~throttled:on.Server.Experiment.slices
    ~unthrottled:off.Server.Experiment.slices;
  Server.Report.table ~header:Server.Report.result_header
    [ Server.Report.result_row on; Server.Report.result_row off ];
  (on, off)

let figure3 () = ignore (throughput_figure ~figure:3 ~clients:30)
let figure4 () = ignore (throughput_figure ~figure:4 ~clients:35)
let figure5 () = ignore (throughput_figure ~figure:5 ~clients:40)

(* ------------------------------------------------------------------ *)
(* T1: compile memory, SALES vs TPC-H *)

let compile_memory () =
  section "T1 - compile memory: SALES vs TPC-H (paper: 1-2 orders of magnitude)";
  let measure cat templates =
    let rng = Sim.Rng.create 5 in
    List.map
      (fun t ->
        let q = Workload.Template.instance rng t ~id:1 in
        match
          Optimizer.Cascades.optimize ~env:Optimizer.Env.null
            Optimizer.Cost.default cat q
        with
        | Ok r ->
            ( t.Workload.Template.tname,
              Optimizer.Query.n_rels q - 1,
              r.Optimizer.Cascades.stats.Optimizer.Cascades.allocated_bytes,
              r.Optimizer.Cascades.stats.Optimizer.Cascades.tasks )
        | Error _ -> (t.Workload.Template.tname, 0, 0, 0))
      templates
  in
  let sales = measure (Workload.Sales.catalog ()) (Workload.Sales.templates ()) in
  let tpch = measure (Workload.Tpch.catalog ()) (Workload.Tpch.templates ()) in
  let rows group entries =
    List.map
      (fun (name, joins, bytes, tasks) ->
        [ group; name; string_of_int joins; Dbmem.Units.bytes_to_string bytes;
          string_of_int tasks ])
      entries
  in
  Server.Report.table
    ~header:[ "workload"; "template"; "joins"; "compile memory"; "search tasks" ]
    (rows "SALES" sales @ rows "TPC-H" tpch);
  let mean entries =
    List.fold_left (fun acc (_, _, b, _) -> acc +. float_of_int b) 0. entries
    /. float_of_int (List.length entries)
  in
  let ratio = mean sales /. mean tpch in
  Printf.printf
    "  mean compile memory: SALES %s, TPC-H %s -> ratio %.0fx (paper: 10-100x)\n"
    (Dbmem.Units.bytes_to_string (int_of_float (mean sales)))
    (Dbmem.Units.bytes_to_string (int_of_float (mean tpch)))
    ratio

(* ------------------------------------------------------------------ *)
(* T2: client sweep *)

let client_sweep () =
  section "T2 - client sweep (paper: max throughput at 30 clients)";
  let cells =
    List.concat_map
      (fun clients -> pair_cells ~clients ~measure:quick_measure ~seed:42)
      [ 10; 20; 25; 30; 35; 40; 45 ]
  in
  let rows = List.map Server.Report.result_row (run_grid cells) in
  Server.Report.table ~header:Server.Report.result_header rows

(* ------------------------------------------------------------------ *)
(* T3: reliability *)

let reliability () =
  section "T3 - reliability (resource errors and first-attempt success)";
  let cells =
    List.concat_map
      (fun clients -> pair_cells ~clients ~measure:quick_measure ~seed:42)
      [ 30; 35; 40 ]
  in
  let row (r : Server.Experiment.result) =
    let c = r.Server.Experiment.client_stats in
    let first_attempt =
      if c.Workload.Client.submitted = 0 then 0.
      else
        float_of_int c.Workload.Client.succeeded
        /. float_of_int c.Workload.Client.attempts
    in
    [
      string_of_int r.Server.Experiment.clients;
      (if r.Server.Experiment.throttled then "on" else "off");
      string_of_int r.Server.Experiment.total_errors;
      String.concat " "
        (List.filter_map
           (fun (k, n) -> if n > 0 then Some (Printf.sprintf "%s=%d" k n) else None)
           r.Server.Experiment.errors);
      Printf.sprintf "%.0f%%" (100. *. first_attempt);
      string_of_int c.Workload.Client.abandoned;
    ]
  in
  let rows = List.map row (run_grid cells) in
  Server.Report.table
    ~header:[ "clients"; "throttle"; "errors"; "by kind"; "attempt success"; "abandoned" ]
    rows

(* ------------------------------------------------------------------ *)
(* T4: mechanism overhead (bechamel) *)

let overhead () =
  section "T4 - mechanism overhead (paper: \"extremely small\")";
  (* Broker tick over four components. *)
  let broker_tick =
    let eng = Sim.Engine.create () in
    let m = Dbmem.Manager.create ~total:(Dbmem.Units.gib 4) () in
    let broker = Qcore.Broker.create eng m in
    List.iter
      (fun name ->
        let clerk = Dbmem.Manager.create_clerk m name in
        Dbmem.Manager.alloc_exn clerk (mib 100);
        ignore (Qcore.Broker.register broker ~name ~clerk ()))
      [ "bufpool"; "plancache"; "compile"; "execution" ];
    fun () -> Qcore.Broker.tick broker
  in
  (* Clerk allocation round trip. *)
  let clerk_alloc =
    let m = Dbmem.Manager.create ~total:(Dbmem.Units.gib 4) () in
    let clerk = Dbmem.Manager.create_clerk m "bench" in
    fun () ->
      Dbmem.Manager.alloc_exn clerk 4096;
      Dbmem.Manager.free clerk 4096
  in
  (* Gateway acquire/release (uncontended fast path). *)
  let monitor_pair =
    let eng = Sim.Engine.create () in
    let monitor = Qcore.Monitor.create eng ~name:"bench" ~slots:8 ~timeout:100. () in
    fun () ->
      (match Qcore.Monitor.acquire monitor () with
      | Ok () -> ()
      | Error `Timeout -> assert false);
      Qcore.Monitor.release monitor
  in
  (* Governed allocation below the first threshold (the common case). *)
  let governed_alloc =
    let eng = Sim.Engine.create () in
    let m = Dbmem.Manager.create ~total:(Dbmem.Units.gib 4) () in
    let clerk = Dbmem.Manager.create_clerk m "compile" in
    let gov =
      Qcore.Compile_gov.create eng m ~clerk ~cpus:8
        ~config:(Qcore.Throttle_config.default ()) ~enabled:true ()
    in
    let session = Qcore.Compile_gov.begin_compile gov in
    fun () ->
      (match Qcore.Compile_gov.alloc session 512 with
      | Ok () -> ()
      | Error _ -> assert false);
      Qcore.Compile_gov.free session 512
  in
  (* A full governed compilation crossing the whole ladder. *)
  let full_ladder =
    let eng = Sim.Engine.create () in
    let m = Dbmem.Manager.create ~total:(Dbmem.Units.gib 16) () in
    let clerk = Dbmem.Manager.create_clerk m "compile" in
    let gov =
      Qcore.Compile_gov.create eng m ~clerk ~cpus:8
        ~config:(Qcore.Throttle_config.default ()) ~enabled:true ()
    in
    fun () ->
      let s = Qcore.Compile_gov.begin_compile gov in
      (match Qcore.Compile_gov.alloc s (mib 600) with
      | Ok () -> ()
      | Error _ -> assert false);
      Qcore.Compile_gov.end_compile s
  in
  let trend_step =
    let t = Qcore.Trend.create ~window:10 () in
    let clock = ref 0. in
    fun () ->
      clock := !clock +. 1.;
      Qcore.Trend.observe t ~time:!clock 42.;
      ignore (Qcore.Trend.predict t ~horizon:5.)
  in
  let tests =
    Bechamel.Test.make_grouped ~name:"qcore"
      [
        Bechamel.Test.make ~name:"broker tick (4 components)"
          (Bechamel.Staged.stage broker_tick);
        Bechamel.Test.make ~name:"clerk alloc+free" (Bechamel.Staged.stage clerk_alloc);
        Bechamel.Test.make ~name:"gateway acquire+release"
          (Bechamel.Staged.stage monitor_pair);
        Bechamel.Test.make ~name:"governed alloc (below ladder)"
          (Bechamel.Staged.stage governed_alloc);
        Bechamel.Test.make ~name:"full ladder compile begin/end"
          (Bechamel.Staged.stage full_ladder);
        Bechamel.Test.make ~name:"trend observe+predict"
          (Bechamel.Staged.stage trend_step);
      ]
  in
  let cfg =
    Bechamel.Benchmark.cfg ~limit:2000 ~quota:(Bechamel.Time.second 0.5) ()
  in
  let raw =
    Bechamel.Benchmark.all cfg
      [ Bechamel.Toolkit.Instance.monotonic_clock ]
      tests
  in
  let ols =
    Bechamel.Analyze.ols ~r_square:false ~bootstrap:0
      ~predictors:[| Bechamel.Measure.run |]
  in
  let results =
    Bechamel.Analyze.all ols Bechamel.Toolkit.Instance.monotonic_clock raw
  in
  let rows = ref [] in
  Hashtbl.iter
    (fun name result ->
      let ns =
        match Bechamel.Analyze.OLS.estimates result with
        | Some [ e ] -> e
        | _ -> nan
      in
      rows := [ name; Printf.sprintf "%.0f ns" ns ] :: !rows)
    results;
  Server.Report.table ~header:[ "operation"; "time per call" ]
    (List.sort compare !rows);
  print_endline
    "  (all mechanism operations are sub-microsecond to a few microseconds;\n\
    \   a compilation allocating tens of MB performs a few thousand of them)"

(* ------------------------------------------------------------------ *)
(* Ablations *)

(* Ablation variants are independent runs too: fan each section's
   variants through the same grid. *)
let ablation_grid ~clients configs =
  run_grid
    (List.map
       (fun config () ->
         Server.Experiment.run ~config ~clients ~warmup ~measure:quick_measure
           ~slice:fig_slice ())
       configs)

let ablation_dynamic () =
  section "A1 - dynamic vs static gateway thresholds (35 clients)";
  let base = throttled_config 42 in
  let static_cfg =
    { base with Server.Config.throttle = Qcore.Throttle_config.static_only () }
  in
  let dyn, sta, off =
    match ablation_grid ~clients:35 [ base; static_cfg; unthrottled_config 42 ] with
    | [ a; b; c ] -> (a, b, c)
    | _ -> assert false
  in
  Server.Report.table
    ~header:("variant" :: Server.Report.result_header)
    [
      "dynamic" :: Server.Report.result_row dyn;
      "static" :: Server.Report.result_row sta;
      "none" :: Server.Report.result_row off;
    ]

let ablation_bestplan () =
  section "A2 - best-plan-so-far vs abort on memory exhaustion (40 clients)";
  let base = throttled_config 42 in
  let no_rescue =
    {
      base with
      Server.Config.optimizer_params =
        {
          base.Server.Config.optimizer_params with
          Optimizer.Cascades.honor_stop_early = false;
        };
    }
  in
  let with_rescue, without =
    match ablation_grid ~clients:40 [ base; no_rescue ] with
    | [ a; b ] -> (a, b)
    | _ -> assert false
  in
  Server.Report.table
    ~header:("variant" :: Server.Report.result_header)
    [
      "best-plan-so-far" :: Server.Report.result_row with_rescue;
      "abort-on-oom" :: Server.Report.result_row without;
    ]

let ablation_ladder () =
  section "A3 - gateway ladder depth (30 clients)";
  let base = throttled_config 42 in
  let single =
    { base with Server.Config.throttle = Qcore.Throttle_config.single_gate () }
  in
  let three, one, zero =
    match ablation_grid ~clients:30 [ base; single; unthrottled_config 42 ] with
    | [ a; b; c ] -> (a, b, c)
    | _ -> assert false
  in
  Server.Report.table
    ~header:("ladder" :: Server.Report.result_header)
    [
      "3 monitors" :: Server.Report.result_row three;
      "1 monitor" :: Server.Report.result_row one;
      "0 monitors" :: Server.Report.result_row zero;
    ]

let ablation_policy () =
  section "A4 - buffer pool replacement policy (30 clients, throttled)";
  let policies =
    [ ("lru-2", Bufpool.Policy.Lru2); ("lru", Bufpool.Policy.Lru);
      ("clock", Bufpool.Policy.Clock) ]
  in
  let results =
    ablation_grid ~clients:30
      (List.map
         (fun (_, policy) ->
           { (throttled_config 42) with Server.Config.pool_policy = policy })
         policies)
  in
  let rows =
    List.map2
      (fun (name, _) r -> name :: Server.Report.result_row r)
      policies results
  in
  Server.Report.table ~header:("policy" :: Server.Report.result_header) rows

(* The paper's premise is a system run "at and beyond the capabilities of
   the hardware": sweep the memory size to locate where throttling matters.
   With ample memory the broker never sees pressure and the two modes
   converge ("the system behaves as if the Memory Broker was not there");
   as memory shrinks the unthrottled server degrades first. *)
let memory_sweep () =
  section "Memory-size sweep, 30 clients (where does throttling matter?)";
  let sizes = [ 2; 3; 4; 6; 8 ] in
  let cells =
    List.concat_map
      (fun gib ->
        List.map
          (fun base () ->
            let config =
              { base with Server.Config.memory_bytes = Dbmem.Units.gib gib }
            in
            Server.Experiment.run ~config ~clients:30 ~warmup
              ~measure:quick_measure ~slice:fig_slice ())
          [ throttled_config 42; unthrottled_config 42 ])
      sizes
  in
  let results = run_grid cells in
  let rec pairs = function
    | on :: off :: rest -> (on, off) :: pairs rest
    | _ -> []
  in
  let rows =
    List.concat_map
      (fun (gib, (on, off)) ->
        let uplift = 100. *. Server.Experiment.uplift on off in
        [
          (Printf.sprintf "%d GiB" gib :: Server.Report.result_row on)
          @ [ Printf.sprintf "%+.0f%%" uplift ];
          (Printf.sprintf "%d GiB" gib :: Server.Report.result_row off) @ [ "" ];
        ])
      (List.combine sizes (pairs results))
  in
  Server.Report.table
    ~header:(("memory" :: Server.Report.result_header) @ [ "uplift" ])
    rows

(* Robustness across schema designs (§4.1 "a wide variety of schema
   designs"): the same comparison on the snowflaked warehouse, whose mixed
   star/chain join graphs give the optimizer a different memo shape. *)
let snowflake () =
  section "Snowflake schema - throttled vs unthrottled, 30 clients";
  (* One catalog/template list shared by both cells: read-only once built. *)
  let catalog = Workload.Snowflake.catalog () in
  let templates = Workload.Snowflake.templates () in
  let cells =
    List.map
      (fun config () ->
        Server.Experiment.run ~config ~catalog ~templates ~clients:30 ~warmup
          ~measure:quick_measure ~slice:fig_slice ())
      [ throttled_config 42; unthrottled_config 42 ]
  in
  let on, off =
    match run_grid cells with [ a; b ] -> (a, b) | _ -> assert false
  in
  Server.Report.table
    ~header:("schema" :: Server.Report.result_header)
    [
      "snowflake" :: Server.Report.result_row on;
      "snowflake" :: Server.Report.result_row off;
    ];
  Printf.printf "  uplift %+.0f%% (star schema: see figure3)
"
    (100. *. Server.Experiment.uplift on off)

(* Supplementary: server-wide memory timelines, the direct visualisation of
   "un-throttled compilations ... consume most available memory on the
   machine and starve query execution memory and the buffer pool" (§5.2.1). *)
let memory_trace () =
  section "Memory timelines - per-component usage, 30 clients";
  let results =
    run_grid
      (List.map
         (fun config () ->
           Server.Experiment.run ~config ~clients:30 ~warmup:0. ~measure:1800.
             ~slice:fig_slice ())
         [ throttled_config 42; unthrottled_config 42 ])
  in
  let show label (r : Server.Experiment.result) =
    Printf.printf "
%s:
" label;
    List.iter
      (fun (name, series) ->
        let _, values = Sim.Series.to_arrays series in
        (* Thin the series to fit a terminal line. *)
        let step = max 1 (Array.length values / 72) in
        let thinned =
          Array.init (Array.length values / step) (fun i -> values.(i * step))
        in
        let stats = Sim.Stats.Online.create () in
        Array.iter (Sim.Stats.Online.add stats) values;
        Printf.printf "  %-10s %s  mean %-10s max %s
" name
          (Server.Report.sparkline thinned)
          (Dbmem.Units.bytes_to_string (int_of_float (Sim.Stats.Online.mean stats)))
          (Dbmem.Units.bytes_to_string (int_of_float (Sim.Stats.Online.max stats))))
      r.Server.Experiment.memory_series
  in
  List.iter2 show [ "throttled"; "unthrottled" ] results;
  print_endline
    "
  (unthrottled: the compile clerk swings to multiple GiB and the
    \   buffer pool is repeatedly emptied; throttled: compile memory is
    \   bounded and the pool keeps the dimension working set resident)"

(* ------------------------------------------------------------------ *)
(* Multi-tenant noisy neighbour: an ad-hoc SALES tenant, a TPC-H victim
   and a light templated tenant share one machine under the memory
   arbiter. The claim: with min/max-share isolation the victim keeps its
   solo throughput; demand-chasing arbitration with no guarantees lets
   the noisy tenant strip the victim's pool. *)

let noisy_neighbor () =
  section "Noisy neighbour - tenant isolation under the memory arbiter";
  let total_bytes = Dbmem.Units.gib 4 in
  let t_warmup = 400. and t_measure = 1200. and t_slice = 60. in
  let seed = 42 in
  let run_kind kind =
    match kind with
    | `Solo ->
        Server.Tenants.solo ~victim:"victim" ~total_bytes ~seed
          ~warmup:t_warmup ~measure:t_measure ~slice:t_slice ()
    | `Isolated ->
        Server.Tenants.run ~mode:Server.Tenants.Isolated ~total_bytes ~seed
          ~warmup:t_warmup ~measure:t_measure ~slice:t_slice ()
    | `Free ->
        Server.Tenants.run ~mode:Server.Tenants.Free_for_all ~total_bytes
          ~seed ~warmup:t_warmup ~measure:t_measure ~slice:t_slice ()
  in
  let kinds = [ `Solo; `Isolated; `Free ] in
  match Parallel.Pool.run ~jobs:!jobs run_kind kinds with
  | [ o_solo; o_iso; o_free ] ->
      Server.Report.tenants_section o_solo;
      Server.Report.tenants_section o_iso;
      Server.Report.tenants_section o_free;
      let v = Server.Tenants.find_tenant o_solo "victim" in
      let vi = Server.Tenants.find_tenant o_iso "victim" in
      let vf = Server.Tenants.find_tenant o_free "victim" in
      Printf.printf
        "\n  victim retention vs solo: isolated %.0f%%, free-for-all %.0f%%\n"
        (100. *. Server.Tenants.retention ~shared:vi ~solo:v)
        (100. *. Server.Tenants.retention ~shared:vf ~solo:v)
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* Sharded failover: the scale-out version of the paper's thesis. A
   restarted shard rejoins with an empty plan cache, so every
   parameterized template recompiles at once; the run keeps most of its
   no-fault throughput only when the per-shard compile gateways
   serialise that storm. The gateways-off pair quantifies the cost. *)

let shard_failover () =
  section "Sharded failover - crash, cold-cache storm, gateways on vs off";
  let base = Server.Shards.default_config in
  let crash schedule gateways =
    { base with Server.Shards.c_schedule = schedule; c_gateways = gateways }
  in
  let cells =
    [
      crash Server.Shards.No_fault true;
      crash Server.Shards.Crash_failover true;
      crash Server.Shards.No_fault false;
      crash Server.Shards.Crash_failover false;
    ]
  in
  match Parallel.Pool.run ~jobs:!jobs Server.Shards.run cells with
  | [ on_base; on_crash; off_base; off_crash ] ->
      Server.Report.shards_section on_base;
      Server.Report.shards_section ~baseline:on_base on_crash;
      Server.Report.shards_section off_base;
      Server.Report.shards_section ~baseline:off_base off_crash;
      Printf.printf
        "\n  crash-failover retention vs same-mode no-fault baseline:\n\
        \    gateways on  %.0f%%\n\
        \    gateways off %.0f%%\n"
        (100. *. Server.Shards.retention ~fault:on_crash ~no_fault:on_base)
        (100. *. Server.Shards.retention ~fault:off_crash ~no_fault:off_base)
  | _ -> assert false

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("figure1", figure1);
    ("figure2", figure2);
    ("figure3", figure3);
    ("figure4", figure4);
    ("figure5", figure5);
    ("compile-memory", compile_memory);
    ("client-sweep", client_sweep);
    ("reliability", reliability);
    ("memory-trace", memory_trace);
    ("snowflake", snowflake);
    ("memory-sweep", memory_sweep);
    ("overhead", overhead);
    ("ablation-dynamic", ablation_dynamic);
    ("ablation-bestplan", ablation_bestplan);
    ("ablation-ladder", ablation_ladder);
    ("ablation-policy", ablation_policy);
    ("noisy-neighbor", noisy_neighbor);
    ("shard-failover", shard_failover);
  ]

let () =
  (* DBSIM_JOBS sets the default; an explicit --jobs N wins. *)
  (match Sys.getenv_opt "DBSIM_JOBS" with
  | Some _ -> jobs := Parallel.Pool.default_jobs ()
  | None -> ());
  let rec parse acc = function
    | [] -> List.rev acc
    | "--trace" :: rest ->
        trace_requested := true;
        parse acc rest
    | ("--jobs" | "-j") :: n :: rest -> (
        match int_of_string_opt n with
        | Some j when j >= 1 ->
            jobs := j;
            parse acc rest
        | _ ->
            prerr_endline "main: --jobs expects a positive integer";
            exit 2)
    | a :: rest -> parse (a :: acc) rest
  in
  let args = parse [] (List.tl (Array.to_list Sys.argv)) in
  let requested =
    match args with _ :: _ -> args | [] -> List.map fst experiments
  in
  print_endline "CIDR'07 query-compilation throttling: reproduction benchmarks";
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f -> f ()
      | None ->
          Printf.printf "unknown experiment %S; available: %s\n" name
            (String.concat ", " (List.map fst experiments)))
    requested
