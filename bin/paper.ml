(* The paper's evaluation, one definition per experiment: each figure and
   table of Baryshnikov et al., "Managing Query Compilation Memory
   Consumption to Improve DBMS Throughput" (CIDR 2007), the in-text
   claims and the ablations listed in DESIGN.md, run by [dbsim paper].
   [dbsim compare] and [dbsim sweep] print through the same functions.
   Every experiment is a pure function of its fixed seed, so its output
   is the same at any job count; test/paper.golden pins it. The
   mechanism overhead (T4) is wall-clock, so it is timed by
   bench/perf.exe instead. *)

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* Standard experiment windows. Figures use a long measured window (18
   slices of 200 s); secondary experiments use a shorter one. *)
let warmup = 600.
let fig_measure = 3600.
let fig_slice = 200.
let quick_measure = 1800.

let config ~throttle ~seed =
  let base =
    if throttle then Server.Config.default () else Server.Config.unthrottled ()
  in
  { base with Server.Config.seed }

(* Every cell is independent, with its own engine and RNG, so a list of
   cells fans out through Parallel.Pool.run, which returns the results in
   submission order. *)
let run_cell ?catalog ?templates ?(warmup = warmup) ?(measure = quick_measure)
    ?(slice = fig_slice) ?trace ~clients config =
  Server.Experiment.run ~config ?catalog ?templates ?trace ~clients ~warmup
    ~measure ~slice ()

(* A sweep's cells, a client count and a server config each: one per
   client count and throttle setting, in that order. *)
let sweep_cells ~throttles ~counts ~seed =
  List.concat_map
    (fun clients ->
      List.map (fun throttle -> (clients, config ~throttle ~seed)) throttles)
    counts

let run_sweep ~jobs ~warmup ~measure ~slice cells =
  Parallel.Pool.run ~jobs
    (fun (clients, config) -> run_cell ~warmup ~measure ~slice ~clients config)
    cells

(* The standard result table over a sweep: T2 and [dbsim sweep]. *)
let print_sweep results =
  Server.Report.table ~header:Server.Report.result_header
    (List.map Server.Report.result_row results)

(* Throttled vs unthrottled at one client count: Figures 3-5 and
   [dbsim compare]. Prints the per-slice series and the result table. *)
let print_pair ~title = function
  | [ on; off ] ->
      Server.Report.figure_series ~title ~throttled:on.Server.Experiment.slices
        ~unthrottled:off.Server.Experiment.slices;
      print_sweep [ on; off ]
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* Figure 1: the monitor ladder *)

let figure1 ~jobs:_ =
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
(* Figure 2: compilation throttling example. [dbsim trace --scenario
   figure2] records the same run with its trace. *)

let figure2 ~jobs:_ =
  section "Figure 2 - compilation throttling example (memory vs time)";
  let series = (Server.Figure2.run ()).Server.Figure2.series in
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
    \   to zero when a compilation completes and frees its memory)"

(* ------------------------------------------------------------------ *)
(* Figures 3-5: throughput at 30/35/40 clients *)

let throughput_figure ~figure ~clients ~jobs =
  section
    (Printf.sprintf "Figure %d - throughput, %d clients (completions per %.0fs slice)"
       figure clients fig_slice);
  print_pair
    ~title:(Printf.sprintf "%d clients, warm-up %.0fs excluded" clients warmup)
    (run_sweep ~jobs ~warmup ~measure:fig_measure ~slice:fig_slice
       (sweep_cells ~throttles:[ true; false ] ~counts:[ clients ] ~seed:42))

(* ------------------------------------------------------------------ *)
(* T1: compile memory, SALES vs TPC-H *)

let compile_memory ~jobs:_ =
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

let client_sweep ~jobs =
  section "T2 - client sweep (paper: max throughput at 30 clients)";
  print_sweep
    (run_sweep ~jobs ~warmup ~measure:quick_measure ~slice:fig_slice
       (sweep_cells ~throttles:[ true; false ]
          ~counts:[ 10; 20; 25; 30; 35; 40; 45 ] ~seed:42))

(* ------------------------------------------------------------------ *)
(* T3: reliability *)

let reliability ~jobs =
  section "T3 - reliability (resource errors and first-attempt success)";
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
  let results =
    run_sweep ~jobs ~warmup ~measure:quick_measure ~slice:fig_slice
      (sweep_cells ~throttles:[ true; false ] ~counts:[ 30; 35; 40 ] ~seed:42)
  in
  Server.Report.table
    ~header:[ "clients"; "throttle"; "errors"; "by kind"; "attempt success"; "abandoned" ]
    (List.map row results)

(* ------------------------------------------------------------------ *)
(* Ablations *)

(* The variants of one ablation, fanned through the same grid, with
   one label per variant as the table's first column. *)
let ablation ~jobs ~title ~column ~clients variants =
  section title;
  let results =
    Parallel.Pool.run ~jobs (fun (_, config) -> run_cell ~clients config) variants
  in
  Server.Report.table
    ~header:(column :: Server.Report.result_header)
    (List.map2
       (fun (name, _) r -> name :: Server.Report.result_row r)
       variants results)

let throttled = config ~throttle:true ~seed:42
let unthrottled = config ~throttle:false ~seed:42

let ablation_dynamic ~jobs =
  ablation ~jobs ~title:"A1 - dynamic vs static gateway thresholds (35 clients)"
    ~column:"variant" ~clients:35
    [
      ("dynamic", throttled);
      ( "static",
        { throttled with
          Server.Config.throttle = Qcore.Throttle_config.static_only () } );
      ("none", unthrottled);
    ]

let ablation_bestplan ~jobs =
  ablation ~jobs
    ~title:"A2 - best-plan-so-far vs abort on memory exhaustion (40 clients)"
    ~column:"variant" ~clients:40
    [
      ("best-plan-so-far", throttled);
      ( "abort-on-oom",
        {
          throttled with
          Server.Config.optimizer_params =
            {
              throttled.Server.Config.optimizer_params with
              Optimizer.Cascades.honor_stop_early = false;
            };
        } );
    ]

let ablation_ladder ~jobs =
  ablation ~jobs ~title:"A3 - gateway ladder depth (30 clients)" ~column:"ladder"
    ~clients:30
    [
      ("3 monitors", throttled);
      ( "1 monitor",
        { throttled with
          Server.Config.throttle = Qcore.Throttle_config.single_gate () } );
      ("0 monitors", unthrottled);
    ]

let ablation_policy ~jobs =
  ablation ~jobs ~title:"A4 - buffer pool replacement policy (30 clients, throttled)"
    ~column:"policy" ~clients:30
    (List.map
       (fun (name, policy) ->
         (name, { throttled with Server.Config.pool_policy = policy }))
       [ ("lru-2", Bufpool.Policy.Lru2); ("lru", Bufpool.Policy.Lru);
         ("clock", Bufpool.Policy.Clock) ])

(* The paper's premise is a system run "at and beyond the capabilities of
   the hardware": sweep the memory size to locate where throttling matters.
   With ample memory the broker never sees pressure and the two modes
   converge ("the system behaves as if the Memory Broker was not there");
   as memory shrinks the unthrottled server degrades first. *)
let memory_sweep ~jobs =
  section "Memory-size sweep, 30 clients (where does throttling matter?)";
  let sizes = [ 2; 3; 4; 6; 8 ] in
  let cells =
    List.concat_map
      (fun gib ->
        List.map
          (fun base ->
            { base with Server.Config.memory_bytes = Dbmem.Units.gib gib })
          [ throttled; unthrottled ])
      sizes
  in
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
      (List.combine sizes
         (pairs (Parallel.Pool.run ~jobs (run_cell ~clients:30) cells)))
  in
  Server.Report.table
    ~header:(("memory" :: Server.Report.result_header) @ [ "uplift" ])
    rows

(* Robustness across schema designs (§4.1 "a wide variety of schema
   designs"): the same comparison on the snowflaked warehouse, whose mixed
   star/chain join graphs give the optimizer a different memo shape. *)
let snowflake ~jobs =
  section "Snowflake schema - throttled vs unthrottled, 30 clients";
  (* One catalog/template list shared by both cells: read-only once built. *)
  let catalog = Workload.Snowflake.catalog () in
  let templates = Workload.Snowflake.templates () in
  let on, off =
    match
      Parallel.Pool.run ~jobs
        (run_cell ~catalog ~templates ~clients:30)
        [ throttled; unthrottled ]
    with
    | [ a; b ] -> (a, b)
    | _ -> assert false
  in
  Server.Report.table
    ~header:("schema" :: Server.Report.result_header)
    [
      "snowflake" :: Server.Report.result_row on;
      "snowflake" :: Server.Report.result_row off;
    ];
  Printf.printf "  uplift %+.0f%% (star schema: see figure3)\n"
    (100. *. Server.Experiment.uplift on off)

(* Supplementary: server-wide memory timelines, the direct visualisation of
   "un-throttled compilations ... consume most available memory on the
   machine and starve query execution memory and the buffer pool" (§5.2.1). *)
let memory_trace ~jobs =
  section "Memory timelines - per-component usage, 30 clients";
  let results =
    Parallel.Pool.run ~jobs (run_cell ~warmup:0. ~clients:30)
      [ throttled; unthrottled ]
  in
  let show label (r : Server.Experiment.result) =
    Printf.printf "\n%s:\n" label;
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
        Printf.printf "  %-10s %s  mean %-10s max %s\n" name
          (Server.Report.sparkline thinned)
          (Dbmem.Units.bytes_to_string (int_of_float (Sim.Stats.Online.mean stats)))
          (Dbmem.Units.bytes_to_string (int_of_float (Sim.Stats.Online.max stats))))
      r.Server.Experiment.memory_series
  in
  List.iter2 show [ "throttled"; "unthrottled" ] results;
  print_endline
    "\n  (unthrottled: the compile clerk swings to multiple GiB and the\n\
    \       buffer pool is repeatedly emptied; throttled: compile memory is\n\
    \       bounded and the pool keeps the dimension working set resident)"

(* ------------------------------------------------------------------ *)
(* Sharded failover: the scale-out version of the paper's thesis. A
   restarted shard rejoins with an empty plan cache, so every
   parameterized template recompiles at once; the run keeps most of its
   no-fault throughput only when the per-shard compile gateways
   serialise that storm. The gateways-off pair quantifies the cost. *)

let shard_failover ~jobs =
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
  match Parallel.Pool.run ~jobs Server.Shards.run cells with
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
    ("figure3", throughput_figure ~figure:3 ~clients:30);
    ("figure4", throughput_figure ~figure:4 ~clients:35);
    ("figure5", throughput_figure ~figure:5 ~clients:40);
    ("compile-memory", compile_memory);
    ("client-sweep", client_sweep);
    ("reliability", reliability);
    ("memory-trace", memory_trace);
    ("snowflake", snowflake);
    ("memory-sweep", memory_sweep);
    ("ablation-dynamic", ablation_dynamic);
    ("ablation-bestplan", ablation_bestplan);
    ("ablation-ladder", ablation_ladder);
    ("ablation-policy", ablation_policy);
    ("shard-failover", shard_failover);
  ]

(* The named experiments in the order given, every one when none is. *)
let run ~jobs names =
  let names = match names with [] -> List.map fst experiments | l -> l in
  print_endline "CIDR'07 query-compilation throttling: reproduction benchmarks";
  List.iter (fun name -> (List.assoc name experiments) ~jobs) names
