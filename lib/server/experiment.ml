type result = {
  clients : int;
  throttled : bool;
  resilient : bool;
  warmup : float;
  measure : float;
  slice : float;
  slices : (float * float) array;
  mean_per_slice : float;
  total_completed : int;
  total_errors : int;
  hard_errors : int;
  retries : int;
  sheds : int;
  degraded : int;
  errors : (string * int) list;
  faults_started : int;
  faults_finished : int;
  ballast_peak : int;
  ballast_refused : int;
  client_stats : Workload.Client.stats;
  compile_mean_s : float;
  compile_max_s : float;
  exec_mean_s : float;
  exec_max_s : float;
  compile_peak_mean : float;
  compile_peak_max : float;
  pool_hit_rate : float;
  cache_hit_rate : float;
  cpu_utilization : float;
  memory_series : (string * Sim.Series.t) list;
}

let run ?config ?client_config ?catalog ?templates ?seed ?trace ~clients
    ~warmup ~measure ~slice () =
  let cfg = match config with Some c -> c | None -> Config.default () in
  let cfg = match seed with Some s -> { cfg with Config.seed = s } | None -> cfg in
  let client_config =
    match client_config with
    | Some c -> c
    | None -> Workload.Client.default_config
  in
  let cat = match catalog with Some c -> c | None -> Workload.Sales.catalog () in
  let templates =
    match templates with Some t -> t | None -> Workload.Sales.templates ()
  in
  let eng = Sim.Engine.create ~seed:cfg.Config.seed () in
  let dbms = Dbms.create ?trace eng cfg cat in
  Dbms.start dbms;
  let stats = Workload.Client.make_stats () in
  let ids = ref 0 in
  let stop = warmup +. measure in
  (* Burst clients share the workload's stats/ids so conservation
     invariants (attempts >= submitted, ...) keep holding under chaos. *)
  let spawn_burst ~clients ~think_mean ~until =
    let burst_rng = Sim.Rng.split (Sim.Engine.rng eng) in
    for i = 1 to clients do
      Workload.Client.spawn eng burst_rng
        ~name:(Printf.sprintf "burst-%d" i)
        ~templates
        ~submit:(fun q -> Dbms.submit_catch dbms q)
        ~config:{ client_config with Workload.Client.think_mean }
        ~stats ~ids ~until:(Float.min until stop)
    done
  in
  let injector = Dbms.install_faults ~spawn_burst dbms in
  let client_rng = Sim.Rng.split (Sim.Engine.rng eng) in
  for i = 1 to clients do
    Workload.Client.spawn eng client_rng
      ~name:(Printf.sprintf "client-%d" i)
      ~templates
      ~submit:(fun q -> Dbms.submit_catch dbms q)
      ~config:client_config ~stats ~ids ~until:stop
  done;
  Sim.Engine.run eng ~until:stop;
  Sim.Engine.check_failures eng;
  let metrics = Dbms.metrics dbms in
  let slices = Metrics.throughput metrics ~start:warmup ~stop ~width:slice in
  let total_completed = Metrics.total_completions metrics ~since:warmup () in
  let mean_per_slice =
    if Array.length slices = 0 then 0.
    else
      Array.fold_left (fun acc (_, v) -> acc +. v) 0. slices
      /. float_of_int (Array.length slices)
  in
  let ct = Metrics.compile_time metrics and et = Metrics.exec_time metrics in
  let peak = Metrics.compile_peak metrics in
  let safe f s = if Sim.Stats.Online.count s = 0 then 0. else f s in
  {
    clients;
    throttled = cfg.Config.throttle_enabled;
    resilient = cfg.Config.resilience;
    warmup;
    measure;
    slice;
    slices;
    mean_per_slice;
    total_completed;
    total_errors = Metrics.total_errors metrics;
    hard_errors = Metrics.hard_errors metrics;
    retries = Metrics.retries metrics;
    sheds = Metrics.sheds metrics;
    degraded = Metrics.degraded metrics;
    errors =
      List.map (fun (k, n) -> (Health.Error.code_name k, n)) (Metrics.errors metrics);
    faults_started =
      (match injector with Some i -> Faultsim.Injector.started i | None -> 0);
    faults_finished =
      (match injector with
      | Some i -> Faultsim.Injector.finished i
      | None -> 0);
    ballast_peak =
      (match injector with
      | Some i -> Faultsim.Injector.ballast_peak i
      | None -> 0);
    ballast_refused =
      (match injector with
      | Some i -> Faultsim.Injector.ballast_refused i
      | None -> 0);
    client_stats = stats;
    compile_mean_s = safe Sim.Stats.Online.mean ct;
    compile_max_s = safe Sim.Stats.Online.max ct;
    exec_mean_s = safe Sim.Stats.Online.mean et;
    exec_max_s = safe Sim.Stats.Online.max et;
    compile_peak_mean = safe Sim.Stats.Online.mean peak;
    compile_peak_max = safe Sim.Stats.Online.max peak;
    pool_hit_rate = Bufpool.Pool.hit_rate (Dbms.pool dbms);
    cache_hit_rate = Plancache.Cache.hit_rate (Dbms.plan_cache dbms);
    cpu_utilization = Execsim.Cpu.utilization (Dbms.cpu dbms);
    memory_series = Metrics.memory_series metrics;
  }

(* ------------------------------------------------------------------ *)
(* Grids: independent (config, clients, seed) cells fanned over a domain
   pool. Each cell is self-contained — [run] builds a fresh engine (own
   RNG), server, metrics, client stats and trace sink per call, and
   nothing in the library holds top-level mutable state — so cells can
   execute on any domain in any order. Results come back in submission
   order, which keeps grid output byte-identical to a sequential run. *)

type cell = {
  cell_config : Config.t option;
  cell_client_config : Workload.Client.config option;
  cell_catalog : Optimizer.Catalog.t option;
  cell_templates : Workload.Template.t list option;
  cell_seed : int option;
  cell_clients : int;
  cell_warmup : float;
  cell_measure : float;
  cell_slice : float;
}

let cell ?config ?client_config ?catalog ?templates ?seed ~clients ~warmup
    ~measure ~slice () =
  {
    cell_config = config;
    cell_client_config = client_config;
    cell_catalog = catalog;
    cell_templates = templates;
    cell_seed = seed;
    cell_clients = clients;
    cell_warmup = warmup;
    cell_measure = measure;
    cell_slice = slice;
  }

let run_cell c =
  run ?config:c.cell_config ?client_config:c.cell_client_config
    ?catalog:c.cell_catalog ?templates:c.cell_templates ?seed:c.cell_seed
    ~clients:c.cell_clients ~warmup:c.cell_warmup ~measure:c.cell_measure
    ~slice:c.cell_slice ()

let run_grid ?pool ?(jobs = 1) cells =
  match pool with
  | Some p -> Parallel.Pool.map p run_cell cells
  | None -> Parallel.Pool.run ~jobs run_cell cells

let uplift a b =
  (* 0., not nan, against a zero baseline — callers print this straight
     into reports and "nan%" there reads as a bug. *)
  if b.mean_per_slice <= 0. then 0.
  else (a.mean_per_slice -. b.mean_per_slice) /. b.mean_per_slice

let pp_summary ppf r =
  Format.fprintf ppf
    "@[<v>%d clients, throttling %s, resilience %s: %.1f completions/slice (%d total, %d errors)@,\
     compile %.1fs mean / %.1fs max; exec %.1fs mean / %.1fs max@,\
     compile peak %s mean / %s max; pool hit %.1f%%; cache hit %.1f%%; cpu %.2f@]"
    r.clients
    (if r.throttled then "ON" else "OFF")
    (if r.resilient then "ON" else "OFF")
    r.mean_per_slice r.total_completed r.total_errors r.compile_mean_s
    r.compile_max_s r.exec_mean_s r.exec_max_s
    (Dbmem.Units.bytes_to_string (int_of_float r.compile_peak_mean))
    (Dbmem.Units.bytes_to_string (int_of_float r.compile_peak_max))
    (100. *. r.pool_hit_rate)
    (100. *. r.cache_hit_rate)
    r.cpu_utilization;
  if r.resilient || r.faults_started > 0 then
    Format.fprintf ppf
      "@,resilience: %d hard errors, %d retries, %d sheds, %d degraded \
       completions; faults %d/%d run; ballast peak %s (%d refused grabs)"
      r.hard_errors r.retries r.sheds r.degraded r.faults_finished
      r.faults_started
      (Dbmem.Units.bytes_to_string r.ballast_peak)
      r.ballast_refused
