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
  retries : int;
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
  health : Health.Report.t;
}

(* Burst clients share the workload's stats and ids so conservation
   invariants (attempts >= submitted, ...) keep holding under chaos. *)
let load ?trace cfg cat ~templates ~client_config ~clients ~stop =
  let eng = Sim.Engine.create ~seed:cfg.Config.seed () in
  let dbms = Dbms.create ?trace eng cfg cat in
  Dbms.start dbms;
  let stats = Workload.Client.make_stats () in
  let ids = ref 0 in
  let fleet ~label ~clients ~config ~until =
    let rng = Sim.Rng.split (Sim.Engine.rng eng) in
    for i = 1 to clients do
      Workload.Client.spawn eng rng
        ~name:(Printf.sprintf "%s-%d" label i)
        ~templates ~submit:(Dbms.submit_catch dbms) ~config ~stats ~ids ~until
    done
  in
  let spawn_burst ~clients ~think_mean ~until =
    fleet ~label:"burst" ~clients
      ~config:{ client_config with Workload.Client.think_mean }
      ~until:(Float.min until stop)
  in
  let injector = Dbms.install_faults ~spawn_burst dbms in
  fleet ~label:"client" ~clients ~config:client_config ~until:stop;
  (dbms, stats, injector)

let run ?config ?client_config ?catalog ?templates ?seed ?trace ?(drain = 0.)
    ~clients ~warmup ~measure ~slice () =
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
  let stop = warmup +. measure in
  let dbms, stats, injector =
    load ?trace cfg cat ~templates ~client_config ~clients ~stop
  in
  Sim.Engine.run (Dbms.engine dbms) ~until:(stop +. drain);
  let metrics = Dbms.metrics dbms in
  let slices = Metrics.throughput metrics ~start:warmup ~stop ~width:slice in
  let ct = Metrics.compile_time metrics and et = Metrics.exec_time metrics in
  let peak = Metrics.compile_peak metrics in
  let safe f s = if Sim.Stats.Online.count s = 0 then 0. else f s in
  let faults f = Option.fold ~none:0 ~some:f injector in
  {
    clients;
    throttled = cfg.Config.throttle_enabled;
    resilient = cfg.Config.resilience;
    warmup;
    measure;
    slice;
    slices;
    mean_per_slice = Workload.Client.slice_mean slices;
    total_completed = Metrics.total_completions metrics ~since:warmup ();
    total_errors = Metrics.total_errors metrics;
    retries = Metrics.retries metrics;
    degraded = Metrics.degraded metrics;
    errors =
      List.map (fun (k, n) -> (Health.Error.code_name k, n)) (Metrics.errors metrics);
    faults_started = faults Faultsim.Injector.started;
    faults_finished = faults Faultsim.Injector.finished;
    ballast_peak = faults Faultsim.Injector.ballast_peak;
    ballast_refused = faults Faultsim.Injector.ballast_refused;
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
    health = Dbms.health_report dbms ~since:warmup ();
  }

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
      "@,resilience: %d hard errors, %d retries, %d degraded \
       completions; faults %d/%d run; ballast peak %s (%d refused grabs)"
      r.total_errors r.retries r.degraded r.faults_finished
      r.faults_started
      (Dbmem.Units.bytes_to_string r.ballast_peak)
      r.ballast_refused
