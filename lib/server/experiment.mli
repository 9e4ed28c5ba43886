(** End-to-end experiment runner: build a server, load it with concurrent
    clients for a warm-up plus a measured window, and collect the series
    and summary numbers the paper's figures report. The warm-up period is
    excluded from all results, as in §5.2. *)

type result = {
  clients : int;
  throttled : bool;
  resilient : bool;
  warmup : float;
  measure : float;
  slice : float;
  slices : (float * float) array;  (** completions per time slice *)
  mean_per_slice : float;
  total_completed : int;  (** within the measured window *)
  total_errors : int;
  retries : int;  (** server-side retries of transient errors *)
  degraded : int;  (** completions via the greedy fallback ladder *)
  errors : (string * int) list;
  faults_started : int;  (** fault episodes that began before [stop] *)
  faults_finished : int;
  ballast_peak : int;  (** most ballast held at once, bytes *)
  ballast_refused : int;  (** ballast grab attempts the manager refused *)
  client_stats : Workload.Client.stats;
  compile_mean_s : float;
  compile_max_s : float;
  exec_mean_s : float;
  exec_max_s : float;
  compile_peak_mean : float;  (** bytes *)
  compile_peak_max : float;
  pool_hit_rate : float;
  cache_hit_rate : float;
  cpu_utilization : float;
  memory_series : (string * Sim.Series.t) list;
  health : Health.Report.t;  (** read after the drain, since the end of warm-up *)
}

(** [run ?config ?client_config ?catalog ?templates ?seed ?drain ~clients
    ~warmup ~measure ~slice ()] — defaults: the SALES benchmark on the
    paper's server. Any fault schedule in [config.faults] is installed
    before the clients start (burst clients share the workload templates
    and stats). Clients stop submitting at [warmup + measure]; the engine
    then runs [drain] (default [0.]) further seconds so in-flight queries
    can finish, and every figure but [slices] is read after the drain: a
    query [health] still counts in flight then is stuck, not merely
    truncated by the clock. Raises [Failure] if any simulation process
    died (model bug). *)
val run :
  ?config:Config.t ->
  ?client_config:Workload.Client.config ->
  ?catalog:Optimizer.Catalog.t ->
  ?templates:Workload.Template.t list ->
  ?seed:int ->
  ?trace:Obs.Trace.t ->
  ?drain:float ->
  clients:int ->
  warmup:float ->
  measure:float ->
  slice:float ->
  unit ->
  result

(** [load ?trace cfg cat ~templates ~client_config ~clients ~stop] is
    {!run}'s setup: a fresh engine seeded from [cfg], a started server on
    it, the fault schedule in [cfg.faults] installed (burst clients share
    the workload's templates and client stats), and [clients] closed-loop
    clients submitting until [stop]. Returns the server, the client stats
    and the fault injector; the engine has not run yet. *)
val load :
  ?trace:Obs.Trace.t ->
  Config.t ->
  Optimizer.Catalog.t ->
  templates:Workload.Template.t list ->
  client_config:Workload.Client.config ->
  clients:int ->
  stop:float ->
  Dbms.t * Workload.Client.stats * Faultsim.Injector.t option

(** Relative throughput uplift of [a] over [b] (e.g. throttled over
    unthrottled), from mean completions per slice. [0.] when the
    baseline completed nothing. *)
val uplift : result -> result -> float

val pp_summary : Format.formatter -> result -> unit
