(** The canonical chaos scenario, shared by [dbsim health], the golden
    health-report test and the chaos property tests, so the CLI and
    the test suite always exercise the same schedule.

    Everything is deterministic in the seed: the same parameters and seed
    replay the same run, byte for byte. *)

(** The chaos schedule, in this order: an external ballast of
    [ballast_gib] (12 GiB) ramping in [ramp_steps] (240) steps of
    [step_s] (2.5 s) from [at] (100 s) and holding [hold] (0 s) — the
    paper's §3 external-pressure transient — then, over the same window
    of ramp plus hold, a disk storm when [disk_storm], [burst] extra
    clients when positive, and a transient allocation-failure window on
    the compile clerk with probability [glitch] (0.15) so the retry
    ladder and the error taxonomy see real 701s. [ballast_gib = 0.] /
    [glitch = 0.] drop the respective fault. *)
val chaos_faults :
  ?ballast_gib:float ->
  ?at:float ->
  ?ramp_steps:int ->
  ?step_s:float ->
  ?hold:float ->
  ?disk_storm:bool ->
  ?burst:int ->
  ?glitch:float ->
  unit ->
  Faultsim.Fault.spec list

type outcome = {
  dbms : Dbms.t;  (** the server, kept alive for component inspection *)
  report : Health.Report.t;  (** snapshot since the end of warm-up *)
  completed : int;  (** completions since the end of warm-up *)
  faults : Faultsim.Fault.spec list;  (** the schedule that ran *)
  client_stats : Workload.Client.stats;
}

(** [run_chaos ()] builds a server from [config]
    ({!Config.resilient} by default), installs [faults]
    ({!chaos_faults} by default), loads it with [clients] SALES clients
    until [warmup + measure], then keeps the engine running for [drain]
    further seconds with no new submissions so in-flight queries can
    finish — a session still watched after the drain is genuinely stuck.
    Raises [Failure] if any simulation process died. *)
val run_chaos :
  ?config:Config.t ->
  ?faults:Faultsim.Fault.spec list ->
  ?seed:int ->
  ?clients:int ->
  ?warmup:float ->
  ?measure:float ->
  ?drain:float ->
  ?think_mean:float ->
  ?trace:Obs.Trace.t ->
  unit ->
  outcome
