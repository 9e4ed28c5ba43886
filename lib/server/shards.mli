(** The sharded scale-out experiment: shards, router, faults, clients.

    One simulation engine hosts [c_shards] full servers ({!Shard}), a
    machine-level {!Qcore.Arbiter} arbitrating physical memory across
    their managers (a down shard's share is lent to survivors and clawed
    back on rejoin), and a {!Router} placing the parameterized SALES
    workload by consistent hashing with health-aware overflow.

    The headline comparison is [Crash_failover] with and without compile
    gateways: the restarted shard rejoins with an empty plan cache, every
    parameterized template must recompile at once, and the run retains
    most of its no-fault throughput only when gateway throttling
    serialises that storm. *)

type schedule =
  | No_fault
  | Crash_failover
      (** shard 1 crashes a quarter into the measure window and stays
          down for another quarter *)
  | Rolling_restart
      (** every shard crashes in turn, staggered so at most one is down *)
  | Brownout
      (** shard 1 serves at a quarter rate for half the window (the
          hedging scenario) *)

val schedule_name : schedule -> string

type config = {
  c_shards : int;
  c_clients : int;
  c_variants : int;  (** parameterized templates in the workload *)
  c_think : float;
  c_warmup : float;
  c_measure : float;
  c_slice : float;
  c_total : int;  (** machine bytes, split [total/shards] initially *)
  c_gateways : bool;  (** per-shard compile-gateway throttling *)
  c_hedge : bool;  (** hedge submissions to browned-out shards *)
  c_seed : int;
  c_schedule : schedule;
}

val default_config : config
(** 4 shards, 32 clients, 40 variants, 8 GiB machine, gateways on,
    no faults, seed 42. *)

(** The concrete fault specs a config's schedule expands to. *)
val faults_of : config -> Faultsim.Fault.spec list

type shard_result = {
  sh_name : string;
  sh_final_state : string;
  sh_crashes : int;
  sh_stalls : int;
  sh_accepted : int;
  sh_finished : int;
  sh_lost : int;
  sh_refused : int;
  sh_recompiles : int;  (** plan-cache misses since rejoin *)
  sh_cache_hit_rate : float;
  sh_budget_end : int;
}

type outcome = {
  o_config : config;
  slices : (float * float) array;  (** completions per slice, window only *)
  mean_per_slice : float;
  completed : int;  (** successful completions inside the window *)
  submitted : int;
  ok : int;
  failed : int;
  rejected : int;
  spills : int;
  hedges : int;
  hedge_wins : int;
  retries : int;
  in_flight_at_stop : int;
  p50_ms : float;
  p99_ms : float;
  cl_submitted : int;  (** distinct client queries *)
  cl_attempts : int;
      (** router submissions clients made, client-level retries included —
          conserves against {!outcome.submitted} *)
  cl_succeeded : int;
  cl_abandoned : int;
  arb_ticks : int;
  arb_rebalances : int;
  arb_moved : int;
  arb_reclaimed : int;
  max_budget_sum : int;
      (** largest observed sum of shard budgets — stays within the
          machine plus one keepalive byte per pool *)
  shard_results : shard_result list;
}

(** Raises [Invalid_argument] on nonsensical configs (fewer than 2
    shards, under 64 MiB per shard, empty windows...). {!run} calls it
    first. *)
val validate : config -> unit

(** Run one cell. Plain-data in, plain-data out (no closures in either),
    so cells fan out over {!Parallel.Pool} and the outcome survives
    marshalling. Deterministic: a pure function of the config. *)
val run : ?trace:Obs.Trace.t -> config -> outcome

(** Throughput retained under a fault schedule against the same seed's
    no-fault baseline ([fault.mean_per_slice / no_fault.mean_per_slice]). *)
val retention : fault:outcome -> no_fault:outcome -> float
