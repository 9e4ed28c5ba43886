(** Multi-tenant resource pools under one memory arbiter.

    Several tenants share one simulated machine. Each tenant owns a full
    {e resource pool} — its own {!Dbms} (memory manager, broker, gateway
    chain, plan cache, buffer pool, grants) sized to the pool's budget —
    and all pools run on one {!Sim.Engine}. A {!Qcore.Arbiter} on the
    same engine periodically redistributes physical memory between the
    pools: idle reservation flows to pressured tenants and is pulled
    back (through {!Dbms.reclaim}) when the owner wakes up, subject to
    each pool's [min_share]/[max_share] guarantees.

    The module exists to run the noisy-neighbour experiment: an ad-hoc
    SALES tenant with unbounded memory appetite next to a well-behaved
    TPC-H victim and a light templated tenant. With guarantees
    ({!Isolated}) the victim's throughput stays at its solo level; with
    demand-chasing arbitration and no guarantees ({!Free_for_all}) the
    noisy tenant strips the victim's pool. *)

(** Tenant workload mixes. [Light] is the small templated diagnostic
    query (one cacheable template — all plan-cache hits after warmup). *)
type workload = Sales | Tpch | Light

val workload_name : workload -> string

type spec = {
  tname : string;
  tweight : float;  (** share of surplus when lending, > 0 *)
  tmin_share : float;  (** guaranteed floor, fraction of the machine *)
  tmax_share : float;  (** borrowing cap, fraction of the machine *)
  tclients : int;
  tthink_mean : float;  (** mean client think time, seconds *)
  tworkload : workload;
}

(** How the machine's memory is governed. *)
type mode =
  | Isolated
      (** arbiter honouring every pool's [min_share]/[max_share] *)
  | Free_for_all
      (** arbiter chasing demand with no meaningful guarantees (token 2%
          floors, caps [1.]) — the no-isolation baseline a noisy tenant
          exploits *)
  | Static  (** budgets fixed at their initial split; no arbiter *)

val mode_name : mode -> string

type tenant_result = {
  rname : string;
  rworkload : workload;
  rclients : int;
  slices : (float * float) array;
      (** completions per [slice]-second time slice over the measure
          window *)
  mean_per_slice : float;
  completed : int;  (** completions inside the measure window *)
  submitted : int;
  succeeded : int;
  abandoned : int;
  errors : int;  (** failed submissions (after client retries) *)
  budget_start : int;
  budget_end : int;
  floor : int;  (** guaranteed bytes under the run's mode *)
  pool_hit_rate : float;
  cache_hit_rate : float;
}

type outcome = {
  omode : mode;
  oseed : int;
  ototal : int;  (** machine bytes split across the pools *)
  owarmup : float;
  omeasure : float;
  oslice : float;
  tenants : tenant_result list;  (** in [specs] order *)
  arb_ticks : int;
  arb_rebalances : int;
  arb_moved : int;  (** bytes granted to growing pools *)
  arb_reclaimed : int;  (** bytes pulled back through reclaim hooks *)
  arb_scarce : bool;  (** last tick saw aggregate demand > machine *)
}

(** [run ~mode ~total_bytes ~seed ~warmup ~measure ~slice ()] builds one
    engine, one pool per spec ([specs] defaults to the noisy, victim and
    light cast above; each pool starts at its floor plus a
    weight-proportional share of the idle surplus unless [budgets]
    overrides it), spawns each tenant's clients and runs to
    [warmup + measure]. Per-tenant client RNG streams are derived from
    [seed] and the tenant's name — not from split order — so a tenant
    issues the same query stream whether it runs alone or with
    neighbours. The run is a pure function of its arguments: fanning
    several runs over domains cannot change any of their outcomes. *)
val run :
  ?specs:spec list ->
  ?budgets:int list ->
  ?trace:Obs.Trace.t ->
  mode:mode ->
  total_bytes:int ->
  seed:int ->
  warmup:float ->
  measure:float ->
  slice:float ->
  unit ->
  outcome

(** [solo ~victim ...] runs the named tenant alone ({!Static}), at the
    budget it would start with in [Isolated] mode among the full cast —
    the baseline its shared-mode throughput is compared against. *)
val solo :
  ?specs:spec list ->
  ?trace:Obs.Trace.t ->
  victim:string ->
  total_bytes:int ->
  seed:int ->
  warmup:float ->
  measure:float ->
  slice:float ->
  unit ->
  outcome

(** [find_tenant outcome name] — the tenant's result ([Not_found] if
    absent). *)
val find_tenant : outcome -> string -> tenant_result

(** [retention ~shared ~solo] is the victim's shared-mode throughput as
    a fraction of its solo throughput ([1.] = unharmed; [0.] when the
    solo run completed nothing). *)
val retention : shared:tenant_result -> solo:tenant_result -> float
