(** The assembled DBMS: memory manager and broker, compile governor and
    optimizer, plan cache, buffer pool, execution grants and CPU pool,
    wired exactly as §3-4 describe.

    {!submit} is the whole life of a query — plan-cache probe, governed
    compilation, grant acquisition, simulated execution — and must be
    called from a simulation process (it blocks at gateways, grants, CPUs
    and the disk). *)

type t

(** [create ?trace eng cfg cat]. [trace], when an enabled sink, is threaded
    through every subsystem: the broker, the gateway monitors, the compile
    governor, the grant queue, the runner, the memory manager and the
    metrics sampler all record into it. Tracing never consumes randomness
    or simulated time, so a traced run is event-for-event identical to an
    untraced one. *)
val create : ?trace:Obs.Trace.t -> Sim.Engine.t -> Config.t -> Optimizer.Catalog.t -> t

(** Queries are named ["<template>#<serial>"]; this strips the serial
    (identity on ids without a ['#']). The router places by it. *)
val template_of_qid : string -> string

(** Start the broker ticks and memory sampling. *)
val start : t -> unit

(** Process-blocking end-to-end query execution, as a pipeline of
    stages: attempts of plan (plan-cache probe, governed compilation on
    the ladder's rung)
    and exec (grant acquisition, simulated execution), with a backoff
    between attempts after a transient failure, then settle (the one
    terminal outcome is booked). With [config.resilience] off (the
    default) the behaviour is the seed pipeline exactly. Every failure
    carries a structured {!Health.Error.t}. *)
val submit : t -> Optimizer.Query.t -> (unit, Health.Error.t) result

(** {!submit} with the error rendered as a string (client callback form). *)
val submit_catch : t -> Optimizer.Query.t -> (unit, string) result

(** {1 Storm defense}

    Driven by {!Config.defense}. Singleflight always runs — in [Observe]
    mode (defenses off) it only counts the duplicate compiles coalescing
    would have saved; with the defenses on, concurrent compiles of one
    canonical statement coalesce onto the leader's optimization. *)

val singleflight : t -> Plancache.Singleflight.t
val storm_detector : t -> Health.Storm.t

(** Schedule the configured [config.faults] against this server; [None]
    when the schedule is empty. [spawn_burst], when given, realises
    {!Faultsim.Fault.Client_burst} specs (the caller owns the workload);
    without it burst specs are inert. Call once, before running the
    engine. *)
val install_faults :
  ?spawn_burst:(clients:int -> think_mean:float -> until:float -> unit) ->
  t ->
  Faultsim.Injector.t option

(** [reclaim t n] frees roughly [n] bytes through the manager's donor
    chain (plan cache first, then buffer pool) and returns the bytes
    actually freed. This is the server's answer to external memory
    pressure — the tenant arbiter calls it after shrinking the server's
    budget below its usage. *)
val reclaim : t -> int -> int

(** [join_arbiter t arb ~name ~weight ~min_share ~max_share ~budget]
    registers the server as one of [arb]'s pools. The arbiter sizes the
    whole server: the pool's demand is the broker's aggregate prediction
    scaled back up by the reserved fraction the broker holds out, its
    usage and budget are the memory manager's, and it reclaims through
    {!reclaim}. *)
val join_arbiter :
  t ->
  Qcore.Arbiter.t ->
  name:string ->
  weight:float ->
  min_share:float ->
  max_share:float ->
  budget:int ->
  Qcore.Arbiter.pool

(** Snapshot the server's books: completions, the per-code error budget
    and queries still in flight. [since] bounds the completion count and
    duration (default [0.]). *)
val health_report : t -> ?since:float -> unit -> Health.Report.t

(** {1 Component access (metrics, tests, benches)} *)

val engine : t -> Sim.Engine.t

(** The sink passed to {!create} ({!Obs.Trace.null} by default). *)
val trace : t -> Obs.Trace.t

val config : t -> Config.t
val metrics : t -> Metrics.t
val manager : t -> Dbmem.Manager.t
val broker : t -> Qcore.Broker.t
val governor : t -> Qcore.Compile_gov.t
val pool : t -> Bufpool.Pool.t
val disk : t -> Bufpool.Disk.t
val plan_cache : t -> Plancache.Cache.t
val grants : t -> Execsim.Grant.t
val cpu : t -> Execsim.Cpu.t

(** Memory clerks by component name
    (["bufpool"; "plancache"; "compile"; "execution"], plus ["ballast"]
    when a fault schedule is configured). *)
val clerks : t -> (string * Dbmem.Manager.clerk) list

(** The phantom external consumer's clerk ([None] without faults). *)
val ballast_clerk : t -> Dbmem.Manager.clerk option
