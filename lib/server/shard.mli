(** One failure domain of a sharded deployment.

    A shard wraps a complete server ({!Dbms}: its own memory manager,
    broker, compile gateways and plan cache) behind a small lifecycle
    state machine, and exposes the fault entry points the
    {!Faultsim.Injector} shard hooks need: {!crash} (hard failure,
    restart after a delay with an {e empty} plan cache) and {!stall}
    (brownout at a fraction of the normal service rate).

    Crash semantics are honest about what a simulator can and cannot do:
    an effect-suspended query process cannot be killed, so in-flight
    queries keep consuming simulated resources, but their completions are
    {e epoch-guarded} — a query that started before the crash returns a
    lost-connection error ({!Health.Error.Shard_unavailable}) to its
    client regardless of how the abandoned execution went. A restarted
    shard rejoins cold: the crash flushes the plan cache and buffer pool
    through the donor chain, so the parameterized workload must recompile
    everything at once, under whatever compile-gateway throttling the
    shard's config enables. *)

type lifecycle = Up | Browned_out | Down | Recovering

val lifecycle_name : lifecycle -> string

(** Stable numeric code for Chrome trace counters
    (0 up, 1 browned-out, 2 down, 3 recovering). *)
val lifecycle_code : lifecycle -> int

type t

(** [create ?trace ?probation eng ~index ~name cfg cat] builds and starts
    the shard's server. [probation] (default 30 s) is how long a
    restarted shard reports [Recovering] before going back to [Up]. *)
val create :
  ?trace:Obs.Trace.t ->
  ?probation:float ->
  Sim.Engine.t ->
  index:int ->
  name:string ->
  Config.t ->
  Optimizer.Catalog.t ->
  t

(** [submit t q] runs the query on this shard's server. While [Down] the
    submission is refused immediately with [Shard_unavailable]; a query
    in flight across a crash returns [Shard_unavailable] (connection
    lost) whatever the abandoned execution did. Must be called from a
    simulation process. *)
val submit : t -> Optimizer.Query.t -> (unit, Health.Error.t) result

(** How a completed {!submit_tracked} was booked in the shard's counters. *)
type booking = [ `Refused | `Lost | `Finished ]

(** {!submit} plus the booking tag, for callers that may later need to
    {!uncount} the completion (hedged dispatch). *)
val submit_tracked :
  t -> Optimizer.Query.t -> (unit, Health.Error.t) result * booking

(** Scrub a completion from the books — the router calls this for the
    losing side of a hedge, whose answer the client never took, so
    duplicate dispatches do not double-book shard throughput. Keeps
    [accepted = finished + lost] intact and counts the scrub in
    {!discarded}. *)
val uncount : t -> booking -> unit

(** Kill the shard now; it restarts (cold caches, [Recovering]) after
    [restart_delay] seconds. No-op when already [Down]. Reclaims the
    server's memory and, when an arbiter pool is attached, marks it
    offline so the share is lent to the surviving shards. *)
val crash : t -> restart_delay:float -> unit

(** Brown the shard out for [duration] seconds: it stays up but serves
    I/O at [slow_factor] of the normal rate. No-op while [Down]. *)
val stall : t -> duration:float -> slow_factor:float -> unit

(** [install_faults eng shards specs] schedules the shard crashes and
    stalls in [specs] through the {!Faultsim.Injector}, so shard
    schedules validate, label and replay like single-server chaos
    schedules. A spec's shard index is taken modulo the number of
    shards. An empty schedule installs nothing and draws no randomness. *)
val install_faults : Sim.Engine.t -> t array -> Faultsim.Fault.spec list -> unit

(** Attach the arbiter pool that owns this shard's memory budget; crash
    and restart toggle its offline flag. *)
val set_pool : t -> Qcore.Arbiter.pool -> unit

val pool : t -> Qcore.Arbiter.pool option

(** Current budget: the attached pool's, or the configured memory. *)
val budget : t -> int

(** Emit an {!Obs.Event.Shard_sample} counter record (periodic). *)
val sample : t -> unit

(** {1 Introspection} *)

val name : t -> string
val index : t -> int
val dbms : t -> Dbms.t
val state : t -> lifecycle
val inflight : t -> int

(** Accepted submissions ([= finished + lost + inflight] at all times). *)
val accepted : t -> int

(** Submissions that returned to their client under the epoch they
    started in (success or error alike). *)
val finished : t -> int

(** Completions discounted because the shard crashed mid-flight. *)
val lost : t -> int

(** Submissions refused at the door while [Down]. *)
val refused : t -> int

(** Completions scrubbed by {!uncount} (losing hedges). *)
val discarded : t -> int

val crashes : t -> int
val stalls : t -> int

(** Plan-cache misses accumulated since the last rejoin — the size of the
    cold-cache recompilation storm actually paid. [0] until a
    crash-restart cycle has completed. *)
val recompiles_after_rejoin : t -> int
