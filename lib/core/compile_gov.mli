(** Query-compilation throttling governor (paper §4).

    Every compilation runs inside a {!session}. The optimizer reports its
    memory demand through {!alloc}; the governor checks the demand against
    the gateway ladder and makes the compilation {e block} at a monitor when
    it crosses that monitor's threshold while no slot is free. Blocking is
    tied to memory allocated, not to fixed points in the compilation
    process, which is what makes the mechanism robust across schema designs
    and workloads. Monitors are released in reverse order when the
    compilation ends, and all compile memory is freed at once (optimizer
    memory is arena-managed).

    The governor also implements the paper's two extensions:
    - {e dynamic thresholds}: when a {!Broker.notification} for the compile
      component arrives (see {!on_notification}), entry thresholds of the
      larger gateways are recomputed as [target * F / S];
    - {e best-plan-so-far}: under severe pressure {!should_stop_early}
      becomes [true] and a cooperating optimizer finishes with the best
      complete plan already found instead of running out of memory. *)

type t

(** [create eng manager ?trace ~clerk ~cpus ~config ~enabled ()]. With
    [enabled = false] the governor only does clerk accounting — the
    unthrottled baseline of Figures 3-5. [trace], when enabled, records
    compile begin/alloc/end and every gateway wait (it is passed down to
    the ladder's monitors). *)
val create :
  Sim.Engine.t ->
  Dbmem.Manager.t ->
  ?trace:Obs.Trace.t ->
  clerk:Dbmem.Manager.clerk ->
  cpus:int ->
  config:Throttle_config.t ->
  enabled:bool ->
  unit ->
  t

(** {1 Storm defense} *)

(** Seconds a monitor's queue must stand before the adaptive flip (20). *)
val lifo_after_s : float

(** The metastable-failure defense at the gateway ladder, off by default
    so the paper's baseline behaviour is untouched. When on, a monitor
    whose queue has been continuously standing for {!lifo_after_s} flips
    its service order to newest-first (and back once it drains) —
    post-storm, the newest waiter is the one whose caller has not yet
    given up. *)
val set_adaptive_lifo : t -> bool -> unit

(** FIFO->LIFO flips so far (re-flips to FIFO are not counted). *)
val lifo_shifts : t -> int

(** {1 Sessions} *)

type session

(** [begin_compile t] registers a new compilation (initially below the
    first threshold, hence unthrottled). [qid] labels the session's trace
    records. *)
val begin_compile : ?qid:string -> t -> session

(** [alloc s n] reports [n] more bytes of compile memory demand. May block
    the calling process at one or more monitors. On [Error] the compilation
    must be abandoned: call {!end_compile} to release everything. Errors
    carry the structured taxonomy: a gateway timeout surfaces as
    {!Health.Error.Memory_wait_timeout} (8645) with the monitor's name as
    detail, a failed physical allocation as
    {!Health.Error.Insufficient_memory} (701). *)
val alloc : session -> int -> (unit, Health.Error.t) result

(** [free s n] returns [n] bytes early (does not release monitors; real
    optimizers release their arenas only at the end of compilation). *)
val free : session -> int -> unit

(** [end_compile s] releases held monitors in reverse order and frees all
    remaining session memory. Idempotent. *)
val end_compile : session -> unit

val usage : session -> int
val peak : session -> int

(** Number of monitors currently held (0 = below the first threshold). *)
val level : session -> int

(** {1 Broker integration} *)

(** Feed the compile component's broker notification to the governor (wire
    this as the [notify] callback of {!Broker.register}). *)
val on_notification : t -> Broker.notification -> unit

(** Latest compile-memory target learned from the broker (0 if none). *)
val broker_target : t -> int

(** Compile-memory pressure ladder, derived from the latest broker
    notification. [Calm]: no shrink demanded. [Elevated]: the broker wants
    compile memory released. [Critical]: predicted usage far overshoots
    the target — exhaustion territory. Always [Calm] when the governor is
    disabled. The server's graceful-degradation ladder keys off this. *)
type pressure = Calm | Elevated | Critical

val pressure : t -> pressure

(** [true] when compilations should wrap up with their best plan so far
    (equivalent to [pressure t = Critical]). *)
val should_stop_early : t -> bool

(** {1 Introspection} *)

val enabled : t -> bool

(** Current entry threshold of level [i] (dynamic if configured). *)
val threshold : t -> int -> int

(** [population t i] is the number of sessions holding exactly [i]
    monitors. *)
val population : t -> int -> int

val active_sessions : t -> int
val monitors : t -> Monitor.t array
val clerk : t -> Dbmem.Manager.clerk
val pp : Format.formatter -> t -> unit
