(** Server configuration. {!default} models the paper's testbed: 8 CPUs,
    4 GB of memory, 8 SCSI disks in RAID-0 (§5.2). *)

(** The metastable-failure (storm) defense stack — see DESIGN.md §11 —
    as one switch: it is on exactly when [d_budget] is [Some]. On, the
    server coalesces concurrent compiles of one canonical statement
    ({!Plancache.Singleflight}), flips a gateway queue FIFO->LIFO under
    sustained standing ({!Qcore.Compile_gov.set_adaptive_lifo}), runs the
    {!Health.Storm} miss-storm detector and warm-primes a rejoining
    shard's plan cache; the storm scenario gives each client the retry
    budget. Off in {!no_defense}, the default, so pre-existing
    configurations replay their seed byte-for-byte. *)
type defense = {
  d_budget : Resilience.Budget.config option;
      (** per-client retry token bucket; [None] = the stack is off and
          retries are unconditional *)
}

val no_defense : defense

(** Every defense on at default strength (the storm experiment's
    defenses-on arm). *)
val defended : defense

(** Whether the stack is on: [d_budget <> None]. *)
val defense_on : defense -> bool

(** Buffer-pool granule: 4 MiB. *)
val page_bytes : int

(** Seek time of one disk spindle: 8 ms. *)
val disk_seek_s : float

type t = {
  cpus : int;
  memory_bytes : int;
  disk_spindles : int;
  disk_throughput : float;  (** bytes/second per spindle *)
  pool_policy : Bufpool.Policy.kind;
  throttle : Qcore.Throttle_config.t;
  throttle_enabled : bool;
  optimizer_params : Optimizer.Cascades.params;
  cost_model : Optimizer.Cost.model;
  grant_timeout : float;
  min_pool_bytes : int;  (** broker floor for the buffer pool *)
  min_workspace_bytes : int;  (** broker floor / clamp for grants *)
  plan_cache_floor_bytes : int;
      (** bytes of plan cache shielded from donor reclaim and broker
          shrink verdicts; 0 (the default) leaves the cache fully
          donatable, the pre-sharding behaviour *)
  seed : int;
  resilience : bool;
      (** the {!Resilience} retry/degrade/shed policy; off by default *)
  supervision : bool;
      (** the {!Health.Supervise} layer: watchdog, circuit breakers and
          broker insistence; off by default *)
  defense : defense;  (** storm defenses; {!no_defense} by default *)
  faults : Faultsim.Fault.spec list;
      (** chaos schedule injected by {!Experiment.run} / [dbsim chaos];
          empty for benign runs *)
}

val default : unit -> t

(** [default] with the full resilience policy switched on. *)
val resilient : unit -> t

(** [resilient] plus the supervision layer. *)
val supervised : unit -> t

(** [default] with throttling disabled (the paper's baseline lines). *)
val unthrottled : unit -> t

(** [for_pool ~seed bytes] is {!default} on [bytes] of memory, with the
    buffer-pool and workspace broker floors capped at an eighth of it so
    they fit a pool that is a small slice of a machine. *)
val for_pool : seed:int -> int -> t

val pp : Format.formatter -> t -> unit
