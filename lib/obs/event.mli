(** Typed query-lifecycle trace events.

    Every decision point of the simulated DBMS that the paper's evaluation
    depends on being able to {e see} — compile start/finish, each gateway
    acquire-wait/acquired/timeout/release, broker ticks with per-component
    targets and verdicts, grant-queue entry/grant/spill, and the
    retry/degrade decisions of the resilience ladder — has a typed
    event here. Events are pure data: this module depends on nothing, so
    every layer of the system (including [dbmem], which knows nothing about
    the simulation clock) can emit them. Building one allocates, so
    emitters on hot paths (the governor's per-allocation record, the
    memory manager's reclaim and OOM records) build it only after
    {!Trace.enabled} says the trace will keep it. *)

(** Argument values for {!Custom} events and the exporters. *)
type value = I of int | F of float | S of string | B of bool

(** Lifecycle of a wait on an admission-controlled resource (a gateway
    monitor or the grant semaphore): a waiter appears ([Wait]), is admitted
    ([Acquired]) or gives up ([Timeout]), and eventually gives its slot back
    ([Release]). *)
type wait_phase = Wait | Acquired | Timeout | Release

(** The broker's per-component verdict, in trace vocabulary: [Grow] = may
    keep allocating, [Stable] = hold the current rate, [Shrink] = release
    down to the target. *)
type broker_verdict = Grow | Stable | Shrink

val verdict_name : broker_verdict -> string

type component_sample = {
  comp : string;
  used : int;
  predicted : int;
  target : int;
  verdict : broker_verdict;
}

(** One tenant pool's view in an {!Arbiter_tick}: bytes in use, the
    arbiter's demand prediction at its horizon, and the physical budget
    the pool's own manager was (re)sized to. *)
type pool_sample = {
  pool : string;
  pool_used : int;
  pool_predicted : int;
  pool_budget : int;
}

type t =
  | Compile_begin  (** a compilation session opened (span begin) *)
  | Compile_alloc of { bytes : int; usage : int }
      (** the session's demand grew by [bytes] to [usage] (post-gateway) *)
  | Compile_end of { peak : int }  (** session closed; peak bytes reached *)
  | Gateway of { gate : string; phase : wait_phase; priority : int }
      (** admission at the named monitor; [priority] is the progress-based
          queue priority (lower is served first), meaningful on [Wait] *)
  | Broker_tick of {
      pressure : bool;
      budget : int;
      components : component_sample list;
    }
  | Grant of { phase : wait_phase; bytes : int }
      (** workspace-grant queue entry/grant/timeout/release of [bytes] *)
  | Exec_begin
  | Exec_end of { granted : int; ideal : int; spilled : bool; pages : int }
  | Spill of { bytes : int }  (** workspace shortfall written to disk *)
  | Retry of { attempt : int; pause_s : float; kind : string }
      (** resilience ladder: attempt [attempt] failed with [kind], backing
          off [pause_s] seconds before the next attempt *)
  | Degrade of { rung : string }
      (** the query fell down the degradation ladder (e.g. greedy plan) *)
  | Cache_hit  (** plan served from the plan cache; no compile memory *)
  | Query_error of { kind : string }  (** final failure recorded *)
  | Mem of { clerk : string; used : int }  (** periodic memory sample *)
  | Oom of { clerk : string; requested : int; free : int }
  | Reclaim of { wanted : int; freed : int }
      (** donor shrink: the manager asked caches to give memory back *)
  | Breaker_open of { shard : string }
      (** a router's circuit breaker for [shard] tripped open *)
  | Breaker_close of { shard : string }
      (** circuit breaker recovered (half-open probe succeeded) *)
  | Arbiter_tick of {
      scarce : bool;  (** predicted aggregate demand exceeds the machine *)
      total : int;  (** physical bytes the arbiter splits across pools *)
      pools : pool_sample list;
    }  (** one cross-pool rebalance cycle of the tenant memory arbiter *)
  | Arbiter_reclaim of { pool : string; wanted : int; freed : int }
      (** the arbiter shrank a donor pool below its usage and pulled the
          overage back through the pool's reclaim hook *)
  | Shard_state of { shard : string; from_state : string; to_state : string }
      (** a shard's failure-domain lifecycle moved, e.g. up -> down on a
          crash, down -> recovering on restart, recovering -> up once the
          cold-cache probation window drains *)
  | Route of { shard : string; template : string; spill : bool; hedged : bool }
      (** the router placed a query on [shard]; [spill] marks an overflow
          placement past an unhealthy primary, [hedged] a duplicate
          dispatch racing a browned-out primary *)
  | Shard_sample of {
      shard : string;
      s_state : int;  (** lifecycle as a counter: 0 up, 1 browned-out,
                          2 down, 3 recovering *)
      s_inflight : int;
      s_budget : int;
    }  (** periodic per-shard counters for the Chrome trace *)
  | Midcache_lookup of { hit : bool; bytes : int }
      (** mid-tier statement cache probe; [bytes] is the payload served on
          a hit, [0] on a miss *)
  | Midcache_store of { bytes : int; resident : int }
      (** a computed result entered the mid-tier cache; [resident] is the
          cache's footprint after the insert *)
  | Midcache_invalidate of { relation : string; entries : int; bytes : int }
      (** a write touched [relation]: every cached result joining it was
          dropped ([entries] entries, [bytes] bytes) *)
  | Midcache_shrink of { wanted : int; freed : int }
      (** the broker squeezed the mid-tier cache: asked for [wanted]
          bytes, evicting LRU entries released [freed] *)
  | Midcache_sample of {
      resident : int;
      mc_budget : int;
      mc_entries : int;
      hit_rate_pct : int;
    }  (** periodic mid-tier cache counters for the Chrome trace *)
  | Storm_begin of { misses : int; baseline : float }
      (** the storm detector saw a compile-miss surge: [misses] arrivals in
          the current window against an EWMA [baseline] per window *)
  | Storm_end of { duration_s : float }
      (** the miss surge subsided after the required calm windows *)
  | Singleflight_coalesce of { template : string; waiters : int }
      (** a duplicate compile of [template] coalesced onto the in-flight
          leader; [waiters] sessions are now sharing that optimization *)
  | Queue_shift of { gate : string; lifo : bool }
      (** a gateway's queue discipline flipped ([lifo] true: newest-first
          under sustained standing; false: back to FIFO) *)
  | Custom of { cat : string; name : string; args : (string * value) list }

(** Short display name of the form ["<category>:<what>"], e.g.
    ["gateway:acquired"]; a custom event's is ["<cat>:<name>"]. *)
val name : t -> string

(** Coarse grouping used by exporters and summaries: the prefix of
    {!name} up to its first [':'], one of ["compile"], ["gateway"],
    ["broker"], ["grant"], ["exec"], ["resilience"], ["mem"], ["health"],
    ["arbiter"], ["shard"], ["midcache"] or ["storm"]; a custom event's
    own [cat]. *)
val category : t -> string
