(** Compiled-plan cache.

    Plans are cached under the query fingerprint. Ad-hoc workloads whose
    uniquifier defeats fingerprint matching (the paper's SALES load
    generator) fill the cache with single-use plans; under memory pressure
    the broker's shrink verdict — and the manager's donor mechanism —
    evict them, which in the un-throttled configuration of the paper shows
    up as "excessive eviction of compiled plans ... forcing additional
    compilation CPU load in the future". Eviction is cost-aware: the entry
    with the smallest [recompile_cost * uses / size] goes first (the same
    shape as SQL Server's plan-cache cost policy). *)

type t

val create : clerk:Dbmem.Manager.clerk -> t

(** [lookup t key] returns the cached plan and bumps its use count. *)
val lookup : t -> string -> Optimizer.Plan.t option

(** [insert t ~key ~plan ~compile_cost] stores a plan; its memory footprint
    is {!Optimizer.Plan.size_bytes}. If the manager cannot supply memory
    even after donor reclaim, the cache evicts its own low-value entries;
    if still impossible the plan is simply not cached. Replaces any
    existing entry under the same key. *)
val insert : t -> key:string -> plan:Optimizer.Plan.t -> compile_cost:float -> unit

(** [shrink t n] evicts lowest-value entries until [n] bytes are freed (or
    the cache is empty); returns bytes freed. Donor hook. *)
val shrink : t -> int -> int

val entries : t -> int
val bytes : t -> int

(** Broker demand signal: resident bytes plus bytes evicted since the
    previous call (eviction churn is unmet demand). Resets the churn
    window — one caller per cache. *)
val demand_hint : t -> int
val hits : t -> int
val misses : t -> int
val evictions : t -> int

(** Hit fraction over all lookups so far ([0.] before any lookup). *)
val hit_rate : t -> float
val pp : Format.formatter -> t -> unit
