(** Mid-tier statement/result cache — the "intermediate caching layer …
    more like a KVS between the engine and the client".

    Entries are keyed by any key ['k] that [Hashtbl.hash] and [compare]
    handle: the server's front end keys by a small int per statement
    ({!Frontend}), tests and benchmarks by strings. An entry carries a
    simulated result payload size and the relations its result joins,
    and obeys explicit staleness semantics: TTL expiry (an entry exactly
    at its expiry time is a {e miss}) plus write-driven invalidation by
    touched-relation set. Eviction is strict LRU under a byte budget.

    The module is deliberately pure machinery: every operation takes the
    current time explicitly and nothing here touches the simulation clock,
    randomness, or the memory manager directly. Accounting against a
    physical memory manager is wired through the [charge]/[release] hooks,
    so the cache can be a first-class broker component without this
    library depending on the broker. *)

type config = {
  ttl : float;
      (** entry lifetime in seconds; an entry inserted at [t] is served
          only strictly before [t +. ttl]. [<= 0.] disables expiry. *)
  max_entry_bytes : int;
      (** payloads larger than this are refused (never cached) *)
}

val default_config : config

type 'k t

(** [create ?charge ?release ~budget config]. [charge n] is called before
    an insert charges [n] bytes to external accounting (e.g. a memory
    clerk) — returning [false] refuses the bytes, and the cache evicts LRU
    entries and retries a bounded number of times before giving up on the
    insert. [release n] is called whenever [n] resident bytes leave the
    cache for any reason. Defaults accept everything / do nothing. *)
val create :
  ?charge:(int -> bool) -> ?release:(int -> unit) -> budget:int -> config -> 'k t

(** [set_on_drop t f]: call [f key] whenever a resident entry leaves for
    space, expiry or invalidation. A [put] that replaces an entry does
    not call it, and neither does a refused [put]: that key is not
    resident afterwards, and the caller sees [false]. Default: nothing.
    The front end forgets a statement's int here. *)
val set_on_drop : 'k t -> ('k -> unit) -> unit

(** [get t ~now key] probes the cache. A present, unexpired entry returns
    its payload size and becomes most-recently-used; an entry at or past
    its expiry is dropped and counted as both an expiry and a miss. *)
val get : 'k t -> now:float -> 'k -> int option

(** Count a miss without a probe: the caller knows the key is not
    resident (the front end holds an int only for resident
    statements). The same as a [get] of an absent key. *)
val note_miss : 'k t -> unit

(** [put t ~now ~key ~bytes ~rels] inserts (or replaces) an entry whose
    result joins the relations [rels]. LRU entries are evicted until the
    payload fits the budget; payloads over [max_entry_bytes] or the whole
    budget are refused. Returns whether the entry is now resident. *)
val put : 'k t -> now:float -> key:'k -> bytes:int -> rels:string list -> bool

(** Count a request that never consulted the cache (cache-off mode, or an
    uncacheable statement). Keeps the conservation law
    [requests = hits + misses + bypasses] checkable at this layer. *)
val note_bypass : 'k t -> unit

(** [invalidate t rel] drops every entry whose result joins [rel], in
    ascending [compare] order of their keys. Returns [(entries, bytes)]
    dropped. *)
val invalidate : 'k t -> string -> int * int

(** [shrink t n] evicts LRU entries until at least [n] bytes are freed or
    the cache is empty; returns the bytes actually freed. Within one call
    the resident size is strictly decreasing — a reclaim never re-grows. *)
val shrink : 'k t -> int -> int

(** [set_budget t n] re-targets the byte budget (the broker's lever),
    evicting LRU entries if the cache is over the new budget. *)
val set_budget : 'k t -> int -> unit

(** {1 Introspection} *)

val budget : 'k t -> int
val resident : 'k t -> int
val entries : 'k t -> int

(** [mem t key] — residency without touching stats or recency (tests). *)
val mem : 'k t -> 'k -> bool

(** Resident bytes plus bytes evicted (for space, not staleness) since the
    last call — evicted-then-wanted-again is unmet demand, the same hint
    shape the plan cache and buffer pool report to the broker. *)
val demand_hint : 'k t -> int

val hits : 'k t -> int
val misses : 'k t -> int
val bypasses : 'k t -> int

(** [requests t = hits t + misses t + bypasses t]. *)
val requests : 'k t -> int

val stores : 'k t -> int
val refused : 'k t -> int  (** inserts that could not be accommodated *)

(** Entries evicted for space (LRU / shrink). *)
val evictions : 'k t -> int

val expired : 'k t -> int
val invalidated : 'k t -> int

(** Shrink calls that freed at least one byte. *)
val shrinks : 'k t -> int

val shrunk_bytes : 'k t -> int

(** [0.] on an empty history, never [nan]. *)
val hit_rate : 'k t -> float

val pp : Format.formatter -> 'k t -> unit
