(** Client-facing cache middleware.

    Sits between the workload's clients and a server's submit function: a
    probe on the query's statement serves hits from the cache at a fixed
    small latency — never touching the compile gateways — while misses
    fall through to the engine and the computed result is inserted with a
    simulated payload size and the query's touched-relation set. Writes
    invalidate by relation.

    The cache keys by a small int per statement, not by its SQL text.
    The front end maps each statement the cache holds to its int through
    an {!Optimizer.Query.Statements} table ({!Optimizer.Query.statement_hash}
    and {!Optimizer.Query.same_statement}), and keeps beside the int the
    statement's relation list, computed once. A statement gets its int
    when its result is put and loses it when the entry leaves the cache
    (the cache's drop hook) or the put is refused, so the table holds
    exactly the cache's entries ({!interned} [=] {!Cache.entries}), and
    no SQL is rendered on the way.

    In cache-off mode ([cache = None]) every request is a bypass straight
    to the engine, so the three modes of the cached experiment share one
    code path. *)

type t

(** [create ?trace ?hit_latency eng ~cache ~submit ()]. [hit_latency] is
    the simulated service time of a cache hit in seconds (default
    [0.02]): result transfer from a mid-tier KVS, orders of magnitude
    under a compile-plus-scan. [cache] must be fresh: the front end
    installs its drop hook ({!Cache.set_on_drop}) and expects every entry
    to be its own. *)
val create :
  ?trace:Obs.Trace.t ->
  ?hit_latency:float ->
  Sim.Engine.t ->
  cache:int Cache.t option ->
  submit:(Optimizer.Query.t -> (unit, string) result) ->
  unit ->
  t

(** Process-blocking: serve from the cache or fall through to the engine.
    Must run inside a simulation process. It is {!lookup} at the current
    time; on a hit a sleep of [hit_latency], else the engine and, on
    success, {!store}. *)
val submit : t -> Optimizer.Query.t -> (unit, string) result

(** [lookup t ~now q] counts a request and probes the cache for [q]'s
    statement: [Some bytes] on a hit, [None] on a miss or with the cache
    off (a bypass). Emits the [Midcache_lookup] event. Blocks nothing:
    benchmarks and tests drive it outside a simulation. *)
val lookup : t -> now:float -> Optimizer.Query.t -> int option

(** [store t ~now q] puts [q]'s result into the cache, replacing an
    entry of its statement, and emits [Midcache_store] if it is
    resident. Nothing with the cache off. *)
val store : t -> now:float -> Optimizer.Query.t -> unit

(** A write touching [rels]: drop every cached result joining any of
    them. *)
val write : t -> rels:string list -> unit

(** {1 Key and payload derivation} *)

(** Canonical template (qid with the [#serial] stripped) plus the
    statement text with literal parameters — the fingerprint comment that
    would uniquify replayed parameterized statements is stripped. Two
    queries have one key exactly when they are
    {!Optimizer.Query.same_statement}. The front end does not use it: it
    is the statement's text for reports, and the string key tests and
    benchmarks compare the int keying against. *)
val key_of_query : Optimizer.Query.t -> string

(** Deterministic simulated result size: estimated group-count times row
    width. Pure function of the query structure. *)
val payload_bytes : Optimizer.Query.t -> int

(** Distinct base tables the query joins, in the order they first
    appear. *)
val rels_of_query : Optimizer.Query.t -> string list

(** {1 Introspection} *)

(** Statements holding an int: always the cache's {!Cache.entries}. *)
val interned : t -> int

val requests : t -> int
val hits : t -> int
val misses : t -> int
val bypasses : t -> int
val invalidated_entries : t -> int
