(** Client-facing cache middleware.

    Sits between the workload's clients and a server's submit function: a
    probe on the canonical statement text serves hits from the cache at a
    fixed small latency — never touching the compile gateways — while
    misses fall through to the engine and the computed result is inserted
    with a simulated payload size and the query's touched-relation set.
    Writes invalidate by relation.

    In cache-off mode ([cache = None]) every request is a bypass straight
    to the engine, so the three modes of the cached experiment share one
    code path. *)

type t

(** [create ?trace ?hit_latency eng ~cache ~submit ()]. [hit_latency] is
    the simulated service time of a cache hit in seconds (default
    [0.02]): result transfer from a mid-tier KVS, orders of magnitude
    under a compile-plus-scan. *)
val create :
  ?trace:Obs.Trace.t ->
  ?hit_latency:float ->
  Sim.Engine.t ->
  cache:Cache.t option ->
  submit:(Optimizer.Query.t -> (unit, string) result) ->
  unit ->
  t

(** Process-blocking: serve from the cache or fall through to the engine.
    Must run inside a simulation process. *)
val submit : t -> Optimizer.Query.t -> (unit, string) result

(** A write touching [rels]: drop every cached result joining any of
    them. *)
val write : t -> rels:string list -> unit

(** {1 Key and payload derivation} *)

(** Canonical template (qid with the [#serial] stripped) plus the
    statement text with literal parameters — the fingerprint comment that
    would uniquify replayed parameterized statements is stripped. *)
val key_of_query : Optimizer.Query.t -> string

(** Deterministic simulated result size: estimated group-count times row
    width. Pure function of the query structure. *)
val payload_bytes : Optimizer.Query.t -> int

(** Distinct base tables the query joins. *)
val rels_of_query : Optimizer.Query.t -> string list

(** {1 Introspection} *)

val requests : t -> int
val hits : t -> int
val misses : t -> int
val bypasses : t -> int
val invalidated_entries : t -> int
