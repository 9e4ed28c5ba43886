(** Health-aware query routing across shards.

    Placement is consistent hashing: each shard owns 40 points on a
    ring keyed by FNV-1a of the shard name; a query's template hashes
    onto the ring and walks forward to its {e home} shard. The walk skips
    shards that are [Down] and shards whose per-shard circuit breaker
    ({!Health.Breaker}, one cell per shard name) refuses the arrival —
    such placements are {e spills}: the template runs on the next shard
    along until its primary heals, then snaps home (the ring itself never
    changes, so there is no rebalancing step and the cache investment on
    the home shard is waiting when it returns).

    Failures are handled with the same deterministic ladder clients get
    inside one server: retryable errors re-route (the crashed shard now
    refuses instantly, so the retry lands elsewhere) with
    {!Resilience.backoff} jitter (a 1 s curve with 20% jitter) from a
    dedicated split stream, up to 2 re-routes. With [hedge], a submission
    whose home shard is [Browned_out] is {e hedged}: dispatched to the
    slow primary and, if still unresolved after 20 s, also to a healthy
    alternate — first completion wins, the loser's work is wasted. *)

type t

(** [hedge] defaults to [false]. *)
val create :
  ?trace:Obs.Trace.t -> ?hedge:bool -> Sim.Engine.t -> Shard.t array -> t

(** Route and run one query; must be called from a simulation process.
    [Error Shard_unavailable] with detail ["no shard available"] when
    every shard is down or breaker-refused after all retries.

    [budget], when given, is the calling client's retry token bucket:
    each re-route spends a token {e before} backing off, and a client
    whose bucket is empty fails fast with {!Health.Error.Retry_budget_exhausted}
    instead of amplifying the storm; a successful submission earns back a
    fraction of a token. Without a budget, behaviour is byte-identical to
    before the defense existed. *)
val submit :
  ?budget:Resilience.Budget.t ->
  t ->
  Optimizer.Query.t ->
  (unit, Health.Error.t) result

(** {!submit} with the error rendered for the client callback. *)
val submit_catch :
  ?budget:Resilience.Budget.t -> t -> Optimizer.Query.t -> (unit, string) result

(** Shard indices in ring-walk order for a template (head = home shard).
    Pure; exposed for tests. *)
val preference : t -> template:string -> int list

(** Latencies (µs) of submissions that {e started} at or after this time
    are recorded in {!latency}; default [0.]. *)
val set_measure_from : t -> float -> unit

(** {1 Introspection} *)

val shards : t -> Shard.t array
val breakers : t -> Health.Breaker.t
val latency : t -> Obs.Hist.t

(** Conservation: [submitted = ok + failed + in_flight] at all times;
    [rejected] (no shard available) is a subset of [failed]. *)
val submitted : t -> int

val ok : t -> int
val failed : t -> int
val rejected : t -> int
val spills : t -> int
val hedges : t -> int
val hedge_wins : t -> int

val retries : t -> int

(** Retries refused because the client's {!Resilience.Budget} was empty. *)
val budget_denials : t -> int

val in_flight : t -> int
