(** Cross-tenant memory arbitration — the layer above the {!Broker}.

    The paper's Memory Broker arbitrates one server's memory between its
    own components; the arbiter generalises that one level up (the
    Resource-Governor shape): several {e resource pools} — one per tenant
    — share one machine, each pool owning its own [Dbmem.Manager] budget
    and running its own broker against it. The arbiter periodically
    samples each pool's brokered demand, fits a {!Trend} per pool, and
    redistributes {e unused reservation} from idle pools to pressured
    ones, subject to per-pool [min_share]/[max_share] fractions of the
    machine. When a donor pool wakes up, its budget is grown back at the
    next tick and the loan is pulled back from the borrower through its
    reclaim hook — so a noisy neighbour can borrow idle memory but can
    never squeeze a well-behaved tenant below its guaranteed floor.

    The arbiter knows nothing about servers: pools register as callbacks
    (usage/demand samplers, a budget setter, a reclaim hook), so the
    module is directly property-testable. *)

type t
type pool

(** {1 The pure planner}

    Exposed separately so the split arithmetic can be property-tested
    without engines or callbacks. *)

type claim = {
  weight : float;  (** > 0; scales the pool's share of surplus *)
  min_share : float;  (** guaranteed floor, fraction of [total] *)
  max_share : float;  (** borrowing cap, fraction of [total] *)
  predicted : int;  (** predicted demand, bytes *)
}

(** [plan ~total claims] splits [total] bytes over the claims and returns
    one budget per claim, in order. Invariants (given
    [0 <= min_share <= max_share <= 1] per claim and
    [sum min_share <= 1]):
    - the budgets sum to at most [total];
    - every budget is at least [floor (min_share * total)] and at most
      [max (floor (min_share * total)) (floor (max_share * total))].

    When aggregate clamped demand fits, every pool is granted its demand
    plus a weight-proportional slice of the surplus (idle reservation
    flows to whoever can use it, up to [max_share]); under scarcity the
    above-floor remainder is split proportionally to weighted unmet
    demand, floors always honoured first. *)
val plan : total:int -> claim list -> int list

(** {1 Live arbitration} *)

(** [create ?trace eng ~total] — nothing runs until {!start}. [total] is
    the physical memory split across the pools. The arbiter ticks every
    2 s and predicts each pool's demand 5 s ahead from a 10-sample trend.
    A planned rebalance whose largest per-pool budget move is at most
    8 MiB (the deadband) is skipped whole, so noise causes no churn. When
    [trace] is an enabled sink every cycle records an
    {!Obs.Event.Arbiter_tick} (and {!Obs.Event.Arbiter_reclaim} for each
    forced pull-back). *)
val create : ?trace:Obs.Trace.t -> Sim.Engine.t -> total:int -> t

(** [register t ~name ~budget ~used ~set_budget ~reclaim ()] adds a pool.
    [budget] is the pool's current budget (the caller created the pool's
    manager at that size); [used] samples bytes in use; [demand], when
    given, is sampled instead of [used] as the pool's memory demand
    (pools report their broker's predicted aggregate here, so a squeezed
    pool trends its unmet demand and wins memory back); [set_budget] is
    called with the new budget on every rebalance that moves this pool;
    [reclaim n], called after a shrink that lands below current usage,
    must make a best effort to free [n] bytes and return the bytes
    actually freed. Registration must happen before {!start}; shares are
    validated cumulatively ([sum min_share <= 1]). *)
val register :
  t ->
  name:string ->
  ?weight:float ->
  ?min_share:float ->
  ?max_share:float ->
  budget:int ->
  used:(unit -> int) ->
  ?demand:(unit -> int) ->
  set_budget:(int -> unit) ->
  reclaim:(int -> int) ->
  unit ->
  pool

(** Begin periodic rebalancing on the engine. *)
val start : t -> unit

(** {1 Introspection} *)

val total : t -> int
val ticks : t -> int

(** [true] when the last tick found predicted aggregate demand above the
    machine (the scarcity branch of the planner ran). *)
val scarce : t -> bool

(** Rebalance cycles that actually moved at least one budget. *)
val rebalances : t -> int

(** Total bytes granted to growing pools across all rebalances. *)
val moved_bytes : t -> int

(** Total bytes pulled back through pool reclaim hooks. *)
val reclaimed_bytes : t -> int

(** The pool's current budget, bytes. *)
val budget : pool -> int

(** The pool's guaranteed floor, bytes ([floor (min_share * total)]). *)
val floor_bytes : pool -> int

(** [set_offline p true] marks the pool's owner (a crashed shard) as down:
    from the next tick its floor and cap collapse to zero, so the whole
    share is lent to the surviving pools and only a one-byte keepalive
    budget remains. [set_offline p false] restores the registered claim;
    the normal shrink-before-grow apply then claws the loan back from the
    borrowers before regrowing the rejoined pool. *)
val set_offline : pool -> bool -> unit

val offline : pool -> bool
