(** The Memory Broker (paper §3).

    The broker periodically samples the memory usage of every registered
    subcomponent, fits a trend, predicts near-future usage, and — when the
    predicted aggregate exceeds the brokered budget — computes a per-
    component {e target}. Each component is then notified whether it may
    keep growing, should hold its allocation rate, or must release memory
    down to its target. When the system is not under pressure the broker
    takes no action ("the system behaves as if the Memory Broker was not
    there"). *)

type t
type component

type verdict =
  | Can_grow  (** may continue to consume memory *)
  | Hold_rate  (** may allocate at the current rate, no faster *)
  | Must_shrink  (** must release memory down to [target] *)

type notification = {
  verdict : verdict;
  target : int;  (** bytes this component should converge to *)
  predicted : int;  (** broker's usage prediction at the horizon *)
  pressure : bool;  (** whether the system as a whole is under pressure *)
}

(** Fraction of physical memory kept out of brokerage (fixed structures,
    thread stacks, ...): 5%. *)
val reserved_fraction : float

(** [create ?trace ?insist_after eng manager] — nothing runs until
    {!start}. The broker ticks every second and predicts each
    component's usage 5 s ahead from a 10-sample trend.

    [insist_after] enforces shrink compliance: a component whose usage
    stays above target without falling for this many consecutive
    [Must_shrink] ticks gets a forced reclaim through its [reclaim] hook.
    Components without a hook (the ballast, external consumers) cannot be
    forced — they are outside the broker's writ. [0] (the default)
    disables insistence: notifications stay advisory.

    When [trace] is an enabled sink, every tick records an
    {!Obs.Event.Broker_tick} with per-component samples and verdicts. *)
val create :
  ?trace:Obs.Trace.t -> ?insist_after:int -> Sim.Engine.t -> Dbmem.Manager.t -> t

(** [register t ~name ~clerk ?weight ?min_bytes ?demand ?notify ()] adds a
    subcomponent. [weight] scales its share under pressure (default [1.]);
    [min_bytes] is a floor on its target; [demand], when given, is sampled
    each tick instead of the clerk's usage as the component's memory demand
    — caches use it to report unmet demand (e.g. resident bytes plus recent
    miss inflow), without which a squeezed cache would trend flat and never
    win its memory back; [notify] is invoked on every tick with the
    component's current notification; [reclaim], when given, is how the
    broker insists — called with the bytes of overage when the component
    has ignored [insist_after] consecutive shrink verdicts without its
    usage falling, returning the bytes actually freed. Components without
    a hook are never forced. *)
val register :
  t ->
  name:string ->
  clerk:Dbmem.Manager.clerk ->
  ?weight:float ->
  ?min_bytes:int ->
  ?demand:(unit -> int) ->
  ?notify:(notification -> unit) ->
  ?reclaim:(int -> int) ->
  unit ->
  component

(** Begin periodic ticking on the engine. *)
val start : t -> unit

val stop : t -> unit

(** Run one broker cycle immediately (also what the periodic task does).
    Exposed for unit tests and for components that want a fresh view. *)
val tick : t -> unit

(** {1 Introspection} *)

(** Budget the broker distributes: [total * (1 - reserved_fraction)]. *)
val brokered_bytes : t -> int

(** [true] when the last tick found predicted demand above the budget. *)
val under_pressure : t -> bool

val ticks : t -> int

(** Sum of the last tick's per-component demand predictions, bytes
    ([0] before the first tick). This is the server's aggregate memory
    appetite — the tenant arbiter samples it as the pool's demand
    signal. *)
val predicted_total : t -> int

(** Forced reclaims performed so far (shrink-compliance interventions). *)
val forced_reclaims : t -> int

(** Latest notification computed for this component ([None] before the
    first tick). *)
val last_notification : component -> notification option

(** Current target; before any tick this is the component's even share. *)
val target : component -> int

val pp : Format.formatter -> t -> unit
