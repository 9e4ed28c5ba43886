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

(** [create ?trace eng manager] — nothing runs until {!start}. The
    broker ticks every second and predicts each component's usage 5 s
    ahead from a 10-sample trend. Its verdicts are advisory, as in the
    paper: the broker notifies and each component decides how to comply.

    When [trace] is an enabled sink, every tick records an
    {!Obs.Event.Broker_tick} with per-component samples and verdicts. *)
val create : ?trace:Obs.Trace.t -> Sim.Engine.t -> Dbmem.Manager.t -> t

(** [register t ~name ~clerk ?weight ?min_bytes ?demand ?notify ()] adds a
    subcomponent. [weight] scales its share under pressure (default [1.]);
    [min_bytes] is a floor on its target; [demand], when given, is sampled
    each tick instead of the clerk's usage as the component's memory demand
    — caches use it to report unmet demand (e.g. resident bytes plus recent
    miss inflow), without which a squeezed cache would trend flat and never
    win its memory back; [notify] is invoked on every tick with the
    component's current notification. [reclaim] is accepted and
    ignored: the broker never reclaims by force. It stays only because
    [perfbench/workloads.ml] still passes it. *)
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

(** Latest notification computed for this component ([None] before the
    first tick). *)
val last_notification : component -> notification option

(** Current target; before any tick this is the component's even share. *)
val target : component -> int

val pp : Format.formatter -> t -> unit
