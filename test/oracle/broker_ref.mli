(** The list-based broker cycle that {!Qcore.Broker} replaced: the
    components in a reversed list, each tick's samples, predictions and
    targets as lists of tuples, the pressure split by [List.partition]
    and [List.assq], and the trend of {!Trend_ref}. It has no timer and no
    trace. A test oracle for {!Qcore.Broker}, which must give the same
    targets, notifications, pressure and predicted total. *)

type t
type component

val create : Sim.Engine.t -> Dbmem.Manager.t -> t

val register :
  t ->
  name:string ->
  clerk:Dbmem.Manager.clerk ->
  ?weight:float ->
  ?min_bytes:int ->
  ?demand:(unit -> int) ->
  ?notify:(Qcore.Broker.notification -> unit) ->
  unit ->
  component

val tick : t -> unit
val brokered_bytes : t -> int
val under_pressure : t -> bool
val predicted_total : t -> int
val last_notification : component -> Qcore.Broker.notification option
val target : component -> int
