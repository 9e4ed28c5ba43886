(** The supervision layer as one switch: per-template circuit breakers,
    plus broker insistence.

    The breakers are always built, so their counters can always be read.
    Off is inert: {!admit} admits everyone and the breakers book no
    template. No part consumes randomness, so an unsupervised run replays
    the seed pipeline, and a supervised run that never intervenes
    matches it. *)

(** Broker insistence under supervision: a component above its shrink
    target for this many consecutive ticks is reclaimed by force (5). *)
val insist_after : int

type t = {
  enabled : bool;
  breakers : Breaker.t;
}

val create : ?trace:Obs.Trace.t -> Sim.Engine.t -> enabled:bool -> t

(** The {!Breaker} calls when on; [Ok ()] and no-ops when off. *)
val admit : t -> template:string -> (unit, Error.t) result

val release_probe : t -> template:string -> unit
val record_success : t -> template:string -> unit
val record_failure : t -> template:string -> unit
