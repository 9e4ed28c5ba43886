(** The supervision layer as one switch: a watchdog, a starvation
    auditor and per-template circuit breakers, plus broker insistence.

    The parts are always built, so their counters can always be read.
    Off is inert: {!start} installs no timer, {!admit} admits everyone,
    {!watch} opens no session and the breakers book no template. No part
    consumes randomness, so an unsupervised run replays the seed
    pipeline, and a supervised run that never intervenes matches it. *)

(** Broker insistence under supervision: a component above its shrink
    target for this many consecutive ticks is reclaimed by force (5). *)
val insist_after : int

type t = {
  enabled : bool;
  watchdog : Watchdog.t;
  starvation : Starvation.t;  (** gates are added by the caller *)
  breakers : Breaker.t;
}

val create : ?trace:Obs.Trace.t -> Sim.Engine.t -> enabled:bool -> t

(** Start the watchdog and starvation audits; a no-op when off. *)
val start : t -> unit

(** The {!Breaker} calls when on; [Ok ()] and no-ops when off. *)
val admit : t -> template:string -> (unit, Error.t) result

val release_probe : t -> template:string -> unit
val record_success : t -> template:string -> unit
val record_failure : t -> template:string -> unit

(** A watchdog session for the query when on; [None] when off. *)
val watch : t -> qid:string -> Watchdog.session option

(** End the session, if any. *)
val unwatch : t -> Watchdog.session option -> unit
