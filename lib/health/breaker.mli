(** Per-template circuit breakers.

    A query template that keeps failing hard (compile OOM, gateway
    timeouts) burns a scarce gateway slot on every attempt. The breaker
    sheds such a template at the door instead: after 3 consecutive hard
    failures the template's breaker trips {e open} and admissions are
    refused with {!Error.Breaker_open}. After a 60 s cooldown of
    simulated time the breaker goes {e half-open} and admits exactly one
    probe query; if the probe succeeds the breaker closes, if it fails
    the breaker re-opens for another cooldown. Probe admission is deterministic (first arrival
    after the cooldown wins) — no randomness is consumed, so enabling
    breakers cannot perturb a run that never trips one. *)

type state = Closed | Open | Half_open

val state_name : state -> string

type t
(** A registry of breakers, lazily keyed by template name. *)

val create : ?trace:Obs.Trace.t -> Sim.Engine.t -> t

val admit : t -> template:string -> (unit, Error.t) result
(** Gate an arrival of [template]. [Ok ()] admits (and in half-open marks
    this query as the probe); [Error] carries {!Error.Breaker_open}. *)

val record_success : t -> template:string -> unit
(** The admitted query completed. Resets the failure streak; closes a
    half-open breaker (emitting [Breaker_close]). *)

val record_failure : t -> template:string -> unit
(** The admitted query failed {e hard}. Callers must not report
    back-pressure results (sheds, breaker rejections) here — only real
    failures count toward tripping. Trips a closed breaker at the
    threshold; re-opens a half-open one whose probe is in flight. A hard
    failure reaching a half-open breaker with {e no} probe out (a query
    admitted before the trip, finishing late) is ignored, like a late
    failure against an open breaker. *)

val release_probe : t -> template:string -> unit
(** The half-open probe admitted by {!admit} was shed by a downstream
    admission gate before it could run. Returns the probe slot without
    counting a failure — the shed is back-pressure, not evidence about
    the template — so the next arrival becomes the probe. No-op in every
    other state. *)

val state : t -> template:string -> state
(** [Closed] for templates never seen. Reflects cooldown expiry: an open
    breaker whose cooldown has elapsed reports [Half_open]. *)

val states : t -> (string * state) list
(** Every template with a non-[Closed] breaker, sorted by name. *)

val opened_total : t -> int
(** Trips, from closed and from half-open alike. *)

val reopened_total : t -> int
(** Trips of a half-open breaker whose probe failed. Each breaker's
    history is one trip from closed, then re-trips, then a close or the
    run's end, so [opened_total - reopened_total - closed_total] is the
    number of breakers not closed. *)

val closed_total : t -> int
