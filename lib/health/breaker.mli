(** Circuit breakers, lazily keyed by name.

    The router keeps one per shard: a shard that keeps failing hard
    (compile OOM, gateway timeouts, lost connections) would otherwise
    take every arrival its ring position sends it. After 3 consecutive
    hard failures the key's breaker trips {e open} and admissions are
    refused, so the router spills the arrival to the next shard. After a
    60 s cooldown of simulated time the breaker goes {e half-open} and
    admits exactly one probe; if the probe succeeds the breaker closes,
    if it fails the breaker re-opens for another cooldown. Probe
    admission is deterministic (first arrival after the cooldown wins) —
    no randomness is consumed, so a run that never trips a breaker is
    unperturbed by it. *)

type state = Closed | Open | Half_open

val state_name : state -> string

type t
(** A registry of breakers, lazily keyed by name. *)

val create : ?trace:Obs.Trace.t -> Sim.Engine.t -> t

val admit : t -> key:string -> bool
(** Gate an arrival for [key]. [true] admits (and in half-open marks
    this arrival as the probe); [false] refuses. *)

val record_success : t -> key:string -> unit
(** The admitted query completed. Resets the failure streak; closes a
    half-open breaker (emitting [Breaker_close]). *)

val record_failure : t -> key:string -> unit
(** The admitted query failed {e hard}. Callers must not report
    back-pressure results (downed shards, refusals) here — only real
    failures count toward tripping. Trips a closed breaker at the
    threshold; re-opens a half-open one whose probe is in flight. A hard
    failure reaching a half-open breaker with {e no} probe out (a query
    admitted before the trip, finishing late) is ignored, like a late
    failure against an open breaker. *)

val release_probe : t -> key:string -> unit
(** The half-open probe admitted by {!admit} never produced evidence
    about [key] (it was refused downstream, or lost a hedge).
    Returns the probe slot without counting a failure, so the next
    arrival becomes the probe. No-op in every other state. *)

val state : t -> key:string -> state
(** [Closed] for names never seen. Reflects cooldown expiry: an open
    breaker whose cooldown has elapsed reports [Half_open]. *)
