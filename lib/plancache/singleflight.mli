(** Compile singleflight: coalesce concurrent compilations of one
    canonical statement.

    A cold plan cache turns every client into a simultaneous compile of
    the same handful of templates — N clients, one template, N identical
    optimizations fighting over the gateways. Singleflight keys each
    in-flight compilation by its canonical statement key (the caller
    supplies it; the server reuses {!Midcache.Frontend} keying): the
    first arrival becomes the {e leader} and compiles, later arrivals
    {e coalesce} — they block on the leader's completion, then re-probe
    the plan cache and find the shared plan. A cold cache then costs one
    compile per template, not one per client.

    [Observe] mode never blocks anyone: it only counts the duplicate
    compiles that coalescing would have saved, so a defenses-off run can
    report its duplicate-compile factor without changing behaviour (and
    without consuming randomness — replays are unchanged).

    The leader must call {!exit} on every path, including failure. A
    waiter woken by a failed leader re-probes, misses, and re-enters as a
    fresh leader — the flight is removed before the broadcast, so the
    retry can never re-join a completed flight. *)

type mode = Observe | Coalesce

type t

(** Leader's receipt, passed back to {!exit}. *)
type token

val create : ?mode:mode -> Sim.Engine.t -> t
(** Default mode is [Coalesce]. *)

val set_on_coalesce : t -> (key:string -> waiters:int -> unit) -> unit
(** Fires when an arrival coalesces, {e before} it blocks; [waiters] is
    the flight's waiter count including it (trace hookup). *)

val enter :
  t ->
  key:string ->
  ?max_wait:float ->
  unit ->
  [ `Leader of token | `Duplicate | `Coalesced | `Timed_out ]
(** [`Leader tok]: no flight was open for [key]; compile, then {!exit}.
    [`Duplicate]: observe mode counted the duplicate; compile anyway.
    [`Coalesced]: blocked until the leader finished; re-probe the cache.
    [`Timed_out]: waited [max_wait] without a wake; compile solo. *)

val exit : t -> token -> unit
(** Close the flight and wake every waiter. Call on success {e and}
    failure. *)

(** {1 Statistics} *)

val in_flight : t -> int
val led : t -> int

(** Arrivals that blocked on a leader. *)
val coalesced : t -> int

(** Arrivals that found a flight already open — compiles saved
    ([Coalesce]) or wasted ([Observe]). *)
val duplicates : t -> int

val timeouts : t -> int
