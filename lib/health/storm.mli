(** Compile-miss storm detector.

    A shard rejoining with a cold plan cache, or a mass invalidation, turns
    every client into a simultaneous compile; retries amplify the load and
    the system can stay collapsed after the trigger clears — a metastable
    failure. This detector watches the {e per-template compile-arrival
    trend} (the leading signal) rather than queue depth (the trailing
    one): compile arrivals are bucketed into fixed 30 s windows, each
    closed window feeds an EWMA baseline, and a window whose count
    reaches 4 times that baseline (never below a floor of 12 misses)
    flags a storm. The episode ends after 2 consecutive quiet windows.
    Begin/end flips emit [storm:*] trace events and fire a callback so
    the server can gate its recovery mode (tightened admission,
    warm-priming the hottest templates). All bookkeeping is lazy — no
    timer process, an idle detector costs nothing — and consumes no
    randomness, so replays are unchanged. *)

type t

val create : ?trace:Obs.Trace.t -> Sim.Engine.t -> enabled:bool -> t
(** A disabled detector records nothing and never flags a storm. *)

val set_on_change : t -> (bool -> unit) -> unit
(** [f true] fires when a storm begins, [f false] when it ends. *)

val note_compile : t -> template:string -> unit
(** Record one compile arrival (a plan-cache miss) for [template]. May
    flag a storm mid-window — detection is eager, not end-of-window. *)

val active : t -> bool
(** Is a storm episode in progress (after rolling elapsed windows)? *)

val storms_total : t -> int
(** Episodes flagged since creation. *)

val baseline : t -> float
(** Current EWMA of per-window miss counts (diagnostics/reports). *)

val hottest : t -> k:int -> (string * int) list
(** Top-[k] templates by cumulative miss count, ties broken by name so
    the list is deterministic — the warm-priming order on shard rejoin. *)
