(** Compile-miss storm detector.

    A shard rejoining with a cold plan cache, or a mass invalidation, turns
    every client into a simultaneous compile; retries amplify the load and
    the system can stay collapsed after the trigger clears — a metastable
    failure. This detector counts the episodes by watching the
    {e compile-arrival trend} (the leading signal) rather than queue depth
    (the trailing one): compile arrivals are bucketed into fixed 30 s
    windows, each closed window feeds an EWMA baseline, and a window whose
    count reaches 4 times that baseline (never below a floor of 12 misses)
    flags a storm. The episode ends after 2 consecutive quiet windows.
    Begin/end flips emit [storm:*] trace instants; the storm report prints
    the episode count. All bookkeeping is lazy — no timer process, an idle
    detector costs nothing — and consumes no randomness, so replays are
    unchanged. *)

type t

val create : ?trace:Obs.Trace.t -> Sim.Engine.t -> enabled:bool -> t
(** A disabled detector records nothing and never flags a storm. *)

val note_compile : t -> unit
(** Record one compile arrival (a plan-cache miss). May flag a storm
    mid-window — detection is eager, not end-of-window — and closes any
    elapsed windows first, which is where an episode ends. *)

val storms_total : t -> int
(** Episodes flagged since creation. *)
