(** Heartbeat watchdog for in-flight queries.

    Every live query holds a watchdog session and beats it at each sign of
    progress (compile allocation, exec start/finish, each slice of a
    backoff nap). An audit every 30 s scans the sessions: one silent for
    240 s is {e softened} — the query should take its best-plan-so-far
    and stop optimising — and one still silent 720 s after its last beat
    is marked for {e cancellation} with {!Error.Watchdog_cancelled}.

    The simulation is cooperative, so the watchdog cannot interrupt a
    blocked process; it flips per-session flags that the query's own code
    polls at its next allocation or slice boundary. Gateway waits are
    bounded by the monitor timeouts (120/300/600 s), so the cancellation
    threshold sits above the biggest gateway timeout: a politely queued
    query is never shot. *)

type t
type session

val create : ?trace:Obs.Trace.t -> Sim.Engine.t -> t

val start : t -> unit
(** Install the periodic audit timer. Call once, before the run. *)

val watch : t -> qid:string -> session
(** Register a query; its heartbeat starts now. *)

val beat : session -> unit
(** Record progress; clears a soften that had not yet escalated. *)

val unwatch : t -> session -> unit
(** The query finished (however it finished). Idempotent. *)

val softened : session -> bool
(** The query should stop optimising and take its best plan so far. *)

val cancel_requested : session -> bool
(** The query must abandon work with {!Error.Watchdog_cancelled}. *)

val watched : t -> int
(** Sessions currently registered; 0 once a run has drained. *)

val stale_total : t -> int
val cancel_total : t -> int
