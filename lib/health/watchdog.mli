(** Heartbeat watchdog for in-flight queries.

    Every live query holds a watchdog session and beats it at each sign of
    progress (compile allocation, exec start/finish, each slice of a
    backoff nap). An audit every 30 s scans the sessions: one silent for
    240 s is {e softened} — the query should take its best-plan-so-far
    and stop optimising. Softening is the only rung: the watchdog never
    kills a query. A query that waits longer is bounded by its own
    timeouts (the gateway monitors' 120/300/600 s, the grant queue's),
    which fail it with {!Error.Memory_wait_timeout}, as the paper's
    server does.

    The simulation is cooperative, so the watchdog cannot interrupt a
    blocked process; it flips a per-session flag that the query's compile
    reads at its next allocation or search step. *)

type t
type session

val create : ?trace:Obs.Trace.t -> Sim.Engine.t -> t

val start : t -> unit
(** Install the periodic audit timer. Call once, before the run. *)

val watch : t -> qid:string -> session
(** Register a query; its heartbeat starts now. *)

val beat : session -> unit
(** Record progress; clears a soften. *)

val unwatch : t -> session -> unit
(** The query finished (however it finished). Idempotent. *)

val softened : session -> bool
(** The query should stop optimising and take its best plan so far. *)

val watched : t -> int
(** Sessions currently registered; 0 once a run has drained. *)

val stale_total : t -> int
(** Softens so far: one per silent episode. *)
