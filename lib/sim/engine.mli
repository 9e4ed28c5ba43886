(** Deterministic discrete-event simulation engine.

    The engine owns a virtual clock and an event queue. Model code runs as
    cooperative {e processes}: ordinary OCaml functions that may call the
    blocking operations below ({!sleep}, {!suspend}); blocking is implemented
    with OCaml effect handlers, so a process reads like straight-line code
    while the engine interleaves many of them on one OS thread.

    Determinism: events at equal times fire in schedule order, and all
    randomness is drawn from the engine's seeded {!Rng.t}, so a run is a pure
    function of its seed. An exception escaping a process ends the run, so
    a model bug cannot leave a broken simulation reporting numbers. *)

type t

(** Raised by {!run} when [exn] escapes process [name] at simulated [time],
    with the body's backtrace; printed [sim process "name" failed at t=...]. *)
exception Process_failed of { name : string; time : float; exn : exn }

(** Cancellable handle for a scheduled callback. *)
type handle

(** [create ?seed ()] is a fresh engine with clock at [0.]. *)
val create : ?seed:int -> unit -> t

(** Virtual clock, in seconds. *)
val now : t -> float

(** The engine's root random stream (split it per subsystem). *)
val rng : t -> Rng.t

(** {1 Scheduling raw callbacks} *)

(** [schedule t ~delay f] runs [f ()] at [now t +. delay] (default [0.],
    i.e. later in the current instant). [f] must not block; use {!spawn} for
    blocking code. An exception [f] raises leaves {!run} as itself. *)
val schedule : t -> ?delay:float -> (unit -> unit) -> handle

(** [cancel h] prevents the callback from firing if it has not fired yet. *)
val cancel : handle -> unit

(** [cancelled h] is [true] once [h] was cancelled (not when it fired). *)
val cancelled : handle -> bool

(** {1 Processes} *)

(** [spawn t ?name ?delay body] starts a new process executing [body ()]
    after [delay] (default [0.]). An exception escaping [body] ends the run
    with {!Process_failed}. *)
val spawn : t -> ?name:string -> ?delay:float -> (unit -> unit) -> unit

(** [sleep dt] suspends the calling process for [dt] seconds of virtual
    time. Must be called from inside a process. [dt < 0.] is an error. *)
val sleep : float -> unit

(** [suspend f] parks the calling process and calls [f wake]. The process
    resumes, returning [v], when [wake v] is called (from any other
    process/callback). Extra calls to [wake] are ignored. This is the single
    primitive from which waits, timeouts and resources are built. *)
val suspend : (('a -> unit) -> unit) -> 'a

(** [name ()] is the current process name ("" outside a named process). *)
val self_name : unit -> string

(** {1 Running} *)

(** [run t ~until] executes events in time order until the queue is empty or
    the clock would pass [until]. The clock finishes at [min until
    t_last_event]. May be called repeatedly to advance further. Raises
    {!Process_failed} at the first exception escaping a process; a raw
    callback's exception leaves as itself. *)
val run : t -> until:float -> unit

(** [run_all t] executes until the queue is empty. Beware of self-
    rescheduling periodic events. Raises as {!run}. *)
val run_all : t -> unit

(** Number of events executed so far. *)
val events_executed : t -> int

(** [[(process_name, exn, time)]] if the last {!run} raised
    {!Process_failed}, else [[]]. Kept only for [perfbench/workloads.ml],
    which checks it after each cell. *)
val failures : t -> (string * exn * float) list

(** {1 Periodic tasks} *)

(** [every t ?start ~interval f] calls [f ()] at [start] (default
    [now + interval]) and then every [interval] until cancelled. *)
val every : t -> ?start:float -> interval:float -> (unit -> unit) -> handle
