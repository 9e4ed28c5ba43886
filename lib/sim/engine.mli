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

(** A float in a flat record: reading and writing [fc] is an unboxed
    load or store. *)
type fcell = { mutable fc : float }

(** [after t delay f] runs [f ()] at [now t +. delay.fc], reading the
    cell now. Unlike {!schedule} it returns no handle, so it cannot be
    cancelled, and it allocates nothing: a float passed to a function of
    another module is boxed, a cell is not. [delay.fc < 0.] is an
    error. *)
val after : t -> fcell -> (unit -> unit) -> unit

(** [now_into t cell] stores {!now} in [cell]. Unlike {!now} it
    allocates nothing: a float returned to another module is boxed. *)
val now_into : t -> fcell -> unit

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
    process/callback), in a wake event scheduled at that instant. Extra
    calls to [wake] are ignored. Waits, timeouts and semaphores are
    built on it. *)
val suspend : (('a -> unit) -> unit) -> 'a

(** [park f] parks the calling process and calls [f resume], like
    {!suspend}, but [resume ()] continues the process at once, inside the
    event that calls it, instead of scheduling a wake event at the same
    instant. The process runs until it next blocks or ends, and then
    [resume] returns. So a hand-off queue that resumes its head from its
    own completion event costs that one event. An exception escaping the
    process leaves through [resume] as {!Process_failed}, naming the
    process at the resuming event's time. Call [resume] from a raw
    callback ({!schedule}, {!after}) or from [f] itself, never from
    inside another process, which would report the resumed process's
    failure as its own.

    A process has one [resume] for all its parks, allocated when it
    starts, and it continues the process's latest park. So a call made
    while the process is not parked (a second call before the process
    parks again, or any call after it ended, or while it sleeps or is
    suspended) raises [Effect.Continuation_already_resumed] and resumes
    nothing. Once the process has parked again, a call resumes that
    later park. *)
val park : ((unit -> unit) -> unit) -> unit

(** A park prepared once: [park_with (parker f)] is [park f], without
    allocating the effect per call. A hand-off queue makes one for its
    lifetime and stages what [f] needs in its own state. *)
type parker

val parker : ((unit -> unit) -> unit) -> parker

val park_with : parker -> unit

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
