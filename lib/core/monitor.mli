(** A single memory monitor ("gateway", paper §4.1).

    A monitor admits at most [slots] concurrent compilations. A compilation
    acquires the monitor when its memory usage crosses the monitor's
    threshold (threshold logic lives in {!Compile_gov}; this module is just
    the admission gate) and blocks if no slot is free. Acquisition carries a
    timeout: a compilation that makes no progress for too long fails with a
    timeout error rather than deadlocking the system. *)

type t

(** [create eng ?trace ~name ~slots ~timeout ()]. When [trace] is an
    enabled sink, every acquire-wait/acquired/timeout/release at this
    monitor is recorded as an {!Obs.Event.Gateway} event. *)
val create :
  Sim.Engine.t ->
  ?trace:Obs.Trace.t ->
  name:string ->
  slots:int ->
  timeout:float ->
  unit ->
  t

(** [acquire t ()] blocks until a slot is free or the monitor's timeout
    elapses. Must run inside a simulation process. Lower [priority] is
    served first; default [0] (FIFO). [qid] labels the trace records. *)
val acquire :
  t -> ?priority:int -> ?qid:string -> unit -> (unit, [ `Timeout ]) result

(** Give the slot back. *)
val release : ?qid:string -> t -> unit

(** Switch the waiting queue's service order (see
    {!Sim.Resource.discipline}); applies to new arrivals only. *)
val set_discipline : t -> Sim.Resource.discipline -> unit

val discipline : t -> Sim.Resource.discipline

val name : t -> string
val slots : t -> int
val in_use : t -> int
val queued : t -> int

(** {1 Statistics} *)

val acquires : t -> int

(** Slots given back so far; a quiesced system has
    [acquires t = releases t] (no slot leaks). *)
val releases : t -> int

val timeouts : t -> int

(** Distribution of time spent blocked in {!acquire} (successful acquires
    only; zero for fast-path grants). *)
val wait_stats : t -> Sim.Stats.Online.t
