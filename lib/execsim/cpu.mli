(** Processor pool: [cores] identical CPUs shared by all sessions.

    CPU demand is consumed in [slice]-second time slices, served round
    robin from one FIFO run queue: when runnable work exceeds the core
    count, every consumer slows down proportionally — the saturation
    behaviour behind the paper's "at and beyond the capabilities of the
    hardware" experiments.

    A slice end hands its core straight to the head of the run queue, in
    the same engine event, and the preempted job goes to the back. A job
    stays parked ({!Sim.Engine.park_with}) across all its slices and
    resumes inside its last slice's end event, so a queued slice costs
    one event and allocates nothing. Jobs are pooled and the park is
    prepared once, so a [busy] that parks allocates only the process's
    continuation. A single slice on an idle core is a plain
    {!Sim.Engine.sleep}.

    Slice ends, grant order and the counters below are those of the
    semaphore version this replaced (the test oracle
    [test/oracle/cpu_ref.ml]), with one exception: a handed-over
    slice's end event is scheduled at the hand-off, where the semaphore
    scheduled it from a wake event later in the same instant. So it can
    order differently against another event at exactly the same end
    time that was scheduled in between, e.g. a slice started at the same
    instant on a core freed in a later event of it. *)

type t

val create : Sim.Engine.t -> cores:int -> ?slice:float -> unit -> t

(** [busy t s] consumes [s] seconds of CPU, blocking the calling process
    for at least that long (more under contention). *)
val busy : t -> float -> unit

(** Total CPU-seconds executed so far. *)
val busy_seconds : t -> float

(** Utilisation since creation, in [\[0, cores\]] (measured against the
    engine clock). *)
val utilization : t -> float

(** Processes currently waiting for a core. *)
val queued : t -> int
