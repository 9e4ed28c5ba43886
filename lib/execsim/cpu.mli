(** Processor pool: [cores] identical CPUs shared by all sessions.

    CPU demand is consumed in small time slices through a FIFO semaphore,
    approximating round-robin scheduling: when runnable work exceeds the
    core count, every consumer slows down proportionally — the saturation
    behaviour behind the paper's "at and beyond the capabilities of the
    hardware" experiments. *)

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
