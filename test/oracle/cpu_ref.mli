(** The semaphore-based processor pool that [Execsim.Cpu] replaced: a
    test oracle. Each slice acquires a core from a FIFO
    [Sim.Resource.Sem], sleeps and releases it. The shipped hand-off
    queue must finish every process at the same times, bit for bit, and
    read the same [busy_seconds], [utilization] and [queued]. *)

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
