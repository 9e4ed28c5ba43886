(** Simulated execution of a physical plan.

    The runner turns a costed {!Optimizer.Plan.t} into resource demand:
    page reads through the buffer pool (so execution speed depends on how
    much of the pool compilations have stolen), CPU slices through the
    shared processor pool, a workspace grant held for the duration, and
    spill I/O when the grant falls short of the plan's ideal. Wall-clock
    duration emerges from contention rather than being drawn from a
    distribution. *)

type resources = {
  eng : Sim.Engine.t;
  cpu : Cpu.t;
  pool : Bufpool.Pool.t;
  disk : Bufpool.Disk.t;
  grants : Grant.t;
  rng : Sim.Rng.t;
}

type outcome = {
  duration : float;  (** wall-clock seconds the execution took *)
  granted : int;
  ideal : int;
  pages_read : int;
  spilled : bool;
}

(** [run ?grant_cap res plan] — must be called from a simulation
    process. The grant is always released, also on error. [grant_cap]
    bounds the bytes requested from the semaphore (degraded, spill-heavy
    execution under memory pressure); spill volume is still measured
    against the plan's ideal. [qid] labels trace records; the trace sink
    is the one the grant queue was created with ({!Grant.trace}). Errors
    are the grant queue's: {!Health.Error.Memory_wait_timeout} or
    {!Health.Error.Low_memory_condition}. *)
val run :
  ?grant_cap:int ->
  ?qid:string ->
  resources ->
  Optimizer.Plan.t ->
  (outcome, Health.Error.t) result
