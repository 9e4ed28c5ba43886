(** Execution memory grants (the "resource semaphore").

    Before a query executes, it reserves workspace memory for its hashes
    and sorts. Requests queue in FIFO order against a byte-denominated
    semaphore; a query is granted at most [max_query_frac] of the total
    workspace (large requests are trimmed rather than starved, and spill
    during execution instead). A request that waits longer than [timeout]
    fails with a grant timeout — one of the resource errors the paper's
    experiments count. Granted bytes are also accounted against the
    execution clerk so the broker sees execution memory. *)

type t

val create :
  Sim.Engine.t ->
  Dbmem.Manager.t ->
  ?trace:Obs.Trace.t ->
  clerk:Dbmem.Manager.clerk ->
  total:int ->
  ?max_query_frac:float ->
  ?min_grant:int ->
  ?timeout:float ->
  unit ->
  t

(** The sink this grant queue records into ({!Obs.Trace.null} unless one
    was passed to {!create}). The runner picks its trace up from here. *)
val trace : t -> Obs.Trace.t

(** [acquire t ~ideal ()] blocks until granted. Returns the granted bytes
    ([<= ideal], trimmed to the per-query cap, floored at [min_grant] or
    [ideal] if smaller). [qid] labels the trace records. A wait that
    exceeds the timeout fails with {!Health.Error.Memory_wait_timeout}
    (8645); a grant the manager cannot physically produce fails with
    {!Health.Error.Low_memory_condition} (8651). *)
val acquire :
  t -> ?qid:string -> ideal:int -> unit -> (int, Health.Error.t) result

(** [release t n] returns granted bytes ([n] must be what {!acquire}
    returned). *)
val release : t -> ?qid:string -> int -> unit

(** The floor below which grants are never trimmed. *)
val min_grant : t -> int

val total : t -> int
val in_use : t -> int
val timeouts : t -> int
val wait_stats : t -> Sim.Stats.Online.t
