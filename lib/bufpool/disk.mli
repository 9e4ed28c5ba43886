(** Disk latency model: a RAID-0 array of identical spindles.

    RAID-0 stripes every transfer across the whole array, so the model is
    one server with the aggregate bandwidth ([spindles *
    throughput_bytes_per_s]): a lone stream gets full array speed;
    concurrent streams queue and share it — the physical I/O pressure that
    appears in the paper when compilations steal buffer-pool pages.

    Transfers are served first come, first served. A transfer to an idle
    array is a plain {!Sim.Engine.sleep}. One that finds the array busy
    parks ({!Sim.Engine.park_with}) in a FIFO of pooled waiters; each
    completion event hands the array to the head, which adds its wait to
    {!queue_wait} and reads its {!service_time} at that moment, and the
    transfer resumes inside its own completion event. *)

type t

val create :
  Sim.Engine.t ->
  spindles:int ->
  seek_s:float ->
  throughput_bytes_per_s:float ->
  t

(** [read t ~bytes] blocks the calling process for the transfer. *)
val read : t -> bytes:int -> unit

(** [write t ~bytes] — same model as reads (used for spills). *)
val write : t -> bytes:int -> unit

val reads : t -> int
val bytes_read : t -> int
val bytes_written : t -> int

(** Seconds spent queueing for the array, across all requests (a
    transfer to an idle array adds a [0.]). *)
val queue_wait : t -> Sim.Stats.Online.t

(** {1 Fault injection}

    A degraded array (rebuild in progress, failing spindle) delivers
    [throughput_factor] of nominal bandwidth and pays [extra_seek_s] extra
    latency per transfer. Used by the chaos harness; a freshly created
    disk is never degraded.

    A queued transfer reads the degradation in force when the array is
    handed to it, i.e. at the previous transfer's completion. A change
    made at exactly that simulated time applies to the queued transfer
    only if it ran in an earlier event of that instant. *)

val set_degradation :
  t -> throughput_factor:float -> extra_seek_s:float -> unit

val clear_degradation : t -> unit

(** Estimated service time of one read, without queueing. *)
val service_time : t -> bytes:int -> float
