(** Disk latency model: a RAID-0 array of identical spindles.

    RAID-0 stripes every transfer across the whole array, so the model is
    one server with the aggregate bandwidth ([spindles *
    throughput_bytes_per_s]): a lone stream gets full array speed;
    concurrent streams queue and share it — the physical I/O pressure that
    appears in the paper when compilations steal buffer-pool pages. *)

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

(** Seconds spent queueing for a spindle, across all requests. *)
val queue_wait : t -> Sim.Stats.Online.t

(** {1 Fault injection}

    A degraded array (rebuild in progress, failing spindle) delivers
    [throughput_factor] of nominal bandwidth and pays [extra_seek_s] extra
    latency per transfer. Used by the chaos harness; a freshly created
    disk is never degraded. *)

val set_degradation :
  t -> throughput_factor:float -> extra_seek_s:float -> unit

val clear_degradation : t -> unit

(** Estimated service time of one read, without queueing. *)
val service_time : t -> bytes:int -> float
