(** The semaphore-based disk that [Bufpool.Disk] replaced: a test
    oracle. Each transfer acquires a capacity-1 FIFO [Sim.Resource.Sem],
    sleeps its service time and releases it. The shipped hand-off queue
    must finish every transfer at the same times, bit for bit, with the
    same [queue_wait] statistics. *)

type t

val create :
  Sim.Engine.t ->
  spindles:int ->
  seek_s:float ->
  throughput_bytes_per_s:float ->
  t

(** [read t ~bytes] blocks the calling process for the transfer. *)
val read : t -> bytes:int -> unit

(** [write t ~bytes] — same model as reads. *)
val write : t -> bytes:int -> unit

val reads : t -> int
val bytes_read : t -> int
val bytes_written : t -> int

(** Seconds spent queueing, across all requests. *)
val queue_wait : t -> Sim.Stats.Online.t

val set_degradation :
  t -> throughput_factor:float -> extra_seek_s:float -> unit

val clear_degradation : t -> unit
val service_time : t -> bytes:int -> float
