(** Blocking synchronisation primitives for simulation processes.

    Both primitives support {e timed} waits — the mechanism behind the
    paper's gateway acquisition timeouts — and record wait-time statistics.
    All operations must be called from inside an {!Engine.spawn}ed process
    (they may suspend the caller). *)

type acquire_result = Acquired | Timed_out

(** Queue service order within a priority class. [Fifo] is oldest-first
    (the default); [Lifo] is newest-first — under sustained overload the
    newest waiter is the one whose deadline is still meetable, so serving
    it first clears a post-storm backlog instead of burning capacity on
    requests that will time out anyway. *)
type discipline = Fifo | Lifo

(** Counting semaphore with strictly ordered admission.

    Waiters are served in [(priority, arrival)] order and there is no
    overtaking: if the head waiter does not fit, later (even smaller)
    requests wait behind it, like SQL Server's resource semaphore. *)
module Sem : sig
  type t

  (** [create eng ~capacity ()] with [capacity >= 0] units. *)
  val create : Engine.t -> capacity:int -> unit -> t

  (** [acquire t ?priority ?timeout ~n ()] blocks until [n] units are
      granted or [timeout] elapses. Lower [priority] values are served
      first; equal priorities are FIFO. Default priority [0], no timeout. *)
  val acquire :
    t -> ?priority:int -> ?timeout:float -> n:int -> unit -> acquire_result

  (** [release t ~n] returns [n] units and wakes eligible waiters. *)
  val release : t -> n:int -> unit

  (** [set_discipline t d] switches service order within each priority
      class for waiters enqueued {e from now on}; processes already queued
      keep their position (the adaptive-queue flip never reshuffles the
      backlog, it only changes where new arrivals land). Default [Fifo]. *)
  val set_discipline : t -> discipline -> unit

  val discipline : t -> discipline

  val capacity : t -> int
  val in_use : t -> int

  (** Number of processes currently blocked in {!acquire}. *)
  val queued : t -> int

  (** Wait-time statistics over all completed acquires (including zero-wait
      fast-path grants). *)
  val wait_stats : t -> Stats.Online.t

  val timeouts : t -> int
  val grants : t -> int
end

(** Condition-variable-style wait queue. *)
module Waitq : sig
  type t

  val create : Engine.t -> ?name:string -> unit -> t

  (** [wait t ?timeout ()] blocks until signalled. *)
  val wait : t -> ?timeout:float -> unit -> acquire_result

  (** [broadcast t] wakes every waiting process. *)
  val broadcast : t -> unit

  val queued : t -> int
  val name : t -> string
end
