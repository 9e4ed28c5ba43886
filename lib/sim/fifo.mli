(** A growable first-in first-out ring of values.

    Built for hand-off queues that hold parked processes. Each popped
    slot is reset to the ring's [dummy], so the ring never keeps a
    popped value alive. A linked queue does: once an old cell's [next]
    field is written with a young cell, the minor collector treats that
    field as a root even after the cell is popped, and it promotes every
    cell enqueued since, with what they hold. *)

type 'a t

(** [create ~dummy ()] is an empty ring; [dummy] fills the free slots. *)
val create : dummy:'a -> unit -> 'a t

val is_empty : 'a t -> bool
val length : 'a t -> int

(** [push t x] adds [x] at the back, doubling the ring when full. *)
val push : 'a t -> 'a -> unit

(** [pop t] removes and returns the front value.
    @raise Invalid_argument when [t] is empty. *)
val pop : 'a t -> 'a
