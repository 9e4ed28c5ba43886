(** Array-backed binary min-heap.

    The ordering is given at creation time; ties are resolved by the
    comparison function itself, so callers that need FIFO behaviour among
    equal keys must include a sequence number in the element. *)

type 'a t

(** [create ?capacity ~cmp ()] is an empty heap ordered by [cmp]
    (smallest first). [capacity] pre-sizes the element array (applied at
    the first insertion), so long runs with a known event population
    skip the doubling-regrowth copies. *)
val create : ?capacity:int -> cmp:('a -> 'a -> int) -> unit -> 'a t

(** [add t x] inserts [x]. Amortised O(log n); sifts move a single hole
    down the tree (one write per level) rather than swapping pairs. *)
val add : 'a t -> 'a -> unit

(** [pop t] removes and returns the smallest element, if any. *)
val pop : 'a t -> 'a option

(** [pop_exn t] is [pop] without the option box — the non-allocating form
    for hot loops that already checked {!is_empty}. Raises
    [Invalid_argument] on an empty heap. *)
val pop_exn : 'a t -> 'a

(** [peek t] is the smallest element without removing it. *)
val peek : 'a t -> 'a option

(** Non-allocating {!peek}. Raises [Invalid_argument] on an empty heap. *)
val peek_exn : 'a t -> 'a

val size : 'a t -> int
val is_empty : 'a t -> bool
