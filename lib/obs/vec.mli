(** Growable vector for arrival-order accumulation.

    Replaces the [acc := x :: !acc … List.rev !acc] idiom in the trace
    analyzers: [push] appends, [to_list] returns elements in push order.
    The backing array is lazily allocated at the first push (pre-sized to
    [capacity] when given), then doubles, so an accumulator that collects
    nothing — the common case for violation scans — allocates no array at
    all. *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
val length : 'a t -> int
val push : 'a t -> 'a -> unit

(** [get t i] is the i-th pushed element; raises [Invalid_argument] out of
    bounds. *)
val get : 'a t -> int -> 'a

val iter : ('a -> unit) -> 'a t -> unit

(** Elements in push order. *)
val to_list : 'a t -> 'a list
