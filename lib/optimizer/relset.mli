(** Sets of query relations as int bitsets (queries are limited to 62
    relations — far above the paper's 15-20-join queries). *)

type t = int

val empty : t
val is_empty : t -> bool
val singleton : int -> t
val mem : int -> t -> bool
val add : int -> t -> t
val union : t -> t -> t
val diff : t -> t -> t
val subset : t -> t -> bool
val cardinal : t -> int
val equal : t -> t -> bool

(** [full n] is [{0, ..., n-1}]. *)
val full : int -> t

val members : t -> int list
val iter : (int -> unit) -> t -> unit
val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a

(** [ctz t] is the index of the lowest set bit of a nonzero [t]
    (count-trailing-zeros), in constant time. [min_elt] and [fold] are
    built on it. The result is unspecified for [t = 0]. *)
val ctz : t -> int

(** [min_elt t] of a nonempty set. *)
val min_elt : t -> int

(** [iter_of_cardinality ~n ~k f] calls [f] on every subset of
    [{0, ..., n-1}] with exactly [k] members, in increasing numeric order
    (Gosper's hack; O(1) and allocation-free per subset). No calls when
    [k < 1] or [k > n]. *)
val iter_of_cardinality : n:int -> k:int -> (t -> unit) -> unit

(** [iter_strict_subsets t f] calls [f sub] for every nonempty proper
    subset of [t], in decreasing submask order. O(1) and allocation-free
    per subset. *)
val iter_strict_subsets : t -> (t -> unit) -> unit

(** [next_subset t sub] is the next nonempty proper subset after [sub] in
    the standard descending submask enumeration, or [None] when the
    enumeration is finished. [sub] must itself be a subset of [t]. Use with
    [first_subset] to enumerate incrementally (resumable across task
    steps). *)
val next_subset : t -> t -> t option

val first_subset : t -> t option
val pp : Format.formatter -> t -> unit
