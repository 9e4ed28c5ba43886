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

val pp : Format.formatter -> t -> unit
