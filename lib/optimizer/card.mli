(** Cardinality estimation for join-graph queries, under the textbook
    uniformity and independence assumptions: the cardinality of a relation
    subset is the product of filtered base cardinalities times the product
    of the selectivities of every join predicate internal to the subset.
    Estimates are not memoised: one costs a pass over the subset's
    members and the query's predicates, and allocates nothing. *)

type t

val create : Catalog.t -> Query.t -> t
val query : t -> Query.t

(** Catalog table backing relation [i]. *)
val table_of : t -> int -> Catalog.table

(** Rows of relation [i] after its local filters. *)
val base_rows : t -> int -> float

(** Estimated output cardinality of joining exactly the relations in the
    subset. *)
val card : t -> Relset.t -> float

(** [card_into t s out k] writes [card t s] to [out.(k)], with no boxed
    float on the way. *)
val card_into : t -> Relset.t -> float array -> int -> unit

(** Estimated distinct-value count of a group-by over the given columns,
    capped by the input cardinality. *)
val group_card : t -> (int * string) list -> input:float -> float

(** Output row width in bytes for a subset (sum of member table widths). *)
val width : t -> Relset.t -> int
