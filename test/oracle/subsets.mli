(** Subset enumeration and predicate lookup for the oracles, written
    independently of the adjacency masks the Cascades search uses, and
    the list form of the search's own enumeration, for the tests that
    compare it with brute force and with the predicate-list form. *)

(** [iter_of_cardinality ~n ~k f] calls [f] on every subset of
    [{0, ..., n-1}] with exactly [k] members, in increasing numeric order
    (Gosper's hack; O(1) and allocation-free per subset). No calls when
    [k < 1] or [k > n]. *)
val iter_of_cardinality : n:int -> k:int -> (Optimizer.Relset.t -> unit) -> unit

(** [iter_strict_subsets t f] calls [f sub] for every nonempty proper
    subset of [t], in decreasing submask order. O(1) and allocation-free
    per subset. *)
val iter_strict_subsets : Optimizer.Relset.t -> (Optimizer.Relset.t -> unit) -> unit

(** [next_subset t sub] is the next nonempty proper subset after [sub] in
    the standard descending submask enumeration, or [None] when the
    enumeration is finished. [sub] must itself be a subset of [t]. Use with
    [first_subset] to enumerate incrementally. *)
val next_subset : Optimizer.Relset.t -> Optimizer.Relset.t -> Optimizer.Relset.t option

val first_subset : Optimizer.Relset.t -> Optimizer.Relset.t option

(** Join predicates of [q] with one side in [a] and the other in [b]. *)
val preds_between :
  Optimizer.Query.t ->
  Optimizer.Relset.t ->
  Optimizer.Relset.t ->
  Optimizer.Query.join_pred list

(** The subsets {!Optimizer.Query.iter_connected_subsets} visits, listed
    in the reverse of the order it visits them. *)
val connected_subsets :
  Optimizer.Query.t -> Optimizer.Relset.t -> Optimizer.Relset.t list
