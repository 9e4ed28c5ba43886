(** The physical alternatives as [Plan.t] lists, built by the [Plan]
    constructors: the plan space the oracles search by building every
    alternative. The shipped searches price the same alternatives by tag
    ({!Optimizer.Rules.cheapest_leaf_into},
    {!Optimizer.Rules.cheapest_join_into}), in this list order. *)

(** Access paths for relation [i]: sequential scan, plus an index scan
    when a filtered column has an index. *)
val leaf :
  Optimizer.Cost.model -> Optimizer.Card.t -> int -> Optimizer.Plan.t list

(** Physical joins of two subplans (both hash orientations, both
    nested-loop orientations, merge join). [rows] of the output is
    computed from the union set. *)
val join :
  Optimizer.Cost.model ->
  Optimizer.Card.t ->
  Optimizer.Plan.t ->
  Optimizer.Plan.t ->
  Optimizer.Plan.t list
