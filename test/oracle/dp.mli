(** System-R style exhaustive dynamic programming over connected relation
    subsets (bushy plans, no cross products). A test oracle: no simulated
    query runs it.

    The DP explores exactly the same plan space as a completed Cascades
    search, so both must return plans of equal cost. Exponential in the
    number of relations; refuses queries above {!max_rels}. *)

val max_rels : int

(** [optimize model card] is the optimal plan (aggregation included).
    Raises [Invalid_argument] when the query exceeds {!max_rels}. *)
val optimize : Optimizer.Cost.model -> Optimizer.Card.t -> Optimizer.Plan.t

(** The plan and the number of connected-subset DP entries filled. *)
val optimize_with_stats :
  Optimizer.Cost.model -> Optimizer.Card.t -> Optimizer.Plan.t * int
