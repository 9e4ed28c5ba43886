(** The list-building greedy left-deep planner: at each step it builds
    every access path and join alternative as a [Plan.t] and keeps the
    cheapest. A test oracle for the cost-only {!Optimizer.Greedy}, which
    must return the same plan, cost bits included. *)

val plan : Optimizer.Cost.model -> Optimizer.Card.t -> Optimizer.Plan.t
