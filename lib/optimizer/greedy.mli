(** Greedy left-deep join ordering.

    Fast heuristic used (a) to seed the Cascades memo so a complete plan
    exists from the first moment — the prerequisite for the paper's
    return-best-plan-under-pressure extension — and (b) as the emergency
    fallback plan. *)

(** Costed left-deep plan, using the cheapest physical alternative at
    each step, with final aggregation applied. The join order starts from
    the smallest filtered relation and repeatedly joins the connected
    relation that minimises the intermediate cardinality. Each step's
    alternatives are priced by {!Rules.cheapest_leaf_into} and
    {!Rules.cheapest_join_into}, and only the winners are built: the
    plan, cost bits included, is the one that building every
    alternative and keeping the cheapest would give. *)
val plan : Cost.model -> Card.t -> Plan.t
