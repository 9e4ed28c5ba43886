(** Implementation rules shared by every plan-search strategy (Cascades,
    greedy, and the tests' exhaustive DP): the physical alternatives for a
    leaf access and for a join of two subplans, and the final aggregation
    placement. Keeping them in one place guarantees that all strategies
    search the same plan space, so an exhaustive Cascades run and the DP
    must agree on optimal cost. The leaf's access paths are a sequential
    scan, plus an index scan when a filtered column has an index; a join
    has both hash orientations, both nested-loop orientations and a merge
    join. The tests' oracles build them as [Plan.t] lists
    ([Oracle.Alternatives]); the searches price them here, by tag. *)

(** Cheapest element of a nonempty list of alternatives. *)
val cheapest : Plan.t list -> Plan.t

(** {1 Cost-only evaluation}

    Neither {!Cascades} nor {!Greedy} builds a [Plan.t] per alternative;
    they price alternatives over flat arrays (indexed by memo group
    ordinal when {!Cascades} prices a plan after its search, by a
    3-row scratch table in {!Greedy}) and identify the winning physical
    alternative by an integer tag. The evaluators below mirror the
    [Plan] constructors' cost arithmetic bit for bit (same terms, same
    floating-point evaluation order), so building only the winners
    yields exactly the plan a list-based search would have chosen. Three terms depend only
    on one child's rows and width: its spill io as a hash build side,
    and the spill io and cpu of an implicit Sort over it. They are
    computed once per entry by {!set_entry_terms}; every other term is
    evaluated per split. The evaluators allocate nothing per call. *)

type tables = {
  t_rows : float array;
      (** plan output rows per entry (leaf: filtered base rows) *)
  t_io : float array;  (** cost_io of the entry's best plan *)
  t_cpu : float array;  (** cost_cpu of the entry's best plan *)
  t_hash_spill : float array;
      (** spill io of a hash join building on the entry *)
  t_sort_spill : float array;  (** spill io of a Sort over the entry *)
  t_sort_cpu : float array;
      (** cpu a Sort over the entry adds to the entry's own *)
}

(** [make_tables n] — all-zero tables for indices [0 .. n-1]. *)
val make_tables : int -> tables

(** [set_entry_terms model tb i ~width] fills entry [i]'s
    [t_hash_spill], [t_sort_spill] and [t_sort_cpu] from its
    [t_rows.(i)] and its output row [width] (bytes), each evaluated as
    [Plan.hash_join] and [Plan.sort] evaluate it. *)
val set_entry_terms : Cost.model -> tables -> int -> width:int -> unit

(** [has_index_path card i] — relation [i] has an index on a filtered
    column, so its access paths are a sequential scan and then an index
    scan. *)
val has_index_path : Card.t -> int -> bool

(** Bit [i] is [has_index_path card i], for every relation [i]. *)
val index_path_bits : Card.t -> int

(** [cheapest_leaf_into model card i ~best] evaluates the access paths of
    relation [i] and writes the winner's cost_io / cost_cpu / total to
    [best.(0..2)] (a caller-provided scratch array, length >= 3).
    Returns the winning tag: 0 = seq scan, 1 = index scan. Ties go to
    the earlier alternative, exactly as {!cheapest} over the list
    [\[seq; index\]]. *)
val cheapest_leaf_into :
  Cost.model -> Card.t -> int -> best:float array -> int

(** [cheapest_join_into model tb ~s ~l ~r ~best] evaluates the five join
    alternatives for the entry [s] split into the entries [l] (which must
    hold the lowest relation of [s]) and [r], reading both children's
    entries (their per-entry terms included) and [t_rows.(s)] from [tb]. Writes the winner's cost_io / cost_cpu /
    total to [best.(0..2)] and returns its tag: 0 = hash build-[l],
    1 = hash build-[r], 2 = NL outer-[l], 3 = NL outer-[r], 4 = merge —
    tie-breaking as {!cheapest} over the alternatives listed in that
    order. *)
val cheapest_join_into :
  Cost.model ->
  tables ->
  s:Relset.t ->
  l:Relset.t ->
  r:Relset.t ->
  best:float array ->
  int

(** [leaf_plan model card i tag] builds the access path that
    {!cheapest_leaf_into} tagged [tag]. *)
val leaf_plan : Cost.model -> Card.t -> int -> int -> Plan.t

(** [join_plan model ~rows tag l r] builds the join that
    {!cheapest_join_into} tagged [tag], over the already built children
    [l] (holding the lowest relation) and [r]. The constructors recompute
    the cost from the same inputs, so it equals the evaluator's bit for
    bit. *)
val join_plan : Cost.model -> rows:float -> int -> Plan.t -> Plan.t -> Plan.t

(** Wrap the final aggregation (cheaper of hash vs stream aggregate) if the
    query has one. *)
val finalize : Cost.model -> Card.t -> Plan.t -> Plan.t
