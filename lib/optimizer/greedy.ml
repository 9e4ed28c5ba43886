(* Left-deep join order: starts from the smallest filtered relation and
   repeatedly joins the connected relation that minimises the
   intermediate cardinality. Each relation after the first comes with
   the rows of the join that adds it. *)
let order card =
  let q = Card.query card in
  let n = Query.n_rels q in
  (* Start at the relation with the fewest filtered rows. *)
  let start = ref 0 in
  for i = 1 to n - 1 do
    if Card.base_rows card i < Card.base_rows card !start then start := i
  done;
  let joined = ref (Relset.singleton !start) in
  let picked = ref [] in
  let rows = [| 0.0 |] in
  while Relset.cardinal !joined < n do
    (* The best candidate so far lives in an int and a float local, and
       [Card.card_into] returns its rows unboxed, so a candidate
       allocates nothing. The incumbent is replaced unless its rows are
       [<=] the new ones: ties keep the lower relation, and a NaN on
       either side replaces. *)
    let best_i = ref (-1) and best_c = ref 0.0 in
    for i = 0 to n - 1 do
      (* [i] is not joined yet and shares a predicate with the joined
         set: one of its adjacency bits is in it. *)
      if !joined land (1 lsl i) = 0 && q.Query.adj.(i) land !joined <> 0
      then begin
        Card.card_into card (Relset.add i !joined) rows 0;
        let c = rows.(0) in
        if !best_i < 0 || not (!best_c <= c) then begin
          best_i := i;
          best_c := c
        end
      end
    done;
    (* Disconnected graphs are rejected by [Query.make]. *)
    assert (!best_i >= 0);
    joined := Relset.add !best_i !joined;
    picked := (!best_i, !best_c) :: !picked
  done;
  (!start, List.rev !picked)

(* Rows of the scratch tables: the plan so far, the next leaf, and
   their join. *)
let acc = 0
let leaf = 1
let joined = 2

let load model tb k (p : Plan.t) =
  tb.Rules.t_rows.(k) <- p.Plan.rows;
  tb.Rules.t_io.(k) <- p.Plan.cost_io;
  tb.Rules.t_cpu.(k) <- p.Plan.cost_cpu;
  Rules.set_entry_terms model tb k ~width:p.Plan.width

(* Each step's alternatives are costed by the cost-only evaluators, and
   only the winner is built. The evaluators match the [Plan]
   constructors bit for bit and break ties as [Rules.cheapest] does, so
   the plan is the one that building every alternative and keeping the
   cheapest would give. *)
let plan model card =
  let tb = Rules.make_tables 3 and best = Array.make 3 0.0 in
  let leaf_plan i =
    Rules.leaf_plan model card i (Rules.cheapest_leaf_into model card i ~best)
  in
  let step p (i, rows) =
    let l = leaf_plan i in
    load model tb acc p;
    load model tb leaf l;
    tb.Rules.t_rows.(joined) <- rows;
    let tag =
      Rules.cheapest_join_into model tb ~s:joined ~l:acc ~r:leaf ~best
    in
    Rules.join_plan model ~rows tag p l
  in
  let start, rest = order card in
  Rules.finalize model card (List.fold_left step (leaf_plan start) rest)
