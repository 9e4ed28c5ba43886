let max_rels = 14

(* The DP is split into a cost search over flat arrays and a single plan
   reconstruction pass. The search never allocates [Plan.t] values — for a
   14-relation query the old list-based search built five boxed plan trees
   per (subset, split) and an option box per enumerated submask, ~127 MB
   per optimize call, all but one tree thrown away. Here each subset's
   best alternative is four scalars (cost_io, cost_cpu, winning split,
   winning operator tag) in unboxed arrays indexed by the [Relset.t]
   bitset itself, and only the winning tree is ever materialised.

   The original implementation is kept verbatim below as
   [optimize_reference] — the oracle for the QCheck identity property
   (same plan, same costs, same entry count). *)

let optimize_with_stats model card =
  let q = Card.query card in
  let n = Query.n_rels q in
  if n > max_rels then
    invalid_arg
      (Printf.sprintf "Dp.optimize: %d relations exceed the DP limit of %d" n
         max_rels);
  let full = Relset.full n in
  let tb = Rules.make_tables (full + 1) in
  (* op.(s) is the winning alternative tag for subset [s], or -1 when no
     plan exists (doubles as the presence test the list-based version did
     with [option]). split.(s) is the left part of the winning split. *)
  let op = Array.make (full + 1) (-1) in
  let split = Array.make (full + 1) 0 in
  (* Scratch for the cost evaluators and the per-subset running best —
     float arrays rather than refs so the floats stay unboxed. *)
  let best = Array.make 3 0.0 in
  let cand = Array.make 3 0.0 in
  let entries = ref 0 in
  (* Leaves. *)
  for i = 0 to n - 1 do
    let s = Relset.singleton i in
    op.(s) <- Rules.cheapest_leaf_into model card i ~best;
    tb.Rules.t_rows.(s) <- Card.base_rows card i;
    tb.Rules.t_width.(s) <- Card.width card s;
    tb.Rules.t_io.(s) <- best.(0);
    tb.Rules.t_cpu.(s) <- best.(1);
    incr entries
  done;
  (* Subsets in increasing cardinality order; an int-ascending sweep is not
     enough (a smaller-cardinality set can have a larger encoding).
     Gosper's hack enumerates each cardinality band directly in increasing
     numeric order — the same subset order the list-based version used, so
     plans and entry counts are unchanged. *)
  for k = 2 to n do
    Relset.iter_of_cardinality ~n ~k (fun s ->
        if Query.connected q s then begin
          let lowest = Relset.min_elt s in
          Relset.iter_strict_subsets s (fun l ->
              (* Each unordered split once: the left part keeps the lowest
                 relation of [s] (the join evaluator tries both roles). *)
              if Relset.mem lowest l then begin
                let r = Relset.diff s l in
                if op.(l) >= 0 && op.(r) >= 0 && Query.has_pred_between q l r
                then begin
                  if op.(s) < 0 then begin
                    (* First feasible split: fill the subset's rows/width,
                       needed by every alternative. Done lazily so the
                       cardinality memo sees exactly the same subsets the
                       list-based search asked it about. *)
                    tb.Rules.t_rows.(s) <- Card.card card s;
                    tb.Rules.t_width.(s) <- Card.width card s
                  end;
                  let tag = Rules.cheapest_join_into model tb ~s ~l ~r ~best in
                  (* Strictly cheaper replaces — on ties the earlier split
                     wins, as the list-based version's [<=] guard did. *)
                  if op.(s) < 0 || best.(2) < cand.(2) then begin
                    cand.(0) <- best.(0);
                    cand.(1) <- best.(1);
                    cand.(2) <- best.(2);
                    op.(s) <- tag;
                    split.(s) <- l
                  end
                end
              end);
          if op.(s) >= 0 then begin
            tb.Rules.t_io.(s) <- cand.(0);
            tb.Rules.t_cpu.(s) <- cand.(1);
            incr entries
          end
        end)
  done;
  if op.(full) < 0 then
    invalid_arg "Dp.optimize: no plan (disconnected query?)";
  (* Reconstruction: build [Plan.t] nodes only along the winning tree. The
     constructors recompute costs from the same inputs the cost search
     used, so the plan's annotations are bit-identical to the table
     entries. *)
  let rec build s =
    if Relset.cardinal s = 1 then
      Rules.leaf_plan model card (Relset.min_elt s) op.(s)
    else begin
      let l = split.(s) in
      let pl = build l in
      let pr = build (Relset.diff s l) in
      Rules.join_plan model ~rows:tb.Rules.t_rows.(s) op.(s) pl pr
    end
  in
  (Rules.finalize model card (build full), !entries)

let optimize model card = fst (optimize_with_stats model card)

(* ------------------------------------------------------------------- *)
(* The original list-based DP, kept as the test oracle: materialises
   every alternative via [Rules.join_alternatives] and keeps whole
   [Plan.t] trees in the table. Exponentially slower in allocation (not
   in asymptotics) than the flat version above, which must agree with it
   plan-for-plan, bit-for-bit. Test-only — no production caller. *)

let optimize_reference_with_stats model card =
  let q = Card.query card in
  let n = Query.n_rels q in
  if n > max_rels then
    invalid_arg
      (Printf.sprintf "Dp.optimize: %d relations exceed the DP limit of %d" n
         max_rels);
  let full = Relset.full n in
  let best : Plan.t option array = Array.make (full + 1) None in
  let entries = ref 0 in
  (* Leaves. *)
  for i = 0 to n - 1 do
    best.(Relset.singleton i) <-
      Some (Rules.cheapest (Rules.leaf_alternatives model card i));
    incr entries
  done;
  for k = 2 to n do
    Relset.iter_of_cardinality ~n ~k (fun s ->
        if Query.connected q s then begin
          let lowest = Relset.min_elt s in
          let candidate = ref None in
          Relset.iter_strict_subsets s (fun l ->
              if Relset.mem lowest l then begin
                let r = Relset.diff s l in
                match (best.(l), best.(r)) with
                | Some pl, Some pr
                  when Query.preds_between q l r <> [] ->
                    let alt =
                      Rules.cheapest (Rules.join_alternatives model card pl pr)
                    in
                    (match !candidate with
                    | Some c when Plan.total_cost c <= Plan.total_cost alt -> ()
                    | _ -> candidate := Some alt)
                | _ -> ()
              end);
          match !candidate with
          | Some plan ->
              best.(s) <- Some plan;
              incr entries
          | None -> ()
        end)
  done;
  match best.(full) with
  | Some plan -> (Rules.finalize model card plan, !entries)
  | None -> invalid_arg "Dp.optimize: no plan (disconnected query?)"

let optimize_reference model card = fst (optimize_reference_with_stats model card)
