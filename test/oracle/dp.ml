open Optimizer

let max_rels = 14

(* Materialises every alternative via [Alternatives.join] and keeps
   whole [Plan.t] trees in the table: slow and allocation-heavy, but
   written independently of the Cascades search it checks. *)
let optimize_with_stats model card =
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
      Some (Rules.cheapest (Alternatives.leaf model card i));
    incr entries
  done;
  (* Subsets in increasing cardinality order; an int-ascending sweep is not
     enough (a smaller-cardinality set can have a larger encoding). *)
  for k = 2 to n do
    Subsets.iter_of_cardinality ~n ~k (fun s ->
        if Query.connected q s then begin
          let lowest = Relset.min_elt s in
          let candidate = ref None in
          Subsets.iter_strict_subsets s (fun l ->
              (* Each unordered split once: the left part keeps the lowest
                 relation of [s] (the join alternatives try both roles). *)
              if Relset.mem lowest l then begin
                let r = Relset.diff s l in
                match (best.(l), best.(r)) with
                | Some pl, Some pr
                  when Subsets.preds_between q l r <> [] ->
                    let alt =
                      Rules.cheapest (Alternatives.join model card pl pr)
                    in
                    (* Strictly cheaper replaces: on ties the earlier
                       split wins. *)
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

let optimize model card = fst (optimize_with_stats model card)
