(* The list-building greedy the cost-only {!Optimizer.Greedy} replaced,
   kept as its oracle: every step builds each access path and each join
   alternative as a [Plan.t] and keeps the cheapest. *)

open Optimizer

let order card =
  let q = Card.query card in
  let n = Query.n_rels q in
  if n = 1 then [ 0 ]
  else begin
    (* Start at the relation with the fewest filtered rows. *)
    let start = ref 0 in
    for i = 1 to n - 1 do
      if Card.base_rows card i < Card.base_rows card !start then start := i
    done;
    let joined = ref (Relset.singleton !start) in
    let picked = ref [ !start ] in
    while Relset.cardinal !joined < n do
      let best = ref None in
      for i = 0 to n - 1 do
        if not (Relset.mem i !joined) then begin
          if Subsets.preds_between q (Relset.singleton i) !joined <> [] then begin
            let c = Card.card card (Relset.add i !joined) in
            match !best with
            | Some (_, bc) when bc <= c -> ()
            | _ -> best := Some (i, c)
          end
        end
      done;
      match !best with
      | Some (i, _) ->
          joined := Relset.add i !joined;
          picked := i :: !picked
      | None ->
          (* Disconnected graphs are rejected by [Query.make]. *)
          assert false
    done;
    List.rev !picked
  end

let plan model card =
  match order card with
  | [] -> invalid_arg "Greedy_ref.plan: empty query"
  | first :: rest ->
      let leaf i = Rules.cheapest (Alternatives.leaf model card i) in
      let joined =
        List.fold_left
          (fun acc i ->
            Rules.cheapest (Alternatives.join model card acc (leaf i)))
          (leaf first) rest
      in
      Rules.finalize model card joined
