type filter_op = Le | Ge | Eq

type filter = {
  frel : int;
  fcol : string;
  fop : filter_op;
  fvalue : int;
  fsel : float;
}

type join_pred = {
  jleft : int;
  jlcol : string;
  jright : int;
  jrcol : string;
  jsel : float;
}

type rel = { ridx : int; rtable : string; ralias : string }

type aggregate = { group_by : (int * string) list; sum_cols : (int * string) list }

type t = {
  qid : string;
  rels : rel array;
  preds : join_pred list;
  filters : filter list;
  agg : aggregate option;
}

let n_rels t = Array.length t.rels
let joins t = List.length t.preds

let filters_of t i = List.filter (fun f -> f.frel = i) t.filters

let filter_sel t i =
  List.fold_left (fun acc f -> acc *. f.fsel) 1.0 (filters_of t i)

let preds_between t a b =
  List.filter
    (fun p ->
      (Relset.mem p.jleft a && Relset.mem p.jright b)
      || (Relset.mem p.jleft b && Relset.mem p.jright a))
    t.preds

(* Allocation-free [preds_between t a b <> []], for the DP hot loop. A
   top-level recursive loop rather than [List.exists]: the predicate
   closure would otherwise be allocated once per call, and this runs once
   per candidate split of every connected subset. *)
let rec pred_between_loop preds a b =
  match preds with
  | [] -> false
  | p :: rest ->
      (Relset.mem p.jleft a && Relset.mem p.jright b)
      || (Relset.mem p.jleft b && Relset.mem p.jright a)
      || pred_between_loop rest a b

let has_pred_between t a b = pred_between_loop t.preds a b

let connected t s =
  if Relset.is_empty s then false
  else begin
    let seed = Relset.singleton (Relset.min_elt s) in
    let rec grow reached =
      let next =
        List.fold_left
          (fun acc p ->
            if Relset.mem p.jleft s && Relset.mem p.jright s then
              if Relset.mem p.jleft acc then Relset.add p.jright acc
              else if Relset.mem p.jright acc then Relset.add p.jleft acc
              else acc
            else acc)
          reached t.preds
      in
      if Relset.equal next reached then reached else grow next
    in
    Relset.equal (grow seed) s
  end

let neighborhood t s ~within =
  List.fold_left
    (fun acc p ->
      let acc =
        if Relset.mem p.jleft s && Relset.mem p.jright within then
          Relset.add p.jright acc
        else acc
      in
      if Relset.mem p.jright s && Relset.mem p.jleft within then
        Relset.add p.jleft acc
      else acc)
    Relset.empty t.preds
  |> fun n -> Relset.diff n s

(* EnumerateCsg: emit every connected subset of the subgraph induced by
   [s], each exactly once. Subsets are seeded at each node v and grown
   only through neighbours, never into nodes smaller than v or already
   prohibited, which is what guarantees uniqueness. *)
let connected_subsets t s =
  let result = ref [] in
  let rec grow c prohibited =
    result := c :: !result;
    let frontier = Relset.diff (neighborhood t c ~within:s) prohibited in
    if not (Relset.is_empty frontier) then begin
      let prohibited' = Relset.union prohibited frontier in
      (* Every nonempty subset of the frontier, including the full one. *)
      let rec each = function
        | None -> ()
        | Some sub ->
            grow (Relset.union c sub) prohibited';
            each (Relset.next_subset frontier sub)
      in
      grow (Relset.union c frontier) prohibited';
      each (Relset.first_subset frontier)
    end
  in
  Relset.iter
    (fun v ->
      let smaller =
        Relset.fold
          (fun u acc -> if u < v then Relset.add u acc else acc)
          s Relset.empty
      in
      grow (Relset.singleton v) (Relset.add v smaller))
    s;
  !result

let make ~id ~rels ~preds ~filters ~agg =
  let rels =
    Array.of_list
      (List.mapi (fun ridx (rtable, ralias) -> { ridx; rtable; ralias }) rels)
  in
  let n = Array.length rels in
  if n = 0 then invalid_arg "Query.make: no relations";
  if n > 62 then invalid_arg "Query.make: too many relations";
  let aliases = Array.to_list (Array.map (fun r -> r.ralias) rels) in
  if List.length (List.sort_uniq String.compare aliases) <> n then
    invalid_arg "Query.make: duplicate aliases";
  let check_idx what i =
    if i < 0 || i >= n then
      invalid_arg (Printf.sprintf "Query.make: %s index %d out of range" what i)
  in
  List.iter
    (fun p ->
      check_idx "join" p.jleft;
      check_idx "join" p.jright;
      if p.jleft = p.jright then invalid_arg "Query.make: self-join predicate";
      if not (p.jsel > 0. && p.jsel <= 1.) then
        invalid_arg "Query.make: join selectivity out of (0,1]")
    preds;
  List.iter
    (fun f ->
      check_idx "filter" f.frel;
      if not (f.fsel > 0. && f.fsel <= 1.) then
        invalid_arg "Query.make: filter selectivity out of (0,1]")
    filters;
  (match agg with
  | None -> ()
  | Some a ->
      List.iter (fun (i, _) -> check_idx "group-by" i) a.group_by;
      List.iter (fun (i, _) -> check_idx "sum" i) a.sum_cols);
  let q = { qid = id; rels; preds; filters; agg } in
  if n > 1 && not (connected q (Relset.full n)) then
    invalid_arg "Query.make: join graph is not connected";
  q

let filter_selectivity op value (col : Catalog.column) =
  let clamp s = Float.min 1.0 (Float.max 1e-6 s) in
  match col.Catalog.histogram with
  | Some h ->
      clamp
        (match op with
        | Eq -> Histogram.selectivity_eq h value
        | Le -> Histogram.selectivity_le h value
        | Ge -> Histogram.selectivity_ge h value)
  | None -> (
      (* Uniform-distribution fallback. *)
      let range =
        float_of_int (col.Catalog.max_value - col.Catalog.min_value + 1)
      in
      match op with
      | Eq -> clamp (1.0 /. Float.max 1.0 col.Catalog.distinct)
      | Le ->
          clamp
            (float_of_int (value - col.Catalog.min_value + 1) /. Float.max 1.0 range)
      | Ge ->
          clamp
            (float_of_int (col.Catalog.max_value - value + 1) /. Float.max 1.0 range))

let pp ppf t =
  Format.fprintf ppf "@[<v>query %s: %d rels, %d joins, %d filters%s@,"
    t.qid (n_rels t) (joins t) (List.length t.filters)
    (match t.agg with
    | Some a ->
        Printf.sprintf ", group-by %d aggs %d" (List.length a.group_by)
          (1 + List.length a.sum_cols)
    | None -> "");
  Array.iter
    (fun r -> Format.fprintf ppf "  %s AS %s@," r.rtable r.ralias)
    t.rels;
  List.iter
    (fun p ->
      Format.fprintf ppf "  %d.%s = %d.%s (sel %.2e)@," p.jleft p.jlcol
        p.jright p.jrcol p.jsel)
    t.preds;
  Format.fprintf ppf "@]"

let to_sql t =
  let buf = Buffer.create 512 in
  let alias i = t.rels.(i).ralias in
  Buffer.add_string buf "SELECT ";
  (match t.agg with
  | None ->
      Buffer.add_string buf
        (String.concat ", "
           (Array.to_list (Array.map (fun r -> r.ralias ^ ".*") t.rels)))
  | Some a ->
      let groups =
        List.map (fun (i, c) -> Printf.sprintf "%s.%s" (alias i) c) a.group_by
      in
      let sums =
        List.map (fun (i, c) -> Printf.sprintf "SUM(%s.%s)" (alias i) c) a.sum_cols
      in
      Buffer.add_string buf
        (String.concat ", " (groups @ ("COUNT(*)" :: sums))));
  Buffer.add_string buf "\nFROM ";
  Buffer.add_string buf
    (String.concat ", "
       (Array.to_list
          (Array.map (fun r -> Printf.sprintf "%s AS %s" r.rtable r.ralias) t.rels)));
  let join_conds =
    List.map
      (fun p ->
        Printf.sprintf "%s.%s = %s.%s" (alias p.jleft) p.jlcol (alias p.jright)
          p.jrcol)
      t.preds
  in
  let filter_conds =
    List.map
      (fun f ->
        let op = match f.fop with Le -> "<=" | Ge -> ">=" | Eq -> "=" in
        Printf.sprintf "%s.%s %s %d" (alias f.frel) f.fcol op f.fvalue)
      t.filters
  in
  (match join_conds @ filter_conds with
  | [] -> ()
  | conds ->
      Buffer.add_string buf "\nWHERE ";
      Buffer.add_string buf (String.concat "\n  AND " conds));
  (match t.agg with
  | Some a when a.group_by <> [] ->
      Buffer.add_string buf "\nGROUP BY ";
      Buffer.add_string buf
        (String.concat ", "
           (List.map (fun (i, c) -> Printf.sprintf "%s.%s" (alias i) c) a.group_by))
  | _ -> ());
  Buffer.add_string buf (Printf.sprintf "\n-- fingerprint %s" t.qid);
  Buffer.contents buf
