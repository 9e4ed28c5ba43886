open Optimizer
open Relation

type instance = { tables : (string, Table.t) Hashtbl.t }

let table inst name =
  match Hashtbl.find_opt inst.tables name with
  | Some t -> t
  | None -> invalid_arg ("Bridge: no materialised table " ^ name)

let table_names inst =
  Hashtbl.fold (fun k _ acc -> k :: acc) inst.tables [] |> List.sort compare

(* A column named "<t>_key" is the dense primary key of table <t> and a
   foreign key when it appears in any other table. *)
let key_target_of_column all_tables col_name =
  if Filename.check_suffix col_name "_key" then begin
    let target = Filename.chop_suffix col_name "_key" in
    if List.mem target all_tables then Some target else None
  end
  else None

let materialize rng cat ~scale ?(cap = 2000) () =
  let tables = Catalog.tables cat in
  let names = List.map (fun t -> t.Catalog.tbl_name) tables in
  let scaled t =
    max 2 (min cap (int_of_float (t.Catalog.rows *. scale)))
  in
  let scaled_rows =
    List.map (fun t -> (t.Catalog.tbl_name, scaled t)) tables
  in
  let inst = { tables = Hashtbl.create 16 } in
  List.iter
    (fun tbl ->
      let schema =
        Schema.make
          (List.map (fun c -> (c.Catalog.col_name, Value.Tint)) tbl.Catalog.columns)
      in
      let spec_of (c : Catalog.column) =
        match key_target_of_column names c.Catalog.col_name with
        | Some target when target = tbl.Catalog.tbl_name -> Datagen.Serial
        | Some target -> Datagen.Foreign_key (List.assoc target scaled_rows)
        | None -> Datagen.Uniform_int (c.Catalog.min_value, c.Catalog.max_value)
      in
      let specs = List.map spec_of tbl.Catalog.columns in
      let data =
        Datagen.table rng schema specs ~rows:(List.assoc tbl.Catalog.tbl_name scaled_rows)
      in
      Hashtbl.replace inst.tables tbl.Catalog.tbl_name data)
    tables;
  inst

(* ------------------------------------------------------------------ *)
(* Plan translation *)

let filter_expr schema ~offset (f : Query.filter) =
  let idx = offset + Schema.index_of schema f.Query.fcol in
  let value = Expr.Const (Value.Int f.Query.fvalue) in
  match f.Query.fop with
  | Query.Le -> Expr.(Cmp (Le, Col idx, value))
  | Query.Ge -> Expr.(Cmp (Ge, Col idx, value))
  | Query.Eq -> Expr.(Cmp (Eq, Col idx, value))

let conj = function
  | [] -> Expr.Const (Value.Bool true)
  | e :: rest -> List.fold_left (fun acc x -> Expr.And (acc, x)) e rest

(* Translation state: operator tree, plus for every covered relation its
   column offset in the output tuple; [arity] is the output tuple width. *)
type sub = {
  op : Rowexec.Operator.t;
  offsets : (int * int) list;
  arity : int;
  schemas : (int * Schema.t) list; (* relation -> its base schema *)
}

let column_index sub (rel, col) =
  let offset = List.assoc rel sub.offsets in
  let schema = List.assoc rel sub.schemas in
  offset + Schema.index_of schema col

let join_sub combine left right =
  {
    op = combine left right;
    offsets =
      left.offsets @ List.map (fun (r, o) -> (r, o + left.arity)) right.offsets;
    arity = left.arity + right.arity;
    schemas = left.schemas @ right.schemas;
  }

let leaf_sub inst q rel =
  let table_name = q.Query.rels.(rel).Query.rtable in
  let data = table inst table_name in
  let schema = Table.schema data in
  let scan = Rowexec.Operator.Scan data in
  let filters = Query.filters_of q rel in
  let op =
    if filters = [] then scan
    else
      Rowexec.Operator.Filter
        (conj (List.map (filter_expr schema ~offset:0) filters), scan)
  in
  { op; offsets = [ (rel, 0) ]; arity = Schema.arity schema; schemas = [ (rel, schema) ] }

(* Key pairs for the join predicates crossing (left, right); each predicate
   yields (left column index, right-local column index). *)
let cross_keys q left right =
  let lset =
    List.fold_left (fun acc (r, _) -> Relset.add r acc) Relset.empty left.offsets
  in
  List.filter_map
    (fun (p : Query.join_pred) ->
      let l_side, l_col, r_side, r_col =
        if Relset.mem p.Query.jleft lset then
          (p.Query.jleft, p.Query.jlcol, p.Query.jright, p.Query.jrcol)
        else (p.Query.jright, p.Query.jrcol, p.Query.jleft, p.Query.jlcol)
      in
      match List.assoc_opt r_side right.offsets with
      | None -> None
      | Some _ ->
          if List.mem_assoc l_side left.offsets then
            Some (column_index left (l_side, l_col), column_index right (r_side, r_col))
          else None)
    q.Query.preds

let rec translate inst q (plan : Plan.t) =
  match plan.Plan.node with
  | Plan.Seq_scan s | Plan.Index_scan s -> leaf_sub inst q s.Plan.srel
  | Plan.Sort c -> translate inst q c
  | Plan.Hash_join (build, probe) ->
      let l = translate inst q build and r = translate inst q probe in
      let keys = cross_keys q l r in
      if keys = [] then
        (* Cross join (should not happen for connected queries): fall back
           to a nested loop with a true predicate. *)
        join_sub
          (fun a b -> Rowexec.Operator.Nested_loop_join (conj [], a.op, b.op))
          l r
      else
        join_sub (fun a b -> Rowexec.Operator.Hash_join (keys, a.op, b.op)) l r
  | Plan.Merge_join (sl, sr) ->
      (* Plan merge joins carry explicit Sort children; the row-level merge
         join sorts internally, so unwrap them. *)
      let unwrap (p : Plan.t) =
        match p.Plan.node with Plan.Sort c -> c | _ -> p
      in
      let l = translate inst q (unwrap sl) and r = translate inst q (unwrap sr) in
      let keys = cross_keys q l r in
      if keys = [] then
        join_sub
          (fun a b -> Rowexec.Operator.Nested_loop_join (conj [], a.op, b.op))
          l r
      else
        join_sub (fun a b -> Rowexec.Operator.Merge_join (keys, a.op, b.op)) l r
  | Plan.Nl_join (outer, inner) ->
      let l = translate inst q outer and r = translate inst q inner in
      let keys = cross_keys q l r in
      let pred =
        conj
          (List.map
             (fun (li, ri) -> Expr.(Cmp (Eq, Col li, Col (ri + l.arity))))
             keys)
      in
      join_sub (fun a b -> Rowexec.Operator.Nested_loop_join (pred, a.op, b.op)) l r
  | Plan.Hash_agg (child, _, _) ->
      let sub = translate inst q child in
      apply_agg q sub ~stream:false
  | Plan.Stream_agg (child, _, _) ->
      let sub = translate inst q child in
      apply_agg q sub ~stream:true

and apply_agg q sub ~stream =
  match q.Query.agg with
  | None -> sub
  | Some a ->
      let groups = List.map (column_index sub) a.Query.group_by in
      let aggs =
        Rowexec.Operator.Count
        :: List.map (fun sc -> Rowexec.Operator.Sum (column_index sub sc)) a.Query.sum_cols
      in
      let op =
        if stream then
          Rowexec.Operator.Stream_aggregate
            (groups, aggs, Rowexec.Operator.Sort (groups, sub.op))
        else Rowexec.Operator.Hash_aggregate (groups, aggs, sub.op)
      in
      (* Aggregation changes the schema: downstream offsets are invalid,
         but aggregation is only ever the plan root. *)
      { sub with op }

(* Without aggregation the output column order depends on the join order;
   project to the canonical relation-index order so results are comparable
   across plans. *)
let canonicalize q sub =
  match q.Query.agg with
  | Some _ -> sub.op
  | None ->
      let idxs =
        List.concat_map
          (fun (rel, offset) ->
            let schema = List.assoc rel sub.schemas in
            List.init (Schema.arity schema) (fun j -> offset + j))
          (List.sort compare sub.offsets)
      in
      Rowexec.Operator.Project (idxs, sub.op)

let to_rowexec inst q plan =
  if not (Plan.well_formed plan ~n_rels:(Query.n_rels q)) then
    invalid_arg "Bridge.to_rowexec: plan does not cover the query";
  canonicalize q (translate inst q plan)

(* ------------------------------------------------------------------ *)
(* Reference evaluation *)

let reference inst q =
  let n = Query.n_rels q in
  let remaining = ref (List.init n (fun i -> i)) in
  let covered = ref Relset.empty in
  let pick () =
    (* Prefer a relation connected to what is already joined. *)
    let connected_first =
      List.find_opt
        (fun i ->
          Relset.is_empty !covered
          || Subsets.preds_between q !covered (Relset.singleton i) <> [])
        !remaining
    in
    match connected_first with
    | Some i -> i
    | None -> List.hd !remaining
  in
  let take () =
    let i = pick () in
    remaining := List.filter (fun x -> x <> i) !remaining;
    covered := Relset.add i !covered;
    i
  in
  let first = take () in
  let acc = ref (leaf_sub inst q first) in
  while !remaining <> [] do
    let i = take () in
    let right = leaf_sub inst q i in
    let keys = cross_keys q !acc right in
    let pred =
      conj
        (List.map
           (fun (li, ri) -> Expr.(Cmp (Eq, Col li, Col (ri + !acc.arity))))
           keys)
    in
    acc :=
      join_sub
        (fun a b -> Rowexec.Operator.Nested_loop_join (pred, a.op, b.op))
        !acc right
  done;
  match q.Query.agg with
  | Some _ -> (apply_agg q !acc ~stream:false).op
  | None -> canonicalize q !acc

let validate inst q plan =
  let planned = Rowexec.Operator.execute (to_rowexec inst q plan) in
  let expected = Rowexec.Operator.execute (reference inst q) in
  if Table.equal_bag planned expected then Ok ()
  else
    Error
      (Printf.sprintf
         "plan result (%d rows) differs from reference (%d rows) for query %s"
         (Table.cardinality planned) (Table.cardinality expected) q.Query.qid)
