type t = {
  q : Query.t;
  tables : Catalog.table array;
  base : float array;
  widths : int array;
  pred_ends : int array;
      (* the join predicates in list order, each as the set of its two
         relations *)
  pred_sel : float array;
}

let create cat q =
  let n = Query.n_rels q in
  let tables =
    Array.init n (fun i -> Catalog.find_table cat q.Query.rels.(i).Query.rtable)
  in
  let base =
    Array.init n (fun i ->
        Float.max 1.0 (tables.(i).Catalog.rows *. Query.filter_sel q i))
  in
  let widths = Array.map Catalog.row_width tables in
  let preds = Array.of_list q.Query.preds in
  {
    q;
    tables;
    base;
    widths;
    pred_ends =
      Array.map
        (fun (p : Query.join_pred) ->
          (1 lsl p.Query.jleft) lor (1 lsl p.Query.jright))
        preds;
    pred_sel = Array.map (fun (p : Query.join_pred) -> p.Query.jsel) preds;
  }

let query t = t.q
let table_of t i = t.tables.(i)
let base_rows t i = t.base.(i)

(* Computed afresh on every call: loops over flat arrays allocate
   nothing, and each group keeps its own rows in the search arena.
   Members multiply in increasing index order, then predicates in list
   order: the searches' plans depend on these exact bits. The tests are
   inline bit operations, not calls, and the body is inlined into both
   entry points, so [card_into] returns no boxed float. *)
let[@inline] estimate t s =
  let rows = ref 1.0 in
  for i = 0 to Array.length t.base - 1 do
    if s land (1 lsl i) <> 0 then rows := !rows *. t.base.(i)
  done;
  let sel = ref 1.0 in
  for k = 0 to Array.length t.pred_sel - 1 do
    let ends = t.pred_ends.(k) in
    if s land ends = ends then sel := !sel *. t.pred_sel.(k)
  done;
  Float.max 1.0 (!rows *. !sel)

let card t s = estimate t s
let card_into t s out k = out.(k) <- estimate t s

let group_card t group_by ~input =
  let distinct_product =
    List.fold_left
      (fun acc (rel, col_name) ->
        let col = Catalog.column t.tables.(rel) col_name in
        acc *. Float.max 1.0 col.Catalog.distinct)
      1.0 group_by
  in
  Float.max 1.0 (Float.min input distinct_product)

let width t s =
  let w = ref 0 and m = ref s in
  while !m <> 0 do
    w := !w + t.widths.(Relset.ctz !m);
    m := !m land (!m - 1)
  done;
  !w
