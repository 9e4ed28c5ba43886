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
  adj : Relset.t array;
  mutable stmt_hash : int;
}

let n_rels t = Array.length t.rels
let joins t = List.length t.preds

let filters_of t i = List.filter (fun f -> f.frel = i) t.filters

let filter_sel t i =
  List.fold_left (fun acc f -> acc *. f.fsel) 1.0 (filters_of t i)

(* Union of the adjacency masks of the members of [s]. *)
let adjacent t s =
  let acc = ref Relset.empty and m = ref s in
  while !m <> 0 do
    acc := !acc lor t.adj.(Relset.ctz !m);
    m := !m land (!m - 1)
  done;
  !acc

(* Grow from the lowest member through the adjacency masks, each member
   entering the frontier once. A lowest member adjacent to all the others
   (the fact table of a star) answers at once. *)
let connected t s =
  if s = 0 then false
  else if s land lnot t.adj.(Relset.ctz s) = s land -s then true
  else begin
    let low = s land -s in
    let reached = ref low and frontier = ref low in
    while !frontier <> 0 do
      let i = Relset.ctz !frontier in
      frontier := !frontier land (!frontier - 1);
      let fresh = t.adj.(i) land s land lnot !reached in
      reached := !reached lor fresh;
      frontier := !frontier lor fresh
    done;
    !reached = s
  end

(* EnumerateCsg: emit every connected subset of the subgraph induced by
   [s], each exactly once. Subsets are seeded at each node v and grown
   only through neighbours, never into nodes smaller than v or already
   prohibited, which is what guarantees uniqueness. [grow] is top level
   so a walk allocates no closure. [cadj] is [adjacent t c], carried
   down so a step unions in only the adjacency of the members it adds. *)
let rec grow t s f c cadj prohibited =
  f c;
  let frontier = cadj land s land lnot c land lnot prohibited in
  if frontier <> 0 then begin
    let prohibited = prohibited lor frontier in
    (* The full frontier first, then its nonempty proper subsets in
       descending submask order. *)
    grow t s f (c lor frontier) (cadj lor adjacent t frontier) prohibited;
    let sub = ref ((frontier - 1) land frontier) in
    while !sub <> 0 do
      grow t s f (c lor !sub) (cadj lor adjacent t !sub) prohibited;
      sub := (!sub - 1) land frontier
    done
  end

let iter_connected_subsets t s f =
  let rest = ref s in
  while !rest <> 0 do
    let v = !rest land - !rest in
    rest := !rest lxor v;
    (* Prohibit v and every member of [s] below it. *)
    grow t s f v (t.adj.(Relset.ctz v)) (s land ((v lsl 1) - 1))
  done

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
  let adj = Array.make n Relset.empty in
  List.iter
    (fun p ->
      adj.(p.jleft) <- Relset.add p.jright adj.(p.jleft);
      adj.(p.jright) <- Relset.add p.jleft adj.(p.jright))
    preds;
  let q = { qid = id; rels; preds; filters; agg; adj; stmt_hash = -1 } in
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

(* The statement without its fingerprint line, written straight into
   [buf]: no format strings, no intermediate lists. *)
let add_sql_body buf t =
  let str = Buffer.add_string buf in
  let col i c =
    str t.rels.(i).ralias;
    Buffer.add_char buf '.';
    str c
  in
  str "SELECT ";
  (match t.agg with
  | None ->
      Array.iteri
        (fun k r ->
          if k > 0 then str ", ";
          str r.ralias;
          str ".*")
        t.rels
  | Some a ->
      List.iter
        (fun (i, c) ->
          col i c;
          str ", ")
        a.group_by;
      str "COUNT(*)";
      List.iter
        (fun (i, c) ->
          str ", SUM(";
          col i c;
          Buffer.add_char buf ')')
        a.sum_cols);
  str "\nFROM ";
  Array.iteri
    (fun k r ->
      if k > 0 then str ", ";
      str r.rtable;
      str " AS ";
      str r.ralias)
    t.rels;
  (* Join conditions, then filters, the first after "WHERE ". *)
  let first = ref true in
  let cond () =
    str (if !first then "\nWHERE " else "\n  AND ");
    first := false
  in
  List.iter
    (fun p ->
      cond ();
      col p.jleft p.jlcol;
      str " = ";
      col p.jright p.jrcol)
    t.preds;
  List.iter
    (fun f ->
      cond ();
      col f.frel f.fcol;
      str (match f.fop with Le -> " <= " | Ge -> " >= " | Eq -> " = ");
      str (string_of_int f.fvalue))
    t.filters;
  match t.agg with
  | Some a when a.group_by <> [] ->
      str "\nGROUP BY ";
      List.iteri
        (fun k (i, c) ->
          if k > 0 then str ", ";
          col i c)
        a.group_by
  | _ -> ()

let to_sql t =
  let buf = Buffer.create 512 in
  add_sql_body buf t;
  Buffer.add_string buf "\n-- fingerprint ";
  Buffer.add_string buf t.qid;
  Buffer.contents buf

(* The template's length: the qid up to its first '#'. The loops here
   are top level, so a call allocates no closure. *)
let rec template_end qid n i =
  if i = n || String.unsafe_get qid i = '#' then i else template_end qid n (i + 1)

let template_len qid = template_end qid (String.length qid) 0

let template t = String.sub t.qid 0 (template_len t.qid)

(* The multiplier is odd, so a step is a bijection of [h lxor x]. *)
let hash_mix h x =
  let h = (h lxor x) * 0x2545F4914F6CDD1D in
  h lxor (h lsr 29)

let mix_string h s = hash_mix h (Hashtbl.hash s)
let mix_col h (i, c) = mix_string (hash_mix h i) c

let op_code = function Le -> 0 | Ge -> 1 | Eq -> 2

(* Every field [add_sql_body] renders, and the template; list lengths
   separate the lists. *)
let compute_statement_hash t =
  let tl = template_len t.qid in
  let h = ref tl in
  for i = 0 to tl - 1 do
    h := (!h * 31) + Char.code (String.unsafe_get t.qid i)
  done;
  let h = hash_mix !h (Array.length t.rels) in
  let h =
    Array.fold_left (fun h r -> mix_string (mix_string h r.rtable) r.ralias) h t.rels
  in
  let h =
    List.fold_left
      (fun h p ->
        mix_string (hash_mix (mix_string (hash_mix h p.jleft) p.jlcol) p.jright) p.jrcol)
      (hash_mix h (List.length t.preds))
      t.preds
  in
  let h =
    List.fold_left
      (fun h f ->
        hash_mix (hash_mix (mix_string (hash_mix h f.frel) f.fcol) (op_code f.fop)) f.fvalue)
      (hash_mix h (List.length t.filters))
      t.filters
  in
  let h =
    match t.agg with
    | None -> hash_mix h (-1)
    | Some a ->
        let h = List.fold_left mix_col (hash_mix h (List.length a.group_by)) a.group_by in
        List.fold_left mix_col (hash_mix h (List.length a.sum_cols)) a.sum_cols
  in
  h land max_int

let statement_hash t =
  if t.stmt_hash >= 0 then t.stmt_hash
  else begin
    let h = compute_statement_hash t in
    t.stmt_hash <- h;
    h
  end

let rec same_prefix a b n i =
  i = n || (String.unsafe_get a i = String.unsafe_get b i && same_prefix a b n (i + 1))

let same_template a b =
  let n = template_len a in
  n = template_len b && same_prefix a b n 0

let same_rel r s = String.equal r.rtable s.rtable && String.equal r.ralias s.ralias

let same_pred p q =
  p.jleft = q.jleft && p.jright = q.jright && String.equal p.jlcol q.jlcol
  && String.equal p.jrcol q.jrcol

let same_filter f g =
  f.frel = g.frel && f.fop = g.fop && f.fvalue = g.fvalue && String.equal f.fcol g.fcol

let same_col (i, c) (j, d) = i = j && String.equal c d

let same_agg a b =
  List.equal same_col a.group_by b.group_by && List.equal same_col a.sum_cols b.sum_cols

let same_statement a b =
  a == b
  || statement_hash a = statement_hash b
     && same_template a.qid b.qid
     && Array.length a.rels = Array.length b.rels
     && Array.for_all2 same_rel a.rels b.rels
     && List.equal same_pred a.preds b.preds
     && List.equal same_filter a.filters b.filters
     && Option.equal same_agg a.agg b.agg

module Statements = Hashtbl.Make (struct
  type nonrec t = t

  let equal = same_statement
  let hash = statement_hash
end)
