type scan = {
  srel : int;
  stable : string;
  srows : float;
  spages : float;
  stotal_pages : float;
  random_io : bool;
}

type node =
  | Seq_scan of scan
  | Index_scan of scan
  | Hash_join of t * t
  | Nl_join of t * t
  | Merge_join of t * t
  | Sort of t
  | Hash_agg of t * int * int
  | Stream_agg of t * int * int

and t = {
  node : node;
  rset : Relset.t;
  rows : float;
  width : int;
  cost_io : float;
  cost_cpu : float;
  mem_bytes : float;
}

let seq_scan model card i =
  let tbl = Card.table_of card i in
  let pages = Catalog.pages tbl ~page_size:model.Cost.page_size in
  let out_rows = Card.base_rows card i in
  {
    node =
      Seq_scan
        {
          srel = i;
          stable = tbl.Catalog.tbl_name;
          srows = out_rows;
          spages = pages;
          stotal_pages = pages;
          random_io = false;
        };
    rset = Relset.singleton i;
    rows = out_rows;
    width = Catalog.row_width tbl;
    cost_io = pages *. model.Cost.seq_page_cost;
    (* Every stored row is examined to apply filters. *)
    cost_cpu = tbl.Catalog.rows *. model.Cost.cpu_tuple_cost;
    mem_bytes = 0.;
  }

let index_scan model card i =
  let tbl = Card.table_of card i in
  let q = Card.query card in
  let filters = Query.filters_of q i in
  let indexed =
    List.exists (fun f -> Catalog.has_index_on tbl f.Query.fcol) filters
  in
  if not indexed then None
  else begin
    let out_rows = Card.base_rows card i in
    let full_pages = Catalog.pages tbl ~page_size:model.Cost.page_size in
    (* Fetch only the qualifying fraction of pages, but with random I/O,
       plus a few pages of index traversal. *)
    let sel = out_rows /. Float.max 1.0 tbl.Catalog.rows in
    let pages = Float.max 1.0 ((full_pages *. sel) +. 3.) in
    Some
      {
        node =
          Index_scan
            {
              srel = i;
              stable = tbl.Catalog.tbl_name;
              srows = out_rows;
              spages = pages;
              stotal_pages = full_pages;
              random_io = true;
            };
        rset = Relset.singleton i;
        rows = out_rows;
        width = Catalog.row_width tbl;
        cost_io = pages *. model.Cost.rand_page_cost;
        cost_cpu = out_rows *. model.Cost.cpu_tuple_cost;
        mem_bytes = 0.;
      }
  end

(* Hash builds project the build side down to the join key plus the columns
   the probe pipeline needs, not the full stored row. *)
let hash_build_width = 32

let hash_mem model ~rows ~width =
  rows *. (float_of_int (min width hash_build_width) +. model.Cost.hash_mem_overhead)

let hash_join model ~rows ~build ~probe =
  let mem = hash_mem model ~rows:build.rows ~width:build.width in
  let spill = Cost.spill_factor model ~bytes:mem in
  let cpu =
    build.cost_cpu +. probe.cost_cpu
    +. (build.rows *. model.Cost.hash_build_cost)
    +. (probe.rows *. model.Cost.hash_probe_cost)
    +. (rows *. model.Cost.cpu_tuple_cost)
  in
  let io = (build.cost_io +. probe.cost_io) *. 1.0 +. ((spill -. 1.0) *. mem /. float_of_int model.Cost.page_size) in
  {
    node = Hash_join (build, probe);
    rset = Relset.union build.rset probe.rset;
    rows;
    width = build.width + probe.width;
    cost_io = io;
    cost_cpu = cpu;
    mem_bytes = mem;
  }

let nl_join model ~rows ~outer ~inner =
  (* The inner subtree is re-evaluated per outer row; charge its own cost
     once per outer row (a pessimistic, rescan-free model that keeps NLJ
     attractive only for tiny inners). *)
  let rescans = Float.max 0.0 (outer.rows -. 1.0) in
  let cpu =
    outer.cost_cpu +. inner.cost_cpu
    +. (rescans *. inner.cost_cpu *. 0.1)
    +. (outer.rows *. inner.rows *. model.Cost.cpu_tuple_cost *. 0.25)
    +. (rows *. model.Cost.cpu_tuple_cost)
  in
  let io = outer.cost_io +. inner.cost_io in
  {
    node = Nl_join (outer, inner);
    rset = Relset.union outer.rset inner.rset;
    rows;
    width = outer.width + inner.width;
    cost_io = io;
    cost_cpu = cpu;
    mem_bytes = 0.;
  }

(* Sort workspaces hold only the sort keys plus a row pointer, capped well
   below full row width. *)
let sort_width_cap = 64

let sort model child =
  let n = Float.max 2.0 child.rows in
  let mem = child.rows *. float_of_int (min child.width sort_width_cap) in
  let spill = Cost.spill_factor model ~bytes:mem in
  {
    node = Sort child;
    rset = child.rset;
    rows = child.rows;
    width = child.width;
    cost_io =
      child.cost_io
      +. ((spill -. 1.0) *. mem /. float_of_int model.Cost.page_size);
    cost_cpu = child.cost_cpu +. (model.Cost.sort_cost *. n *. (log n /. log 2.));
    mem_bytes = mem;
  }

let merge_join model ~rows ~left ~right =
  let sl = sort model left and sr = sort model right in
  let cpu =
    sl.cost_cpu +. sr.cost_cpu
    +. ((sl.rows +. sr.rows) *. model.Cost.cpu_tuple_cost)
    +. (rows *. model.Cost.cpu_tuple_cost)
  in
  {
    node = Merge_join (sl, sr);
    rset = Relset.union left.rset right.rset;
    rows;
    width = left.width + right.width;
    cost_io = sl.cost_io +. sr.cost_io;
    cost_cpu = cpu;
    mem_bytes = 0.;
  }

let agg_width = 16

let hash_agg model ~rows ~groups ~aggs child =
  let out_width = (groups * 8) + (aggs * agg_width) in
  let mem = rows *. (float_of_int out_width +. model.Cost.hash_mem_overhead) in
  {
    node = Hash_agg (child, groups, aggs);
    rset = child.rset;
    rows;
    width = out_width;
    cost_io = child.cost_io;
    cost_cpu =
      child.cost_cpu
      +. (child.rows *. float_of_int (max 1 aggs) *. model.Cost.agg_cost);
    mem_bytes = mem;
  }

let stream_agg model ~rows ~groups ~aggs child =
  let sorted = sort model child in
  let out_width = (groups * 8) + (aggs * agg_width) in
  {
    node = Stream_agg (sorted, groups, aggs);
    rset = child.rset;
    rows;
    width = out_width;
    cost_io = sorted.cost_io;
    cost_cpu =
      sorted.cost_cpu
      +. (sorted.rows *. float_of_int (max 1 aggs) *. model.Cost.agg_cost);
    mem_bytes = 0.;
  }

let total_cost t = t.cost_io +. t.cost_cpu
let cpu_cost t = t.cost_cpu

let rec fold f acc t =
  let acc = f acc t in
  match t.node with
  | Seq_scan _ | Index_scan _ -> acc
  | Sort c | Hash_agg (c, _, _) | Stream_agg (c, _, _) -> fold f acc c
  | Hash_join (a, b) | Nl_join (a, b) | Merge_join (a, b) ->
      fold f (fold f acc a) b

let io_pages t =
  fold
    (fun acc n ->
      match n.node with
      | Seq_scan s | Index_scan s -> acc +. s.spages
      | _ -> acc)
    0. t

let grant_bytes t = int_of_float (fold (fun acc n -> acc +. n.mem_bytes) 0. t)
let n_operators t = fold (fun acc _ -> acc + 1) 0 t

(* A compiled plan in a real engine carries expression trees, metadata and
   runtime structures; 6 KiB per operator is in line with SQL Server's
   reported plan-cache entry sizes for mid-size plans. *)
let bytes_per_operator = 6 * 1024

let size_bytes t = n_operators t * bytes_per_operator

let scans t =
  List.rev
    (fold
       (fun acc n ->
         match n.node with Seq_scan s | Index_scan s -> s :: acc | _ -> acc)
       [] t)

let well_formed t ~n_rels =
  let ss = scans t in
  let seen = List.sort_uniq compare (List.map (fun s -> s.srel) ss) in
  List.length ss = n_rels
  && List.length seen = n_rels
  && List.for_all (fun r -> r >= 0 && r < n_rels) seen
  && Relset.equal t.rset (Relset.full n_rels)

let rec pp ppf t =
  let open Format in
  let info = Printf.sprintf "(rows=%.3g cost=%.3g)" t.rows (total_cost t) in
  match t.node with
  | Seq_scan s -> fprintf ppf "SeqScan %s %s" s.stable info
  | Index_scan s -> fprintf ppf "IndexScan %s %s" s.stable info
  | Hash_join (b, p) ->
      fprintf ppf "@[<v 2>HashJoin %s@,build: %a@,probe: %a@]" info pp b pp p
  | Nl_join (o, i) ->
      fprintf ppf "@[<v 2>NLJoin %s@,outer: %a@,inner: %a@]" info pp o pp i
  | Merge_join (l, r) ->
      fprintf ppf "@[<v 2>MergeJoin %s@,%a@,%a@]" info pp l pp r
  | Sort c -> fprintf ppf "@[<v 2>Sort %s@,%a@]" info pp c
  | Hash_agg (c, g, a) ->
      fprintf ppf "@[<v 2>HashAgg g=%d a=%d %s@,%a@]" g a info pp c
  | Stream_agg (c, g, a) ->
      fprintf ppf "@[<v 2>StreamAgg g=%d a=%d %s@,%a@]" g a info pp c
