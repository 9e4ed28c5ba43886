(* ------------------------------------------------------------------- *)
(* Cost-only alternative evaluation, for {!Cascades} when it prices a
   plan and for every step of {!Greedy}. The plan-building alternatives
   they replaced live on as the tests' oracle ([Oracle.Alternatives]).

   The functions below mirror the cost formulas of the [Plan] constructors
   term for term, in the same floating-point evaluation order, so the
   costs they produce are bit-identical to [Plan.total_cost] of the plan
   the constructor would have built. The terms that depend only on one
   child's rows and width — its spill io as a hash build side, and the
   spill io and cpu of an implicit Sort over it — are computed once per
   entry by [set_entry_terms] and read back per split; the rest is
   evaluated per split. They read and write flat arrays indexed by memo
   group and allocate nothing: no [Plan.t] records, no lists, no
   closures, no boxed floats (all intermediates are local unboxed floats;
   [Cost.spill_factor] and [Float.max] are inlined by hand because a
   non-inlined call would box its float argument).

   Anything changed in a [Plan] constructor's cost arithmetic must be
   changed here identically — the QCheck properties in
   [test_optimizer.ml] (Cascades == its plan-building reference, complete
   Cascades == the exhaustive DP) are the guard. *)

type tables = {
  t_rows : float array;  (* plan output rows (leaf: filtered base rows) *)
  t_io : float array;  (* cost_io of the best plan for the subset *)
  t_cpu : float array;  (* cost_cpu of the best plan for the subset *)
  t_hash_spill : float array;  (* spill io of a hash build over the entry *)
  t_sort_spill : float array;  (* spill io of a Sort over the entry *)
  t_sort_cpu : float array;  (* a Sort's cpu over the entry's own *)
}

let make_tables n =
  {
    t_rows = Array.make n 0.0;
    t_io = Array.make n 0.0;
    t_cpu = Array.make n 0.0;
    t_hash_spill = Array.make n 0.0;
    t_sort_spill = Array.make n 0.0;
    t_sort_cpu = Array.make n 0.0;
  }

(* [Plan.hash_join]'s spill term for this entry as the build side, and
   [Plan.sort]'s io and cpu terms over it, each as the constructor
   evaluates it. The search never calls this: {!Cascades} fills every
   group's terms in one pass when it prices a plan, after the search
   ends, and {!Greedy} refills its plan-so-far and leaf rows each
   step. *)
let set_entry_terms model tb i ~width =
  let rows = tb.t_rows.(i) in
  let page = float_of_int model.Cost.page_size in
  let wm = float_of_int model.Cost.work_mem in
  let hwidth =
    if width <= Plan.hash_build_width then width else Plan.hash_build_width
  in
  let hmem = rows *. (float_of_int hwidth +. model.Cost.hash_mem_overhead) in
  let hsp = if hmem <= wm then 1.0 else 1.0 +. log (hmem /. wm) /. log 2.0 in
  tb.t_hash_spill.(i) <- (hsp -. 1.0) *. hmem /. page;
  let swidth =
    if width <= Plan.sort_width_cap then width else Plan.sort_width_cap
  in
  let smem = rows *. float_of_int swidth in
  let ssp = if smem <= wm then 1.0 else 1.0 +. log (smem /. wm) /. log 2.0 in
  tb.t_sort_spill.(i) <- (ssp -. 1.0) *. smem /. page;
  let n = if rows > 2.0 then rows else 2.0 in
  tb.t_sort_cpu.(i) <- model.Cost.sort_cost *. n *. (log n /. log 2.)

(* Winning-alternative tags, the flat pass's stand-in for a [Plan.node].
   Leaves: 0 = seq scan, 1 = index scan. Joins (l holds the lowest
   relation of the subset, r the rest): 0 = hash build-l, 1 = hash
   build-r, 2 = NL outer-l, 3 = NL outer-r, 4 = merge. The numeric order
   matches the list order of [Oracle.Alternatives.leaf] / [join],
   and selection below uses strict [<] in that order, so ties resolve to
   the same alternative as [cheapest]. *)

let has_index_path card i =
  let tbl = Card.table_of card i in
  List.exists
    (fun f -> Catalog.has_index_on tbl f.Query.fcol)
    (Query.filters_of (Card.query card) i)

(* [has_index_path] of every relation at once, in one pass over the
   filters. *)
let rec index_bits card bits = function
  | [] -> bits
  | f :: rest ->
      let i = f.Query.frel in
      index_bits card
        (if Catalog.has_index_on (Card.table_of card i) f.Query.fcol then
           bits lor (1 lsl i)
         else bits)
        rest

let index_path_bits card = index_bits card 0 (Card.query card).Query.filters

let cheapest_leaf_into model card i ~best =
  let tbl = Card.table_of card i in
  let pages = Catalog.pages tbl ~page_size:model.Cost.page_size in
  let out_rows = Card.base_rows card i in
  let seq_io = pages *. model.Cost.seq_page_cost in
  let seq_cpu = tbl.Catalog.rows *. model.Cost.cpu_tuple_cost in
  best.(0) <- seq_io;
  best.(1) <- seq_cpu;
  best.(2) <- seq_io +. seq_cpu;
  if not (has_index_path card i) then 0
  else begin
    let sel = out_rows /. Float.max 1.0 tbl.Catalog.rows in
    let ipages = Float.max 1.0 ((pages *. sel) +. 3.) in
    let idx_io = ipages *. model.Cost.rand_page_cost in
    let idx_cpu = out_rows *. model.Cost.cpu_tuple_cost in
    if idx_io +. idx_cpu < best.(2) then begin
      best.(0) <- idx_io;
      best.(1) <- idx_cpu;
      best.(2) <- idx_io +. idx_cpu;
      1
    end
    else 0
  end

let cheapest_join_into model tb ~s ~l ~r ~best =
  let rows = tb.t_rows.(s) in
  let rows_l = tb.t_rows.(l) and rows_r = tb.t_rows.(r) in
  let io_l = tb.t_io.(l) and cpu_l = tb.t_cpu.(l) in
  let io_r = tb.t_io.(r) and cpu_r = tb.t_cpu.(r) in
  let out_cpu = rows *. model.Cost.cpu_tuple_cost in
  (* 0: hash join, build = l. *)
  let cpu0 =
    cpu_l +. cpu_r
    +. (rows_l *. model.Cost.hash_build_cost)
    +. (rows_r *. model.Cost.hash_probe_cost)
    +. out_cpu
  in
  let io0 = ((io_l +. io_r) *. 1.0) +. tb.t_hash_spill.(l) in
  best.(0) <- io0;
  best.(1) <- cpu0;
  best.(2) <- io0 +. cpu0;
  let tag = 0 in
  (* 1: hash join, build = r. *)
  let cpu1 =
    cpu_r +. cpu_l
    +. (rows_r *. model.Cost.hash_build_cost)
    +. (rows_l *. model.Cost.hash_probe_cost)
    +. out_cpu
  in
  let io1 = ((io_r +. io_l) *. 1.0) +. tb.t_hash_spill.(r) in
  let tag =
    if io1 +. cpu1 < best.(2) then begin
      best.(0) <- io1;
      best.(1) <- cpu1;
      best.(2) <- io1 +. cpu1;
      1
    end
    else tag
  in
  (* 2: nested loop, outer = l (Float.max 0., inlined). *)
  let rsc2 = if rows_l -. 1.0 > 0.0 then rows_l -. 1.0 else 0.0 in
  let cpu2 =
    cpu_l +. cpu_r
    +. (rsc2 *. cpu_r *. 0.1)
    +. (rows_l *. rows_r *. model.Cost.cpu_tuple_cost *. 0.25)
    +. out_cpu
  in
  let io2 = io_l +. io_r in
  let tag =
    if io2 +. cpu2 < best.(2) then begin
      best.(0) <- io2;
      best.(1) <- cpu2;
      best.(2) <- io2 +. cpu2;
      2
    end
    else tag
  in
  (* 3: nested loop, outer = r. *)
  let rsc3 = if rows_r -. 1.0 > 0.0 then rows_r -. 1.0 else 0.0 in
  let cpu3 =
    cpu_r +. cpu_l
    +. (rsc3 *. cpu_l *. 0.1)
    +. (rows_r *. rows_l *. model.Cost.cpu_tuple_cost *. 0.25)
    +. out_cpu
  in
  let io3 = io_r +. io_l in
  let tag =
    if io3 +. cpu3 < best.(2) then begin
      best.(0) <- io3;
      best.(1) <- cpu3;
      best.(2) <- io3 +. cpu3;
      3
    end
    else tag
  in
  (* 4: merge join — each side behind an implicit Sort (Plan.sort,
     its per-entry terms read from the tables). *)
  let sio_l = io_l +. tb.t_sort_spill.(l) in
  let scpu_l = cpu_l +. tb.t_sort_cpu.(l) in
  let sio_r = io_r +. tb.t_sort_spill.(r) in
  let scpu_r = cpu_r +. tb.t_sort_cpu.(r) in
  let cpu4 =
    scpu_l +. scpu_r
    +. ((rows_l +. rows_r) *. model.Cost.cpu_tuple_cost)
    +. out_cpu
  in
  let io4 = sio_l +. sio_r in
  let tag =
    if io4 +. cpu4 < best.(2) then begin
      best.(0) <- io4;
      best.(1) <- cpu4;
      best.(2) <- io4 +. cpu4;
      4
    end
    else tag
  in
  tag

let leaf_plan model card i tag =
  if tag = 1 then
    match Plan.index_scan model card i with
    | Some p -> p
    | None -> invalid_arg "Rules.leaf_plan: no index path"
  else Plan.seq_scan model card i

let join_plan model ~rows tag pl pr =
  match tag with
  | 0 -> Plan.hash_join model ~rows ~build:pl ~probe:pr
  | 1 -> Plan.hash_join model ~rows ~build:pr ~probe:pl
  | 2 -> Plan.nl_join model ~rows ~outer:pl ~inner:pr
  | 3 -> Plan.nl_join model ~rows ~outer:pr ~inner:pl
  | _ -> Plan.merge_join model ~rows ~left:pl ~right:pr

let cheapest = function
  | [] -> invalid_arg "Rules.cheapest: no alternatives"
  | first :: rest ->
      List.fold_left
        (fun best p ->
          if Plan.total_cost p < Plan.total_cost best then p else best)
        first rest

let finalize model card plan =
  let q = Card.query card in
  match q.Query.agg with
  | None -> plan
  | Some a ->
      let groups = List.length a.Query.group_by in
      let aggs = 1 + List.length a.Query.sum_cols in
      let rows = Card.group_card card a.Query.group_by ~input:plan.Plan.rows in
      cheapest
        [
          Plan.hash_agg model ~rows ~groups ~aggs plan;
          Plan.stream_agg model ~rows ~groups ~aggs plan;
        ]
