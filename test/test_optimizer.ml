(* Tests for the optimizer: cardinality estimation, plan costing, greedy /
   DP / Cascades search, and row-level validation of produced plans. The
   DP and the row-level validator are the test-only [Oracle] library. *)

open Optimizer
open Oracle

(* ------------------------------------------------------------------ *)
(* Schema helpers: a star catalog (fact + dimensions) and a chain. *)

let star_catalog ~dims ~fact_rows ~dim_rows =
  let cat = Catalog.create () in
  for d = 0 to dims - 1 do
    let name = Printf.sprintf "d%d" d in
    Catalog.add_table cat
      {
        Catalog.tbl_name = name;
        rows = float_of_int dim_rows;
        columns =
          [
            Catalog.int_column (name ^ "_key") ~distinct:(float_of_int dim_rows);
            {
              (Catalog.int_column "attr" ~distinct:100.) with
              Catalog.min_value = 0;
              max_value = 99;
            };
          ];
        indexes =
          [ { Catalog.idx_name = name ^ "_pk"; idx_columns = [ name ^ "_key" ]; clustered = true } ];
      }
  done;
  Catalog.add_table cat
    {
      Catalog.tbl_name = "fact";
      rows = float_of_int fact_rows;
      columns =
        (List.init dims (fun d ->
             Catalog.int_column
               (Printf.sprintf "d%d_key" d)
               ~distinct:(float_of_int dim_rows))
        @ [ Catalog.int_column "measure" ~distinct:1000. ]);
      indexes = [];
    };
  cat

(* Star query: fact (index 0) joined to [dims] dimensions, a filter on each
   of the first [filters] dimensions' attr column, aggregation on top. *)
let star_query ?(filters = 1) ~dims cat =
  ignore cat;
  let rels =
    ("fact", "f")
    :: List.init dims (fun d -> (Printf.sprintf "d%d" d, Printf.sprintf "d%d" d))
  in
  let preds =
    List.init dims (fun d ->
        {
          Query.jleft = 0;
          jlcol = Printf.sprintf "d%d_key" d;
          jright = d + 1;
          jrcol = Printf.sprintf "d%d_key" d;
          jsel = 1.0 /. 1000.;
        })
  in
  let filters =
    List.init (min filters dims) (fun d ->
        { Query.frel = d + 1; fcol = "attr"; fop = Query.Le; fvalue = 49; fsel = 0.5 })
  in
  Query.make
    ~id:(Printf.sprintf "star%d" dims)
    ~rels ~preds ~filters
    ~agg:(Some { Query.group_by = [ (1, "attr") ]; sum_cols = [ (0, "measure") ] })

let chain_catalog ~len ~rows =
  let cat = Catalog.create () in
  for i = 0 to len - 1 do
    let name = Printf.sprintf "t%d" i in
    let next_fk =
      if i < len - 1 then
        [ Catalog.int_column (Printf.sprintf "t%d_key" (i + 1)) ~distinct:(float_of_int rows) ]
      else []
    in
    Catalog.add_table cat
      {
        Catalog.tbl_name = name;
        rows = float_of_int rows;
        columns =
          Catalog.int_column (name ^ "_key") ~distinct:(float_of_int rows)
          :: Catalog.int_column "payload" ~distinct:50.
          :: next_fk;
        indexes =
          [ { Catalog.idx_name = name ^ "_pk"; idx_columns = [ name ^ "_key" ]; clustered = true } ];
      }
  done;
  cat

let chain_query ~len cat =
  ignore cat;
  let rels = List.init len (fun i -> (Printf.sprintf "t%d" i, Printf.sprintf "t%d" i)) in
  let preds =
    List.init (len - 1) (fun i ->
        {
          Query.jleft = i;
          jlcol = Printf.sprintf "t%d_key" (i + 1);
          jright = i + 1;
          jrcol = Printf.sprintf "t%d_key" (i + 1);
          jsel = 1.0 /. 1000.;
        })
  in
  Query.make ~id:(Printf.sprintf "chain%d" len) ~rels ~preds
    ~filters:[ { Query.frel = 0; fcol = "payload"; fop = Query.Le; fvalue = 24; fsel = 0.5 } ]
    ~agg:None

let model = Cost.default

(* ------------------------------------------------------------------ *)
(* Relset, and the oracles' subset enumerators (Oracle.Subsets) *)

let test_relset_basics () =
  let s = Relset.add 4 (Relset.add 1 Relset.empty) in
  Alcotest.(check bool) "mem" true (Relset.mem 1 s);
  Alcotest.(check bool) "not mem" false (Relset.mem 2 s);
  Alcotest.(check int) "cardinal" 2 (Relset.cardinal s);
  Alcotest.(check (list int)) "members" [ 1; 4 ] (Relset.members s);
  Alcotest.(check int) "min elt" 1 (Relset.min_elt s);
  Alcotest.(check int) "full" 7 (Relset.full 3)

let test_relset_subset_enumeration () =
  let s = Relset.full 3 in
  let subs = ref [] in
  Oracle.Subsets.iter_strict_subsets s (fun x -> subs := x :: !subs);
  (* 2^3 - 2 nonempty proper subsets. *)
  Alcotest.(check int) "count" 6 (List.length !subs);
  Alcotest.(check int) "distinct" 6 (List.length (List.sort_uniq compare !subs))

(* EnumerateCsg must produce exactly the connected subsets, each once. *)
let prop_connected_subsets_match_bruteforce =
  QCheck.Test.make ~name:"connected_subsets = brute force" ~count:100
    QCheck.(pair (int_range 2 6) (list_of_size Gen.(int_range 0 8) (pair (int_range 0 5) (int_range 0 5))))
    (fun (n, edge_list) ->
      (* Build a query over n relations with the given (deduped) edges,
         adding a spanning chain so Query.make accepts it as connected. *)
      let chain = List.init (n - 1) (fun i -> (i, i + 1)) in
      let edges =
        List.sort_uniq compare
          (chain
          @ List.filter_map
              (fun (a, b) ->
                let a = a mod n and b = b mod n in
                if a = b then None else Some (min a b, max a b))
              edge_list)
      in
      let cat = chain_catalog ~len:n ~rows:100 in
      ignore cat;
      let q =
        Query.make ~id:"csg"
          ~rels:(List.init n (fun i -> (Printf.sprintf "t%d" i, Printf.sprintf "r%d" i)))
          ~preds:
            (List.map
               (fun (a, b) ->
                 (* Column names need not exist in a catalog for pure graph
                    operations. *)
                 { Query.jleft = a; jlcol = "x"; jright = b; jrcol = "x"; jsel = 0.5 })
               edges)
          ~filters:[] ~agg:None
      in
      let full = Relset.full n in
      let enumerated = List.sort compare (Subsets.connected_subsets q full) in
      let brute = ref [] in
      for s = 1 to full do
        if Query.connected q s then brute := s :: !brute
      done;
      enumerated = List.sort compare !brute)

let test_query_to_sql () =
  let cat = star_catalog ~dims:2 ~fact_rows:1000 ~dim_rows:100 in
  ignore cat;
  let q = star_query ~dims:2 ~filters:1 cat in
  let sql = Query.to_sql q in
  List.iter
    (fun fragment ->
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec scan i = i + nn <= nh && (String.sub hay i nn = needle || scan (i + 1)) in
        scan 0
      in
      Alcotest.(check bool) ("contains " ^ fragment) true (contains sql fragment))
    [ "SELECT"; "FROM fact AS f"; "WHERE"; "GROUP BY"; "SUM(f.measure)";
      "f.d0_key = d0.d0_key"; "fingerprint star2" ]

(* Reference count-trailing-zeros: the shift-while loop the constant-time
   implementation replaced. *)
let ctz_reference t =
  if t = 0 then invalid_arg "ctz_reference"
  else begin
    let i = ref 0 and s = ref t in
    while !s land 1 = 0 do
      incr i;
      s := !s lsr 1
    done;
    !i
  end

let test_relset_ctz () =
  for i = 0 to 61 do
    Alcotest.(check int)
      (Printf.sprintf "ctz (1 lsl %d)" i)
      i
      (Relset.ctz (1 lsl i))
  done;
  let rng = Sim.Rng.create 99 in
  for _ = 1 to 1000 do
    let v = 1 + Sim.Rng.int rng ((1 lsl 40) - 1) in
    let v = v lsl Sim.Rng.int rng 20 in
    Alcotest.(check int)
      (Printf.sprintf "ctz %d" v)
      (ctz_reference v) (Relset.ctz v)
  done

let binomial n k =
  let k = min k (n - k) in
  let r = ref 1 in
  for i = 0 to k - 1 do
    r := !r * (n - i) / (i + 1)
  done;
  !r

let test_relset_iter_of_cardinality () =
  let n = 6 in
  let all = ref [] in
  for k = 1 to n + 2 do
    let masks = ref [] in
    Oracle.Subsets.iter_of_cardinality ~n ~k (fun m -> masks := m :: !masks);
    let masks = List.rev !masks in
    if k > n then
      Alcotest.(check int) (Printf.sprintf "k=%d > n yields nothing" k) 0
        (List.length masks)
    else begin
      Alcotest.(check int)
        (Printf.sprintf "C(%d,%d) masks" n k)
        (binomial n k) (List.length masks);
      List.iter
        (fun m ->
          Alcotest.(check int) "popcount" k (Relset.cardinal m);
          Alcotest.(check bool) "within full set" true (m <= Relset.full n))
        masks;
      Alcotest.(check bool) "ascending order" true
        (List.sort compare masks = masks);
      all := masks @ !all
    end
  done;
  (* Every nonempty subset of [full n] appears in exactly one band. *)
  Alcotest.(check int) "bands partition the powerset" (Relset.full n)
    (List.length (List.sort_uniq compare !all))

let prop_iter_of_cardinality_matches_bruteforce =
  QCheck.Test.make
    ~name:"iter_of_cardinality enumerates each popcount band in order"
    ~count:100
    QCheck.(pair (int_range 1 12) (int_range 1 12))
    (fun (n, k) ->
      let k = 1 + (k mod n) in
      let got = ref [] in
      Oracle.Subsets.iter_of_cardinality ~n ~k (fun m -> got := m :: !got);
      let expected = ref [] in
      for m = Relset.full n downto 1 do
        if Relset.cardinal m = k then expected := m :: !expected
      done;
      List.rev !got = !expected)

let prop_relset_subsets_complete =
  QCheck.Test.make ~name:"submask enumeration yields exactly the proper subsets"
    ~count:100 (QCheck.int_range 1 255) (fun s ->
      let subs = ref [] in
      Oracle.Subsets.iter_strict_subsets s (fun x -> subs := x :: !subs);
      let expected = ref [] in
      for x = 1 to s - 1 do
        if x land s = x then expected := x :: !expected
      done;
      List.sort compare !subs = List.sort compare !expected)

(* ------------------------------------------------------------------ *)
(* Card *)

let test_card_star () =
  let cat = star_catalog ~dims:2 ~fact_rows:10000 ~dim_rows:1000 in
  let q = star_query ~dims:2 ~filters:1 cat in
  let card = Card.create cat q in
  (* fact base: 10000 (no filter). d0 filtered to 500. *)
  Alcotest.(check (float 1.)) "fact base" 10000. (Card.base_rows card 0);
  Alcotest.(check (float 1.)) "d0 filtered" 500. (Card.base_rows card 1);
  (* fact x d0: 10000 * 500 / 1000 = 5000 *)
  let s = Relset.add 1 (Relset.singleton 0) in
  Alcotest.(check (float 1.)) "join card" 5000. (Card.card card s);
  (* Full: 5000 * 1000/1000 = 5000 *)
  Alcotest.(check (float 1.)) "full card" 5000. (Card.card card (Relset.full 3))

(* ------------------------------------------------------------------ *)
(* Histograms *)

let test_histogram_basics () =
  let values = Array.init 1000 (fun i -> i) in
  let h = Histogram.build ~buckets:10 values in
  Alcotest.(check int) "sample" 1000 (Histogram.sample_size h);
  Alcotest.(check int) "buckets" 10 (Histogram.n_buckets h);
  Alcotest.(check int) "min" 0 (Histogram.min_value h);
  Alcotest.(check int) "max" 999 (Histogram.max_value h);
  Alcotest.(check (float 1e-9)) "le below range" 0. (Histogram.selectivity_le h (-1));
  Alcotest.(check (float 1e-9)) "le at max" 1. (Histogram.selectivity_le h 999);
  Alcotest.(check (float 1e-9)) "ge at min" 1. (Histogram.selectivity_ge h 0)

let test_histogram_uniform_accuracy () =
  let values = Array.init 10_000 (fun i -> i mod 100) in
  let h = Histogram.build values in
  (* P(v <= 24) = 0.25 exactly. *)
  Alcotest.(check bool) "le estimate" true
    (Float.abs (Histogram.selectivity_le h 24 -. 0.25) < 0.02);
  (* P(v = 50) = 0.01. *)
  Alcotest.(check bool) "eq estimate" true
    (Float.abs (Histogram.selectivity_eq h 50 -. 0.01) < 0.005)

let test_histogram_beats_uniform_on_skew () =
  (* 90% of rows hold value 0, the rest spread over [1, 1000). *)
  let rng = Sim.Rng.create 17 in
  let values =
    Array.init 10_000 (fun _ ->
        if Sim.Rng.float rng 1.0 < 0.9 then 0 else 1 + Sim.Rng.int rng 999)
  in
  let truth_le0 =
    float_of_int (Array.length (Array.of_list (List.filter (fun v -> v <= 0) (Array.to_list values))))
    /. 10_000.
  in
  let col = Catalog.int_column "skewed" ~distinct:1000. in
  let col_h = { col with Catalog.histogram = Some (Histogram.build values) } in
  let hist_est = Query.filter_selectivity Query.Le 0 col_h in
  let uniform_est = Query.filter_selectivity Query.Le 0 { col with Catalog.max_value = 999 } in
  let err e = Float.abs (e -. truth_le0) in
  Alcotest.(check bool)
    (Printf.sprintf "histogram err %.3f << uniform err %.3f" (err hist_est) (err uniform_est))
    true
    (err hist_est < 0.05 && err hist_est *. 10. < err uniform_est)

let prop_histogram_le_monotone =
  QCheck.Test.make ~name:"histogram selectivity_le is monotone and bounded" ~count:60
    QCheck.(list_of_size Gen.(int_range 1 200) (int_range (-50) 50))
    (fun values ->
      let h = Histogram.build (Array.of_list values) in
      let prev = ref 0. in
      let ok = ref true in
      for v = -60 to 60 do
        let s = Histogram.selectivity_le h v in
        if s < !prev -. 1e-9 || s < 0. || s > 1. then ok := false;
        prev := s
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Plans *)

let test_plan_well_formed_greedy () =
  let cat = star_catalog ~dims:5 ~fact_rows:100000 ~dim_rows:1000 in
  let q = star_query ~dims:5 cat in
  let card = Card.create cat q in
  let plan = Greedy.plan model card in
  Alcotest.(check bool) "well formed" true (Plan.well_formed plan ~n_rels:6);
  Alcotest.(check bool) "cost positive" true (Plan.total_cost plan > 0.);
  Alcotest.(check bool) "io pages positive" true (Plan.io_pages plan > 0.);
  Alcotest.(check bool) "has grant (hash somewhere)" true (Plan.grant_bytes plan > 0);
  Alcotest.(check bool) "plan size positive" true (Plan.size_bytes plan > 0)

let test_plan_index_scan_cheaper_when_selective () =
  let cat = chain_catalog ~len:2 ~rows:1_000_000 in
  let q =
    Query.make ~id:"sel" ~rels:[ ("t0", "a"); ("t1", "b") ]
      ~preds:
        [ { Query.jleft = 0; jlcol = "t1_key"; jright = 1; jrcol = "t1_key"; jsel = 1e-6 } ]
      ~filters:
        [ { Query.frel = 1; fcol = "t1_key"; fop = Query.Eq; fvalue = 42; fsel = 1e-6 } ]
      ~agg:None
  in
  let card = Card.create cat q in
  let seq = Plan.seq_scan model card 1 in
  match Plan.index_scan model card 1 with
  | Some idx ->
      Alcotest.(check bool) "index beats seq for point lookup" true
        (Plan.total_cost idx < Plan.total_cost seq)
  | None -> Alcotest.fail "expected an index scan alternative"

let test_plan_hash_join_mem_scales () =
  let cat = star_catalog ~dims:1 ~fact_rows:1_000_000 ~dim_rows:50_000 in
  let q = star_query ~dims:1 ~filters:0 cat in
  let card = Card.create cat q in
  let fact = Plan.seq_scan model card 0 and dim = Plan.seq_scan model card 1 in
  let rows = Card.card card (Relset.full 2) in
  let small_build = Plan.hash_join model ~rows ~build:dim ~probe:fact in
  let big_build = Plan.hash_join model ~rows ~build:fact ~probe:dim in
  Alcotest.(check bool) "building on smaller side needs less memory" true
    (small_build.Plan.mem_bytes < big_build.Plan.mem_bytes);
  Alcotest.(check bool) "and costs less" true
    (Plan.total_cost small_build < Plan.total_cost big_build)

(* ------------------------------------------------------------------ *)
(* DP vs Cascades *)

let cascades_complete ?(params = Cascades.default_params) cat q =
  let params = { params with Cascades.max_tasks = 2_000_000; min_tasks = 2_000_000 } in
  match Cascades.optimize ~params ~env:Env.null model cat q with
  | Ok r -> r
  | Error e -> Alcotest.failf "cascades failed: %s" (Format.asprintf "%a" Env.pp_abort_reason e)

let test_cascades_complete_matches_dp_star () =
  List.iter
    (fun dims ->
      let cat = star_catalog ~dims ~fact_rows:200_000 ~dim_rows:2_000 in
      let q = star_query ~dims cat in
      let card = Card.create cat q in
      let dp = Dp.optimize model card in
      let casc = cascades_complete cat q in
      Alcotest.(check bool)
        (Printf.sprintf "complete search (star %d)" dims)
        true
        (casc.Cascades.outcome = Cascades.Complete);
      Alcotest.(check (float 1e-3))
        (Printf.sprintf "dp cost = cascades cost (star %d)" dims)
        (Plan.total_cost dp)
        (Plan.total_cost casc.Cascades.plan))
    [ 2; 3; 4; 5 ]

let test_cascades_complete_matches_dp_chain () =
  List.iter
    (fun len ->
      let cat = chain_catalog ~len ~rows:50_000 in
      let q = chain_query ~len cat in
      let card = Card.create cat q in
      let dp = Dp.optimize model card in
      let casc = cascades_complete cat q in
      Alcotest.(check (float 1e-3))
        (Printf.sprintf "dp = cascades (chain %d)" len)
        (Plan.total_cost dp)
        (Plan.total_cost casc.Cascades.plan))
    [ 2; 3; 5; 7 ]

let test_dp_beats_or_matches_greedy () =
  let cat = star_catalog ~dims:6 ~fact_rows:500_000 ~dim_rows:3_000 in
  let q = star_query ~dims:6 ~filters:3 cat in
  let card = Card.create cat q in
  let dp = Dp.optimize model card in
  let greedy = Greedy.plan model card in
  Alcotest.(check bool) "dp <= greedy" true
    (Plan.total_cost dp <= Plan.total_cost greedy +. 1e-6)

let test_dp_rejects_large () =
  let cat = star_catalog ~dims:15 ~fact_rows:1000 ~dim_rows:10 in
  let q = star_query ~dims:15 cat in
  let card = Card.create cat q in
  Alcotest.(check bool) "refuses > max_rels" true
    (try
       ignore (Dp.optimize model card);
       false
     with Invalid_argument _ -> true)

(* The SALES templates instantiate 15-20 relations, above the DP cap;
   keep the first [max_rels] (the join graphs are stars rooted at the
   fact table, so any prefix stays connected) and drop the predicates,
   filters and aggregate columns that referenced truncated relations. *)
let truncate_query q ~max_rels =
  if Query.n_rels q <= max_rels then q
  else begin
    let keep = max_rels in
    Query.make
      ~id:(q.Query.qid ^ "-trunc")
      ~rels:
        (Array.to_list (Array.sub q.Query.rels 0 keep)
        |> List.map (fun r -> (r.Query.rtable, r.Query.ralias)))
      ~preds:
        (List.filter
           (fun (p : Query.join_pred) ->
             p.Query.jleft < keep && p.Query.jright < keep)
           q.Query.preds)
      ~filters:
        (List.filter (fun (f : Query.filter) -> f.Query.frel < keep) q.Query.filters)
      ~agg:
        (Option.map
           (fun (a : Query.aggregate) ->
             {
               Query.group_by = List.filter (fun (i, _) -> i < keep) a.Query.group_by;
               sum_cols = List.filter (fun (i, _) -> i < keep) a.Query.sum_cols;
             })
           q.Query.agg)
  end

(* Pinned DP results on the ten SALES templates, captured from the
   list-based subset enumeration before the per-cardinality Gosper
   rewrite. The rewrite must fill the same number of connected-subset
   entries and find plans of identical cost; any drift here means the
   enumeration changed behaviour, not just speed. *)
let test_dp_pinned_sales () =
  let expected =
    [
      ("s0_monthly_mix", 14, 8205, 767399.457962);
      ("s1_quarter_broad", 14, 8205, 1360549.433152);
      ("s2_promo_deep", 14, 8205, 533260.456099);
      ("s3_supplier_cost", 14, 8205, 992229.375771);
      ("s4_halfyear_trend", 14, 8205, 1950813.783837);
      ("s5_store_detail", 14, 8205, 461396.987387);
      ("s6_channel_rollup", 14, 8205, 1205648.611234);
      ("s7_customer_seg", 14, 8205, 918150.252013);
      ("s8_product_margin", 14, 8205, 1068127.742894);
      ("s9_yearly_exec", 14, 8205, 1515283.679727);
    ]
  in
  let cat = Workload.Sales.catalog () in
  let templates = Workload.Sales.templates () in
  Alcotest.(check int) "ten templates" (List.length expected)
    (List.length templates);
  List.iter2
    (fun t (name, n_rels, entries, cost) ->
      Alcotest.(check string) "template name" name t.Workload.Template.tname;
      let rng = Sim.Rng.create 7 in
      let q = Workload.Template.instance rng t ~id:1 in
      let q = truncate_query q ~max_rels:Dp.max_rels in
      Alcotest.(check int) (name ^ " rels") n_rels (Query.n_rels q);
      let card = Card.create cat q in
      let plan, got_entries = Dp.optimize_with_stats model card in
      Alcotest.(check int) (name ^ " dp entries") entries got_entries;
      Alcotest.(check (float 1e-3)) (name ^ " plan cost") cost
        (Plan.total_cost plan))
    templates expected

(* ------------------------------------------------------------------ *)
(* Cascades mechanics *)

let test_cascades_budget_exhaustion_returns_plan () =
  let cat = star_catalog ~dims:12 ~fact_rows:10_000_000 ~dim_rows:10_000 in
  let q = star_query ~dims:12 ~filters:4 cat in
  let params = { Cascades.default_params with Cascades.max_tasks = 200; min_tasks = 1 } in
  match Cascades.optimize ~params ~env:Env.null model cat q with
  | Ok r ->
      Alcotest.(check bool) "budget outcome" true (r.Cascades.outcome = Cascades.Budget_exhausted);
      Alcotest.(check bool) "still a full plan" true
        (Plan.well_formed
           (match r.Cascades.plan.Plan.node with
           | Plan.Hash_agg (c, _, _) -> c
           | Plan.Stream_agg (c, _, _) -> (
               match c.Plan.node with Plan.Sort inner -> inner | _ -> c)
           | _ -> r.Cascades.plan)
           ~n_rels:13)
  | Error _ -> Alcotest.fail "should not abort"

let test_cascades_more_effort_never_worse () =
  let cat = star_catalog ~dims:8 ~fact_rows:1_000_000 ~dim_rows:5_000 in
  let q = star_query ~dims:8 ~filters:3 cat in
  let run budget =
    let params =
      { Cascades.default_params with Cascades.max_tasks = budget; min_tasks = budget }
    in
    match Cascades.optimize ~params ~env:Env.null model cat q with
    | Ok r -> Plan.total_cost r.Cascades.plan
    | Error _ -> Alcotest.fail "abort"
  in
  let c_small = run 50 and c_big = run 50_000 in
  Alcotest.(check bool) "more search never worse" true (c_big <= c_small +. 1e-6)

let test_cascades_meters_memory_and_cpu () =
  let cat = star_catalog ~dims:6 ~fact_rows:500_000 ~dim_rows:2_000 in
  let q = star_query ~dims:6 cat in
  let bytes = ref 0 and cpu = ref 0. in
  let env = Env.counting ~bytes ~cpu_seconds:cpu in
  match Cascades.optimize ~env model cat q with
  | Ok r ->
      Alcotest.(check int) "env saw the same bytes" r.Cascades.stats.Cascades.allocated_bytes !bytes;
      Alcotest.(check bool) "bytes substantial" true (!bytes > 100_000);
      Alcotest.(check bool) "cpu consumed" true (!cpu > 0.)
  | Error _ -> Alcotest.fail "abort"

let test_cascades_memory_grows_with_query_size () =
  let alloc dims =
    let cat = star_catalog ~dims ~fact_rows:1_000_000 ~dim_rows:5_000 in
    let q = star_query ~dims cat in
    match Cascades.optimize ~env:Env.null model cat q with
    | Ok r -> r.Cascades.stats.Cascades.allocated_bytes
    | Error _ -> Alcotest.fail "abort"
  in
  let small = alloc 3 and big = alloc 9 in
  Alcotest.(check bool)
    (Printf.sprintf "9-dim query allocates much more (%d vs %d)" big small)
    true
    (big > 5 * small)

let test_cascades_stop_early () =
  let cat = star_catalog ~dims:10 ~fact_rows:1_000_000 ~dim_rows:5_000 in
  let q = star_query ~dims:10 cat in
  let calls = ref 0 in
  let env =
    {
      Env.alloc = (fun _ -> max_int);
      cpu = (fun _ -> ());
      should_stop = (fun () -> incr calls; !calls > 50);
    }
  in
  (match Cascades.optimize ~env model cat q with
  | Ok r ->
      Alcotest.(check bool) "stopped early" true (r.Cascades.outcome = Cascades.Stopped_early)
  | Error _ -> Alcotest.fail "abort");
  (* Ablation: ignoring the signal searches on. *)
  calls := 0;
  let params = { Cascades.default_params with Cascades.honor_stop_early = false } in
  match Cascades.optimize ~params ~env model cat q with
  | Ok r ->
      Alcotest.(check bool) "pressure ignored" true
        (r.Cascades.outcome <> Cascades.Stopped_early)
  | Error _ -> Alcotest.fail "abort"

let test_cascades_abort_propagates () =
  let cat = star_catalog ~dims:8 ~fact_rows:1_000_000 ~dim_rows:5_000 in
  let q = star_query ~dims:8 cat in
  let total = ref 0 in
  let env =
    {
      Env.alloc =
        (fun n ->
          total := !total + n;
          if !total > 200_000 then raise (Env.Aborted Env.Out_of_memory);
          0);
      cpu = (fun _ -> ());
      should_stop = (fun () -> false);
    }
  in
  match Cascades.optimize ~env model cat q with
  | Error Env.Out_of_memory -> ()
  | Error e -> Alcotest.failf "wrong reason: %s" (Format.asprintf "%a" Env.pp_abort_reason e)
  | Ok _ -> Alcotest.fail "expected abort"

let test_cascades_dynamic_budget () =
  let budget_for fact_rows =
    let cat = star_catalog ~dims:6 ~fact_rows ~dim_rows:1_000 in
    let q = star_query ~dims:6 cat in
    match Cascades.optimize ~env:Env.null model cat q with
    | Ok r -> r.Cascades.stats.Cascades.budget
    | Error _ -> Alcotest.fail "abort"
  in
  let cheap = budget_for 10_000 and expensive = budget_for 100_000_000 in
  Alcotest.(check bool) "dynamic optimization: costlier query gets bigger budget"
    true (expensive > cheap)

(* ------------------------------------------------------------------ *)
(* Row-level validation of optimizer plans *)

let validate_plans ~seed cat q =
  let rng = Sim.Rng.create seed in
  let inst = Bridge.materialize rng cat ~scale:0.01 ~cap:60 () in
  let card = Card.create cat q in
  let check name plan =
    match Bridge.validate inst q plan with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "%s: %s" name msg
  in
  check "greedy" (Greedy.plan model card);
  check "dp" (Dp.optimize model card);
  let casc = cascades_complete cat q in
  check "cascades" casc.Cascades.plan

let test_plans_validated_star () =
  let cat = star_catalog ~dims:3 ~fact_rows:5_000 ~dim_rows:500 in
  let q = star_query ~dims:3 ~filters:2 cat in
  validate_plans ~seed:11 cat q

let test_plans_validated_chain () =
  let cat = chain_catalog ~len:4 ~rows:2_000 in
  let q = chain_query ~len:4 cat in
  validate_plans ~seed:13 cat q

let prop_random_star_plans_validate =
  QCheck.Test.make ~name:"optimized plans match reference on random stars" ~count:15
    QCheck.(pair (int_range 2 4) (int_range 0 10_000))
    (fun (dims, seed) ->
      let cat = star_catalog ~dims ~fact_rows:3_000 ~dim_rows:300 in
      let q = star_query ~dims ~filters:(min dims 2) cat in
      let rng = Sim.Rng.create seed in
      let inst = Bridge.materialize rng cat ~scale:0.02 ~cap:50 () in
      let card = Card.create cat q in
      let plans =
        [ Greedy.plan model card; Dp.optimize model card;
          (cascades_complete cat q).Cascades.plan ]
      in
      List.for_all (fun p -> Bridge.validate inst q p = Ok ()) plans)

(* ------------------------------------------------------------------ *)
(* Randomized stars and chains: a complete Cascades search against the
   exhaustive DP, and memo-arena reuse against fresh memos. *)

let random_cat_query ~star ~n ~salt =
  if star then begin
    (* star of n rels = fact + (n-1) dims; Dp.max_rels caps n at 14 *)
    let dims = max 1 (min (n - 1) (Dp.max_rels - 1)) in
    let fact_rows = 1_000 + (salt mod 50_000) in
    let dim_rows = 50 + (salt mod 950) in
    let cat = star_catalog ~dims ~fact_rows ~dim_rows in
    (cat, star_query ~dims ~filters:(salt mod (dims + 1)) cat)
  end
  else begin
    let len = max 2 (min n Dp.max_rels) in
    let rows = 500 + (salt mod 5_000) in
    let cat = chain_catalog ~len ~rows in
    (cat, chain_query ~len cat)
  end

(* Both searches cover the same cross-product-free space with the same
   [Rules], so a search that runs to completion must find a plan of
   exactly the DP optimum's cost, at every size the DP accepts. *)
let prop_cascades_complete_matches_dp =
  QCheck.Test.make ~name:"complete cascades cost = dp cost (stars, chains 2-14)"
    ~count:30
    QCheck.(triple bool (int_range 2 14) (int_range 0 1_000_000))
    (fun (star, n, salt) ->
      let cat, q = random_cat_query ~star ~n ~salt in
      let casc = cascades_complete cat q in
      let dp = Dp.optimize model (Card.create cat q) in
      if
        casc.Cascades.outcome = Cascades.Complete
        && Plan.total_cost casc.Cascades.plan = Plan.total_cost dp
      then true
      else
        QCheck.Test.fail_reportf "%s (%d rels): complete %b, cascades %.17g, dp %.17g"
          q.Query.qid (Query.n_rels q)
          (casc.Cascades.outcome = Cascades.Complete)
          (Plan.total_cost casc.Cascades.plan) (Plan.total_cost dp))

(* Best-plan-so-far (paper §4.1): when [should_stop] fires the search
   returns the best plan it holds. Until then it takes the same steps
   whatever the cap, and the root's best only improves, so a larger
   compile-memory cap never yields a costlier plan. Caps run from 0 to
   4 GiB: 0 and 16 KiB * 4^k for k = 0..9. Each case checks a SALES
   instance and a random star or chain. On SALES instances the search
   has not been seen to replace its greedy seed before it stops, so
   their costs come out flat; the chains are where the cost moves. *)
let prop_best_plan_so_far_monotone_in_cap =
  let caps = 0 :: List.init 10 (fun k -> 16_384 lsl (2 * k)) in
  let sales = Workload.Sales.catalog () in
  let templates = Array.of_list (Workload.Sales.templates ()) in
  let params =
    { Cascades.default_params with Cascades.honor_stop_early = true }
  in
  let monotone cat q =
    let cost_at cap =
      let bytes = ref 0 in
      let env =
        {
          Env.alloc =
            (fun n ->
              bytes := !bytes + n;
              0);
          cpu = (fun _ -> ());
          should_stop = (fun () -> !bytes >= cap);
        }
      in
      match Cascades.optimize ~params ~env model cat q with
      | Ok r -> r.Cascades.cost
      | Error e ->
          QCheck.Test.fail_reportf "%s: abort %s" q.Query.qid
            (Format.asprintf "%a" Env.pp_abort_reason e)
    in
    let rec check = function
      | (c1, x1) :: ((c2, x2) :: _ as rest) ->
          if x2 > x1 then
            QCheck.Test.fail_reportf
              "%s (%d rels): cost %.17g at cap %d B rose to %.17g at cap %d B"
              q.Query.qid (Query.n_rels q) x1 c1 x2 c2
          else check rest
      | _ -> true
    in
    check (List.map (fun cap -> (cap, cost_at cap)) caps)
  in
  QCheck.Test.make
    ~name:"best-plan-so-far cost never rises as the memory cap grows" ~count:25
    QCheck.(quad (int_bound 1_000_000_000) bool (int_range 2 14)
              (int_range 0 1_000_000))
    (fun (seed, star, n, salt) ->
      let rs = Random.State.make [| seed |] in
      let t = templates.(Random.State.int rs (Array.length templates)) in
      let q =
        Workload.Template.instance (Sim.Rng.create (Random.State.bits rs)) t ~id:1
      in
      let cat, q' = random_cat_query ~star ~n ~salt in
      monotone sales q && monotone cat q')

let prop_arena_reuse_transparent =
  QCheck.Test.make ~name:"cascades arena reuse = fresh memo" ~count:10
    QCheck.(pair (int_range 2 8) (int_range 0 1_000_000))
    (fun (n, salt) ->
      (* One arena across a mixed sequence of queries, each checked
         against a fresh-memo run of the same query. *)
      let arena = Cascades.create_arena () in
      let ok = ref true in
      for i = 0 to 3 do
        let star = (salt + i) mod 2 = 0 in
        let cat, q =
          random_cat_query ~star ~n:(2 + ((n + i) mod 7)) ~salt:(salt + (7919 * i))
        in
        let reused = Cascades.optimize ~arena ~env:Env.null model cat q in
        let fresh = Cascades.optimize ~env:Env.null model cat q in
        if reused <> fresh then ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* The mask-based graph functions against the predicate-list forms kept
   in [Cascades_reference], and the cost-only Cascades search against
   the Plan-building search it replaced. *)

(* A connected join graph over [n] relations: a random tree whose parent
   links reach back at most [reach] relations, plus up to three chords.
   Short reach keeps the connected-subset count of a 20-relation graph
   small enough for the list-based oracle. *)
let random_graph_query rs n =
  let reach = 1 + Random.State.int rs 3 in
  let tree =
    List.init (n - 1) (fun k ->
        let i = k + 1 in
        (max 0 (i - 1 - Random.State.int rs reach), i))
  in
  let chords =
    if n < 3 then []
    else
      List.init (Random.State.int rs 4) (fun _ ->
          let a = Random.State.int rs n and b = Random.State.int rs n in
          (min a b, max a b))
      |> List.filter (fun (a, b) -> a <> b)
  in
  let edges = List.sort_uniq compare (tree @ chords) in
  Query.make ~id:"graph"
    ~rels:
      (List.init n (fun i -> (Printf.sprintf "t%d" i, Printf.sprintf "r%d" i)))
    ~preds:
      (List.map
         (fun (a, b) ->
           { Query.jleft = a; jlcol = "x"; jright = b; jrcol = "x"; jsel = 0.5 })
         edges)
    ~filters:[] ~agg:None

let prop_mask_graph_matches_lists =
  QCheck.Test.make ~name:"mask graph functions = predicate-list forms" ~count:100
    QCheck.(pair (int_range 1 20) (int_bound 1_000_000))
    (fun (n, seed) ->
      let rs = Random.State.make [| seed |] in
      let q = random_graph_query rs n in
      let full = Relset.full n in
      let within = Random.State.int rs full + 1 in
      let s = Random.State.int rs full + 1 in
      Subsets.connected_subsets q full
      = Cascades_reference.connected_subsets q full
      && Subsets.connected_subsets q within
         = Cascades_reference.connected_subsets q within
      && Query.connected q s = Cascades_reference.connected q s)

(* A snowflake: a random tree of [n] tables, each joined to its parent
   on the parent's key; some tables index the filtered [attr] column, so
   leaves have one or two access paths. *)
let snowflake_cat_query rs ~n =
  let cat = Catalog.create () in
  let indexed = Array.init n (fun _ -> Random.State.bool rs) in
  for i = 0 to n - 1 do
    let name = Printf.sprintf "s%d" i in
    let rows = float_of_int (50 + Random.State.int rs 200_000) in
    Catalog.add_table cat
      {
        Catalog.tbl_name = name;
        rows;
        columns =
          [
            Catalog.int_column "key" ~distinct:rows;
            Catalog.int_column "fk" ~distinct:rows;
            {
              (Catalog.int_column "attr" ~distinct:100.) with
              Catalog.min_value = 0;
              max_value = 99;
            };
          ];
        indexes =
          {
            Catalog.idx_name = name ^ "_pk";
            idx_columns = [ "key" ];
            clustered = true;
          }
          ::
          (if indexed.(i) then
             [
               {
                 Catalog.idx_name = name ^ "_attr";
                 idx_columns = [ "attr" ];
                 clustered = false;
               };
             ]
           else []);
      }
  done;
  let preds =
    List.init (n - 1) (fun k ->
        let i = k + 1 in
        {
          Query.jleft = Random.State.int rs i;
          jlcol = "key";
          jright = i;
          jrcol = "fk";
          jsel = 1.0 /. float_of_int (10 + Random.State.int rs 5_000);
        })
  in
  let filters =
    List.filter_map
      (fun i ->
        if Random.State.int rs 3 = 0 then
          Some
            {
              Query.frel = i;
              fcol = "attr";
              fop = Query.Le;
              fvalue = 9;
              fsel = 0.01 +. Random.State.float rs 0.5;
            }
        else None)
      (List.init n Fun.id)
  in
  let agg =
    if Random.State.bool rs then
      Some { Query.group_by = [ (0, "attr") ]; sum_cols = [ (n - 1, "key") ] }
    else None
  in
  let rels =
    List.init n (fun i -> (Printf.sprintf "s%d" i, Printf.sprintf "s%d" i))
  in
  (cat, Query.make ~id:"snow" ~rels ~preds ~filters ~agg)

type env_call = Alloc of int | Cpu of int64 | Poll

(* An environment that logs every call, turns [should_stop] true after
   [stop_after] polls and raises [abort] on allocation number
   [abort_at]. Every [alloc] grants [credit] (default 0). *)
let logging_env ?(credit = 0) ~stop_after ~abort_at ~abort () =
  let log = ref [] and polls = ref 0 and allocs = ref 0 in
  let env =
    {
      Env.alloc =
        (fun n ->
          log := Alloc n :: !log;
          incr allocs;
          if !allocs = abort_at then raise (Env.Aborted abort);
          credit);
      cpu = (fun x -> log := Cpu (Int64.bits_of_float x) :: !log);
      should_stop =
        (fun () ->
          log := Poll :: !log;
          incr polls;
          !polls > stop_after);
    }
  in
  (env, log)

let same_result a b =
  match (a, b) with
  | Ok (x : Cascades.result), Ok (y : Cascades.result) ->
      x.Cascades.plan = y.Cascades.plan
      && Int64.equal (Int64.bits_of_float x.Cascades.cost)
           (Int64.bits_of_float y.Cascades.cost)
      && x.Cascades.outcome = y.Cascades.outcome
      (* The reference prices as it goes and reports no [costed]. *)
      && { x.Cascades.stats with Cascades.costed = 0 }
         = { y.Cascades.stats with Cascades.costed = 0 }
  | Error x, Error y -> x = y
  | _ -> false

(* PR 20's generators: a SALES instance, a random star, chain or
   snowflake, random budgets, stop polls and allocation aborts. *)
let pick_query rs =
  match Random.State.int rs 4 with
  | 0 ->
      let templates = Array.of_list (Workload.Sales.templates ()) in
      let t = templates.(Random.State.int rs (Array.length templates)) in
      ( Workload.Sales.catalog (),
        Workload.Template.instance (Sim.Rng.create (Random.State.bits rs)) t ~id:1
      )
  | 1 ->
      let dims = 1 + Random.State.int rs 12 in
      let cat =
        star_catalog ~dims
          ~fact_rows:(1_000 + Random.State.int rs 1_000_000)
          ~dim_rows:(50 + Random.State.int rs 5_000)
      in
      (cat, star_query ~dims ~filters:(Random.State.int rs (dims + 1)) cat)
  | 2 ->
      let len = 2 + Random.State.int rs 12 in
      let rows = 100 + Random.State.int rs 50_000 in
      let cat = chain_catalog ~len ~rows in
      (cat, chain_query ~len cat)
  | _ -> snowflake_cat_query rs ~n:(1 + Random.State.int rs 14)

let pick_params rs =
  {
    Cascades.default_params with
    Cascades.min_tasks = 1 + Random.State.int rs 5_000;
    max_tasks = 1 + Random.State.int rs 30_000;
    honor_stop_early = Random.State.bool rs;
  }

let pick_stop_abort rs =
  let stop_after =
    if Random.State.bool rs then max_int else Random.State.int rs 3_000
  in
  let abort_at =
    if Random.State.bool rs then 0 else 1 + Random.State.int rs 3_000
  in
  let abort =
    if Random.State.bool rs then Env.Out_of_memory
    else Env.Gateway_timeout "gate"
  in
  (stop_after, abort_at, abort)

let prop_cascades_matches_reference =
  QCheck.Test.make ~name:"cost-only cascades = plan-building reference"
    ~count:60 (QCheck.int_bound 1_000_000_000)
    (fun seed ->
      let rs = Random.State.make [| seed |] in
      let cat, q = pick_query rs in
      let params = pick_params rs in
      let stop_after, abort_at, abort = pick_stop_abort rs in
      (* Half the runs reuse an arena that a search of another query left
         behind, mostly one cut short by an abort mid-search. *)
      let arena =
        if Random.State.bool rs then None
        else begin
          let a = Cascades.create_arena () in
          let cat', q' = pick_query rs in
          let env, _ =
            logging_env ~stop_after:max_int
              ~abort_at:(1 + Random.State.int rs 400)
              ~abort:(Env.Gateway_timeout "earlier") ()
          in
          ignore (Cascades.optimize ~arena:a ~env model cat' q');
          Some a
        end
      in
      let env, log = logging_env ~stop_after ~abort_at ~abort () in
      let got = Cascades.optimize ~params ?arena ~env model cat q in
      let env_ref, log_ref = logging_env ~stop_after ~abort_at ~abort () in
      let want = Cascades_reference.optimize ~params ~env:env_ref model cat q in
      if same_result got want && !log = !log_ref then true
      else
        QCheck.Test.fail_reportf
          "query %s (%d rels), min %d max %d honor %b stop_after %d abort_at %d, \
           arena %b: results equal %b, env calls %d vs %d"
          q.Query.qid (Query.n_rels q) params.Cascades.min_tasks
          params.Cascades.max_tasks params.Cascades.honor_stop_early stop_after
          abort_at (arena <> None) (same_result got want) (List.length !log)
          (List.length !log_ref))

(* The credit protocol of {!Env.t}, differentially. The env below acts
   like the governor: its state changes only inside [cpu] and inside an
   allocation that crosses its gate, the one kind of call that blocks.
   Either moves the gate to a random point near the usage, below it at
   times, and may raise the stop flag; a crossing allocation may also
   abort. Run once granting the room below the gate as credit and once
   granting none, a search must act the same: the same result, the same
   [cpu] calls and [should_stop] polls in the same order, and the same
   bytes metered between consecutive [cpu] calls. *)

type gated_call = Cpu_call of int64 * int | Poll_call | End_bytes of int

let gated_env ~seed ~grant =
  let rs = Random.State.make [| seed |] in
  let usage = ref 0 and gate = ref (Random.State.int rs 400_000) in
  let stop = ref false and since_cpu = ref 0 and calls = ref 0 in
  let log = ref [] in
  let move () =
    gate := !usage + Random.State.int rs 500_000 - 100_000;
    if Random.State.int rs 50 = 0 then stop := true
  in
  let env =
    {
      Env.alloc =
        (fun n ->
          incr calls;
          usage := !usage + n;
          since_cpu := !since_cpu + n;
          if !usage > !gate then begin
            move ();
            if Random.State.int rs 80 = 0 then
              raise
                (Env.Aborted
                   (if Random.State.bool rs then Env.Out_of_memory
                    else Env.Gateway_timeout "gate"))
          end;
          if grant then max 0 (!gate - !usage) else 0);
      cpu =
        (fun x ->
          log := Cpu_call (Int64.bits_of_float x, !since_cpu) :: !log;
          since_cpu := 0;
          move ());
      should_stop =
        (fun () ->
          log := Poll_call :: !log;
          !stop);
    }
  in
  (env, fun () -> (List.rev (End_bytes !since_cpu :: !log), !calls))

let prop_credit_matches_per_call =
  QCheck.Test.make ~name:"metering by credit = metering every allocation"
    ~count:80
    QCheck.(quad bool (int_range 2 14) (int_range 0 1_000_000)
              (int_bound 1_000_000_000))
    (fun (star, n, salt, seed) ->
      let cat, q = random_cat_query ~star ~n ~salt in
      let rs = Random.State.make [| seed |] in
      let params =
        {
          Cascades.default_params with
          Cascades.min_tasks = 1 + Random.State.int rs 2_000;
          max_tasks = 1 + Random.State.int rs 15_000;
          honor_stop_early = Random.State.bool rs;
        }
      in
      let run grant =
        let env, log = gated_env ~seed ~grant in
        let r = Cascades.optimize ~params ~env model cat q in
        (r, log ())
      in
      let got, (log, calls) = run true in
      let want, (log_ref, calls_ref) = run false in
      if same_result got want && log = log_ref && calls <= calls_ref then true
      else
        QCheck.Test.fail_reportf
          "query %s (%d rels), min %d max %d honor %b: results equal %b, logs \
           equal %b (%d vs %d entries), alloc calls %d vs %d"
          q.Query.qid (Query.n_rels q) params.Cascades.min_tasks
          params.Cascades.max_tasks params.Cascades.honor_stop_early
          (same_result got want) (log = log_ref) (List.length log)
          (List.length log_ref) calls calls_ref)

(* ------------------------------------------------------------------ *)
(* The replay memo. A search replayed from a recording must be the live
   search as every observer sees it: the same result, plan, cost bits,
   outcome and stats, and the same env calls in the same order, for the
   instance that recorded and for every later one. *)

(* The query with every join selectivity scaled by [f]: the same key
   (graph, index-path bits), another cost and so another budget. *)
let scale_joins q f =
  {
    q with
    Query.preds =
      List.map
        (fun p -> { p with Query.jsel = Float.min 1.0 (p.Query.jsel *. f) })
        q.Query.preds;
  }

(* The query without the filters of its first relation that has an
   index path: the same graph, one index-path bit cleared. *)
let drop_index_path cat q =
  let card = Card.create cat q in
  List.find_opt (Rules.has_index_path card) (List.init (Query.n_rels q) Fun.id)
  |> Option.map (fun i ->
         {
           q with
           Query.filters = List.filter (fun f -> f.Query.frel <> i) q.Query.filters;
         })

type env_log = Logged of env_call list | Gated of (gated_call list * int)

let prop_replay_matches_live =
  QCheck.Test.make ~name:"replayed search = live search" ~count:200
    (QCheck.int_bound 1_000_000_000)
    (fun seed ->
      let rs = Random.State.make [| seed |] in
      let cat, q = pick_query rs in
      (* Mostly honoring [should_stop], so an out-of-memory abort returns
         the seed with the stats of the moment it struck. *)
      let params =
        { (pick_params rs) with Cascades.honor_stop_early = Random.State.int rs 4 > 0 }
      in
      let stop_after, _, _ = pick_stop_abort rs in
      (* Half the cases log every allocation (credit 0), where an abort
         can land on any one of them. *)
      let kind = max 0 (Random.State.int rs 6 - 2) in
      let gate_seed = Random.State.bits rs in
      let credit = if kind = 0 then 0 else max_int in
      let abort =
        if Random.State.int rs 4 = 0 then Env.Gateway_timeout "gate"
        else Env.Out_of_memory
      in
      (* Abort at none of the allocations, at any of them, or at one the
         size of a leaf's alternatives, so that leaves are hit too. *)
      let abort_at =
        let env, log =
          logging_env ~credit ~stop_after ~abort_at:0 ~abort ()
        in
        ignore (Cascades.optimize ~params ~env model cat q);
        let sizes =
          List.filter_map (function Alloc n -> Some n | _ -> None) (List.rev !log)
          |> List.mapi (fun k n -> (k + 1, n))
        in
        let leafy =
          List.filter
            (fun (_, n) -> n = Cascades.phys_bytes || n = 2 * Cascades.phys_bytes)
            sizes
        in
        let pick = function
          | [] -> 0
          | l -> fst (List.nth l (Random.State.int rs (List.length l)))
        in
        match Random.State.int rs 4 with
        | 0 -> 0
        | 1 -> pick sizes
        | _ -> pick leafy
      in
      let run ?replay q =
        let env, log =
          match kind with
          | 0 | 1 ->
              let env, log =
                logging_env ~credit ~stop_after ~abort_at ~abort ()
              in
              (env, fun () -> Logged !log)
          | _ ->
              let env, log = gated_env ~seed:gate_seed ~grant:(kind = 2) in
              (env, fun () -> Gated (log ()))
        in
        let r = Cascades.optimize ~params ?replay ~env model cat q in
        (r, log ())
      in
      let same (a, la) (b, lb) =
        same_result a b && la = lb
        &&
        match (a, b) with
        | Ok x, Ok y -> x.Cascades.stats = y.Cascades.stats
        | _ -> true
      in
      let budget q =
        match Cascades.optimize ~params ~env:Env.null model cat q with
        | Ok r -> r.Cascades.stats.Cascades.budget
        | Error _ -> 0
      in
      (* Pre-seed the memo, in random order, with instances of the same
         key whose budgets are shorter and longer than this one's, and
         with the same graph under other index-path bits. *)
      let target = budget q in
      let scaled =
        List.map (scale_joins q) [ 1e-4; 1e-2; 0.5; 2.0; 1e2; 1e4 ]
      in
      let shorter = List.find_opt (fun v -> budget v < target) scaled in
      let longer = List.find_opt (fun v -> budget v > target) scaled in
      let seeds =
        List.filter_map Fun.id [ shorter; longer; drop_index_path cat q ]
        |> List.filter (fun _ -> Random.State.bool rs)
        |> List.map (fun v -> (Random.State.bits rs, v))
        |> List.sort compare |> List.map snd
      in
      let memo = Cascades.create_replay_memo () in
      List.iter
        (fun v ->
          ignore (Cascades.optimize ~params ~replay:memo ~env:Env.null model cat v))
        seeds;
      let live = run q in
      let first = run ~replay:memo q and later = run ~replay:memo q in
      if same first live && same later live then true
      else
        QCheck.Test.fail_reportf
          "query %s (%d rels), min %d max %d honor %b stop_after %d abort_at \
           %d env %d, %d pre-seeds: first %b, later %b"
          q.Query.qid (Query.n_rels q) params.Cascades.min_tasks
          params.Cascades.max_tasks params.Cascades.honor_stop_early stop_after
          abort_at kind (List.length seeds) (same first live)
          (same later live))

(* Two instances that differ only in one relation's index path differ in
   the stream the search meters (one leaf alternative or two), so they
   must record separately: replayed in turn on one memo, each equals its
   own live search, stats included. A complete search offers its root,
   so it searches live, env calls and all. *)
let test_replay_keys () =
  let cat = Workload.Sales.catalog () in
  let t = List.hd (Workload.Sales.templates ()) in
  let q = Workload.Template.instance (Sim.Rng.create 7) t ~id:1 in
  let q' =
    match drop_index_path cat q with
    | Some q' -> q'
    | None -> Alcotest.fail "no relation of the instance has an index path"
  in
  Alcotest.(check bool) "same join graph" true (q.Query.adj = q'.Query.adj);
  let memo = Cascades.create_replay_memo () in
  List.iter
    (fun (name, q) ->
      let live = Cascades.optimize ~env:Env.null model cat q in
      let replayed = Cascades.optimize ~replay:memo ~env:Env.null model cat q in
      Alcotest.(check bool) (name ^ ": replayed = live") true (live = replayed))
    [ ("q", q); ("q'", q'); ("q again", q); ("q' again", q') ];
  let chain = chain_catalog ~len:5 ~rows:5_000 in
  let complete =
    { Cascades.default_params with Cascades.min_tasks = 100_000; max_tasks = 100_000 }
  in
  let run ?replay () =
    let env, log =
      logging_env ~stop_after:max_int ~abort_at:0 ~abort:Env.Out_of_memory ()
    in
    let r =
      Cascades.optimize ~params:complete ?replay ~env model chain
        (chain_query ~len:5 chain)
    in
    (r, List.rev !log)
  in
  let live = run () in
  (match fst live with
  | Ok r ->
      Alcotest.(check bool) "chain searched to completion" true
        (r.Cascades.outcome = Cascades.Complete)
  | Error _ -> Alcotest.fail "chain aborted");
  for _ = 1 to 2 do
    Alcotest.(check bool) "chain: replayed = live, env calls included" true
      (run ~replay:memo () = live)
  done

(* ------------------------------------------------------------------ *)
(* Pricing at plan-build time. The search logs each split whose
   children have finished and prices the log only when the root was
   offered something, so a search whose greedy seed stands unopposed
   prices nothing. *)

let test_sales_seed_unpriced () =
  let cat = Workload.Sales.catalog () in
  List.iter
    (fun t ->
      let q = Workload.Template.instance (Sim.Rng.create 7) t ~id:1 in
      let seed = Greedy.plan model (Card.create cat q) in
      match Cascades.optimize ~env:Env.null model cat q with
      | Ok r ->
          Alcotest.(check bool) (q.Query.qid ^ ": the seed's plan") true
            (r.Cascades.plan = seed);
          Alcotest.(check int64) (q.Query.qid ^ ": the seed's cost bits")
            (Int64.bits_of_float (Plan.total_cost seed))
            (Int64.bits_of_float r.Cascades.cost);
          Alcotest.(check int) (q.Query.qid ^ ": nothing priced") 0
            r.Cascades.stats.Cascades.costed
      | Error _ -> Alcotest.failf "%s: aborted under Env.null" q.Query.qid)
    (Workload.Sales.templates ())

(* A complete search prices every alternative it metered; so does a
   one-relation query, whose root is a leaf costed against the seed. *)
let test_complete_search_priced () =
  List.iter
    (fun len ->
      let cat = chain_catalog ~len ~rows:5_000 in
      let r = cascades_complete cat (chain_query ~len cat) in
      Alcotest.(check bool)
        (Printf.sprintf "chain %d complete" len)
        true
        (r.Cascades.outcome = Cascades.Complete);
      Alcotest.(check bool)
        (Printf.sprintf "chain %d priced" len)
        true
        (r.Cascades.stats.Cascades.costed > 0);
      Alcotest.(check int)
        (Printf.sprintf "chain %d priced what it metered" len)
        r.Cascades.stats.Cascades.phys r.Cascades.stats.Cascades.costed)
    [ 6; 1 ]

(* The cost-only greedy against the list-building one it replaced. *)
let prop_greedy_matches_reference =
  QCheck.Test.make ~name:"cost-only greedy = list-building greedy" ~count:100
    (QCheck.int_bound 1_000_000_000)
    (fun seed ->
      let rs = Random.State.make [| seed |] in
      let cat, q =
        match Random.State.int rs 4 with
        | 0 ->
            let templates = Array.of_list (Workload.Sales.templates ()) in
            let t = templates.(Random.State.int rs (Array.length templates)) in
            ( Workload.Sales.catalog (),
              Workload.Template.instance
                (Sim.Rng.create (Random.State.bits rs))
                t ~id:1 )
        | 1 ->
            let dims = 1 + Random.State.int rs 12 in
            let cat =
              star_catalog ~dims
                ~fact_rows:(1_000 + Random.State.int rs 1_000_000)
                ~dim_rows:(50 + Random.State.int rs 5_000)
            in
            (cat, star_query ~dims ~filters:(Random.State.int rs (dims + 1)) cat)
        | 2 ->
            let len = 1 + Random.State.int rs 14 in
            let cat = chain_catalog ~len ~rows:(100 + Random.State.int rs 50_000) in
            (cat, chain_query ~len cat)
        | _ -> snowflake_cat_query rs ~n:(1 + Random.State.int rs 14)
      in
      let card = Card.create cat q in
      let got = Greedy.plan model card and want = Greedy_ref.plan model card in
      if
        got = want
        && Int64.equal
             (Int64.bits_of_float (Plan.total_cost got))
             (Int64.bits_of_float (Plan.total_cost want))
      then true
      else
        QCheck.Test.fail_reportf "%s (%d rels): greedy %.17g, reference %.17g"
          q.Query.qid (Query.n_rels q) (Plan.total_cost got)
          (Plan.total_cost want))

(* The pricing path on purpose. No SALES search logs a split of its
   root, so neither the benchmark nor the property above reliably gets
   there. Every case here ends after the root's first logged split and
   before the search completes: a chain or snowflake of 4-10 relations,
   stopped by [should_stop] or by an Out_of_memory allocation drawn past
   that point, half of them on an arena that a priced search of another
   query left behind. The result, cost bits, outcome, stats and env
   calls must be the plan-building reference's, and the pricing must
   cover exactly the alternatives the reference built. *)
let prop_priced_matches_reference =
  let params =
    {
      Cascades.default_params with
      Cascades.min_tasks = 2_000_000;
      max_tasks = 2_000_000;
      honor_stop_early = true;
    }
  in
  let pick rs =
    let n = 4 + Random.State.int rs 7 in
    if Random.State.bool rs then begin
      let cat = chain_catalog ~len:n ~rows:(100 + Random.State.int rs 50_000) in
      (cat, chain_query ~len:n cat)
    end
    else snowflake_cat_query rs ~n
  in
  QCheck.Test.make ~name:"priced at build time = plan-building reference"
    ~count:60 (QCheck.int_bound 1_000_000_000)
    (fun seed ->
      let rs = Random.State.make [| seed |] in
      let cat, q = pick rs in
      let run ?arena ~stop_after ~abort_at () =
        let env, log =
          logging_env ~stop_after ~abort_at ~abort:Env.Out_of_memory ()
        in
        let r = Cascades.optimize ~params ?arena ~env model cat q in
        (r, List.rev !log)
      in
      let stats = function
        | Ok r, _ -> r.Cascades.stats
        | Error _, _ -> QCheck.Test.fail_reportf "%s: aborted" q.Query.qid
      in
      let allocs log =
        List.length (List.filter (function Alloc _ -> true | _ -> false) log)
      in
      let complete = run ~stop_after:max_int ~abort_at:0 () in
      let total = (stats complete).Cascades.tasks in
      (* The fewest tasks after which the root has a logged split. *)
      let rec first_priced lo hi =
        if lo >= hi then lo
        else
          let mid = (lo + hi) / 2 in
          if (stats (run ~stop_after:mid ~abort_at:0 ())).Cascades.costed > 0
          then first_priced lo mid
          else first_priced (mid + 1) hi
      in
      let k0 = first_priced 0 total in
      let stop_after, abort_at =
        if Random.State.bool rs then
          (k0 + Random.State.int rs (total - k0), 0)
        else begin
          let a0 = allocs (snd (run ~stop_after:k0 ~abort_at:0 ())) in
          let a1 = allocs (snd complete) in
          (max_int, a0 + 1 + Random.State.int rs (a1 - a0))
        end
      in
      let arena =
        if Random.State.bool rs then None
        else begin
          let a = Cascades.create_arena () in
          let cat', q' = pick rs in
          ignore
            (Cascades.optimize ~arena:a
               ~params:{ params with Cascades.honor_stop_early = false }
               ~env:Env.null model cat' q');
          Some a
        end
      in
      let got, log = run ?arena ~stop_after ~abort_at () in
      let env_ref, log_ref =
        logging_env ~stop_after ~abort_at ~abort:Env.Out_of_memory ()
      in
      let want = Cascades_reference.optimize ~params ~env:env_ref model cat q in
      let priced_as_built =
        match (got, want) with
        | Ok g, Ok w ->
            g.Cascades.outcome <> Cascades.Complete
            && g.Cascades.stats.Cascades.costed > 0
            && g.Cascades.stats.Cascades.costed = w.Cascades.stats.Cascades.phys
        | _ -> false
      in
      if same_result got want && log = List.rev !log_ref && priced_as_built then
        true
      else
        QCheck.Test.fail_reportf
          "query %s (%d rels), root priced after %d of %d tasks, stop_after \
           %d abort_at %d, arena %b: results equal %b, env calls equal %b, \
           priced as built %b"
          q.Query.qid (Query.n_rels q) k0 total stop_after abort_at
          (arena <> None) (same_result got want) (log = List.rev !log_ref)
          priced_as_built)

(* A replay that runs past the root's first offer. The memo is
   pre-seeded by an instance of the same key whose budget ends before
   that task, so the replay starts from its tape, and an extension finds
   the offer while it runs; the replay then goes live there and stops
   after it, by [should_stop] or by an Out_of_memory allocation, and
   must price the memo the live search holds at that point. Result, cost
   bits, outcome, stats (priced alternatives included) and env calls
   must be the live search's, and so must those of a later compile,
   which searches live. *)
let prop_replay_rebuilds_priced_memo =
  (* Budgets follow cost, so instances of one key differ in budget. *)
  let params =
    {
      Cascades.default_params with
      Cascades.min_tasks = 1;
      max_tasks = 2_000_000;
      honor_stop_early = true;
    }
  in
  let unbounded = { params with Cascades.min_tasks = 2_000_000 } in
  QCheck.Test.make ~name:"replay past the root's offer = live search"
    ~count:60 (QCheck.int_bound 1_000_000_000)
    (fun seed ->
      let rs = Random.State.make [| seed |] in
      let run ?(params = params) ?replay ~stop_after ~abort_at cat q =
        let env, log =
          logging_env ~stop_after ~abort_at ~abort:Env.Out_of_memory ()
        in
        let r = Cascades.optimize ~params ?replay ~env model cat q in
        (r, List.rev !log)
      in
      let stats (r, _) =
        match r with
        | Ok r -> r.Cascades.stats
        | Error _ -> QCheck.Test.fail_report "aborted"
      in
      (* A chain or snowflake, the task [k0] after which its search has
         offered the root, its complete task count, and two instances of
         its key: a pre-seed whose budget ends before [k0] and a target
         whose budget does not. *)
      let rec pick () =
        let n = 4 + Random.State.int rs 7 in
        let cat, q =
          if Random.State.bool rs then
            let cat = chain_catalog ~len:n ~rows:(100 + Random.State.int rs 50_000) in
            (cat, chain_query ~len:n cat)
          else snowflake_cat_query rs ~n
        in
        let probe stop_after =
          stats (run ~params:unbounded ~stop_after ~abort_at:0 cat q)
        in
        let total = (probe max_int).Cascades.tasks in
        let rec first_priced lo hi =
          if lo >= hi then lo
          else
            let mid = (lo + hi) / 2 in
            if (probe mid).Cascades.costed > 0 then first_priced lo mid
            else first_priced (mid + 1) hi
        in
        let k0 = first_priced 0 total in
        let budgeted =
          List.map
            (fun f ->
              let v = scale_joins q f in
              (stats (run ~stop_after:max_int ~abort_at:0 cat v)).Cascades.budget, v)
            [ 1e-6; 1e-4; 1e-2; 0.1; 1.0; 10.; 1e2; 1e4; 1e6 ]
        in
        let one = function
          | [] -> None
          | l -> Some (snd (List.nth l (Random.State.int rs (List.length l))))
        in
        match
          ( one (List.filter (fun (b, _) -> b < k0) budgeted),
            one (List.filter (fun (b, _) -> b > k0) budgeted) )
        with
        | Some pre, Some target -> (cat, pre, target, k0, total)
        | _ -> pick ()
      in
      let cat, pre, q, k0, total = pick () in
      let allocs log =
        List.length (List.filter (function Alloc _ -> true | _ -> false) log)
      in
      let stop_after, abort_at =
        if Random.State.bool rs then (k0 + Random.State.int rs (total - k0 + 1), 0)
        else begin
          let probe stop_after =
            snd (run ~params:unbounded ~stop_after ~abort_at:0 cat q)
          in
          let a0 = allocs (probe k0) and a1 = allocs (probe max_int) in
          (max_int, a0 + 1 + Random.State.int rs (a1 - a0))
        end
      in
      let live = run ~stop_after ~abort_at cat q in
      let replay = Cascades.create_replay_memo () in
      ignore (Cascades.optimize ~params ~replay ~env:Env.null model cat pre);
      let got = run ~replay ~stop_after ~abort_at cat q in
      let later = run ~replay ~stop_after ~abort_at cat q in
      let same (r, log) (r', log') =
        same_result r r' && stats (r, log) = stats (r', log') && log = log'
      in
      if (stats live).Cascades.costed = 0 then
        QCheck.Test.fail_reportf "%s: live search not priced" q.Query.qid
      else if same got live && same later live then true
      else
        QCheck.Test.fail_reportf
          "query %s (%d rels), root offered after %d of %d tasks, stop_after \
           %d abort_at %d: results equal %b, stats equal %b, env calls equal \
           %b, later equal %b"
          q.Query.qid (Query.n_rels q) k0 total stop_after abort_at
          (same_result (fst got) (fst live))
          (stats got = stats live) (snd got = snd live) (same later live))

(* Join costing allocates nothing per split: 10 000 evaluations move
   the minor-heap counter no more than an empty window does. *)
let test_join_costing_allocates_nothing () =
  let tb = Rules.make_tables 3 in
  List.iter
    (fun (i, rows, io, cpu) ->
      tb.Rules.t_rows.(i) <- rows;
      tb.Rules.t_io.(i) <- io;
      tb.Rules.t_cpu.(i) <- cpu;
      Rules.set_entry_terms model tb i ~width:120)
    [ (0, 4e6, 0., 0.); (1, 3e7, 9e4, 3e5); (2, 2e6, 2e3, 2e4) ];
  let best = Array.make 3 0.0 in
  let joins () =
    for _ = 1 to 10_000 do
      ignore (Rules.cheapest_join_into model tb ~s:0 ~l:1 ~r:2 ~best)
    done
  in
  Alcotest.(check (float 0.)) "join costing"
    (Test_bufpool.minor_words_during ignore)
    (Test_bufpool.minor_words_during joins)

let suite =
  [
    ("relset basics", `Quick, test_relset_basics);
    ("relset subset enumeration", `Quick, test_relset_subset_enumeration);
    ("relset ctz", `Quick, test_relset_ctz);
    ("relset iter_of_cardinality", `Quick, test_relset_iter_of_cardinality);
    ("dp pinned on sales templates", `Slow, test_dp_pinned_sales);
    ("card star", `Quick, test_card_star);
    ("greedy plan well formed", `Quick, test_plan_well_formed_greedy);
    ("index scan cheaper when selective", `Quick, test_plan_index_scan_cheaper_when_selective);
    ("hash join memory scales with build", `Quick, test_plan_hash_join_mem_scales);
    ("cascades = dp on stars", `Slow, test_cascades_complete_matches_dp_star);
    ("cascades = dp on chains", `Slow, test_cascades_complete_matches_dp_chain);
    ("dp beats or matches greedy", `Quick, test_dp_beats_or_matches_greedy);
    ("dp rejects large queries", `Quick, test_dp_rejects_large);
    ("cascades budget exhaustion returns plan", `Quick, test_cascades_budget_exhaustion_returns_plan);
    ("cascades more effort never worse", `Slow, test_cascades_more_effort_never_worse);
    ("cascades meters memory and cpu", `Quick, test_cascades_meters_memory_and_cpu);
    ("cascades memory grows with query size", `Slow, test_cascades_memory_grows_with_query_size);
    ("cascades stop early", `Quick, test_cascades_stop_early);
    ("cascades abort propagates", `Quick, test_cascades_abort_propagates);
    ("cascades dynamic budget", `Quick, test_cascades_dynamic_budget);
    ("join costing allocates nothing", `Quick, test_join_costing_allocates_nothing);
    ("sales seeds stand unpriced", `Quick, test_sales_seed_unpriced);
    ("complete search prices what it metered", `Quick, test_complete_search_priced);
    ("replay keys hold the index-path bits", `Quick, test_replay_keys);
    ("plans validated on star", `Quick, test_plans_validated_star);
    ("plans validated on chain", `Quick, test_plans_validated_chain);
    ("query to_sql", `Quick, test_query_to_sql);
    ("histogram basics", `Quick, test_histogram_basics);
    ("histogram uniform accuracy", `Quick, test_histogram_uniform_accuracy);
    ("histogram beats uniform on skew", `Quick, test_histogram_beats_uniform_on_skew);
    QCheck_alcotest.to_alcotest prop_histogram_le_monotone;
    QCheck_alcotest.to_alcotest prop_relset_subsets_complete;
    QCheck_alcotest.to_alcotest prop_iter_of_cardinality_matches_bruteforce;
    QCheck_alcotest.to_alcotest prop_connected_subsets_match_bruteforce;
    QCheck_alcotest.to_alcotest prop_best_plan_so_far_monotone_in_cap;
    QCheck_alcotest.to_alcotest prop_random_star_plans_validate;
    QCheck_alcotest.to_alcotest prop_cascades_complete_matches_dp;
    QCheck_alcotest.to_alcotest prop_arena_reuse_transparent;
    QCheck_alcotest.to_alcotest prop_mask_graph_matches_lists;
    QCheck_alcotest.to_alcotest prop_cascades_matches_reference;
    QCheck_alcotest.to_alcotest prop_credit_matches_per_call;
    QCheck_alcotest.to_alcotest prop_replay_matches_live;
    QCheck_alcotest.to_alcotest prop_greedy_matches_reference;
    QCheck_alcotest.to_alcotest prop_priced_matches_reference;
    QCheck_alcotest.to_alcotest prop_replay_rebuilds_priced_memo;
  ]
