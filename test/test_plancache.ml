(* Tests for the plan cache: lookup semantics, cost-aware eviction, and
   memory accounting through the manager. *)

open Plancache

let mib = Dbmem.Units.mib

(* A tiny catalog/query factory so we can mint plans of known size. *)
let plan_of_joins n =
  let cat = Optimizer.Catalog.create () in
  for i = 0 to n do
    let name = Printf.sprintf "t%d" i in
    Optimizer.Catalog.add_table cat
      {
        Optimizer.Catalog.tbl_name = name;
        rows = 1000.;
        columns =
          [
            Optimizer.Catalog.int_column (name ^ "_key") ~distinct:1000.;
            Optimizer.Catalog.int_column
              (Printf.sprintf "t%d_key" (i + 1))
              ~distinct:1000.;
          ];
        indexes = [];
      }
  done;
  let q =
    Optimizer.Query.make ~id:(Printf.sprintf "q%d" n)
      ~rels:(List.init (n + 1) (fun i -> (Printf.sprintf "t%d" i, Printf.sprintf "t%d" i)))
      ~preds:
        (List.init n (fun i ->
             {
               Optimizer.Query.jleft = i;
               jlcol = Printf.sprintf "t%d_key" (i + 1);
               jright = i + 1;
               jrcol = Printf.sprintf "t%d_key" (i + 1);
               jsel = 0.001;
             }))
      ~filters:[] ~agg:None
  in
  let card = Optimizer.Card.create cat q in
  Optimizer.Greedy.plan Optimizer.Cost.default card

let make_cache ?(total = mib 64) () =
  let manager = Dbmem.Manager.create ~total () in
  let clerk = Dbmem.Manager.create_clerk manager "plancache" in
  (manager, Cache.create ~clerk)

let test_insert_lookup () =
  let _, cache = make_cache () in
  let plan = plan_of_joins 2 in
  Cache.insert cache ~key:"q1" ~plan ~compile_cost:5.0;
  (match Cache.lookup cache "q1" with
  | Some p ->
      Alcotest.(check int) "same plan size"
        (Optimizer.Plan.size_bytes plan)
        (Optimizer.Plan.size_bytes p)
  | None -> Alcotest.fail "expected hit");
  Alcotest.(check bool) "miss on unknown" true (Cache.lookup cache "nope" = None);
  Alcotest.(check int) "hits" 1 (Cache.hits cache);
  Alcotest.(check int) "misses" 1 (Cache.misses cache)

let test_memory_accounting () =
  let manager, cache = make_cache () in
  let plan = plan_of_joins 3 in
  Cache.insert cache ~key:"a" ~plan ~compile_cost:1.0;
  Alcotest.(check int) "clerk charged" (Optimizer.Plan.size_bytes plan)
    (Cache.bytes cache);
  Alcotest.(check int) "manager agrees" (Cache.bytes cache) (Dbmem.Manager.used manager);
  ignore (Cache.shrink cache max_int);
  Alcotest.(check int) "all freed" 0 (Dbmem.Manager.used manager);
  Alcotest.(check int) "no entries" 0 (Cache.entries cache)

let test_replace_same_key () =
  let _, cache = make_cache () in
  Cache.insert cache ~key:"k" ~plan:(plan_of_joins 2) ~compile_cost:1.0;
  let big = plan_of_joins 6 in
  Cache.insert cache ~key:"k" ~plan:big ~compile_cost:1.0;
  Alcotest.(check int) "one entry" 1 (Cache.entries cache);
  Alcotest.(check int) "size of the new plan" (Optimizer.Plan.size_bytes big)
    (Cache.bytes cache)

let test_eviction_prefers_low_value () =
  let _, cache = make_cache () in
  (* Same size; different compile costs. Cheap-to-recompile goes first. *)
  Cache.insert cache ~key:"cheap" ~plan:(plan_of_joins 3) ~compile_cost:1.0;
  Cache.insert cache ~key:"dear" ~plan:(plan_of_joins 3) ~compile_cost:100.0;
  ignore (Cache.shrink cache 1);
  Alcotest.(check bool) "cheap evicted" true (Cache.lookup cache "cheap" = None);
  Alcotest.(check bool) "dear kept" true (Cache.lookup cache "dear" <> None)

let test_eviction_respects_reuse () =
  let _, cache = make_cache () in
  Cache.insert cache ~key:"popular" ~plan:(plan_of_joins 3) ~compile_cost:1.0;
  Cache.insert cache ~key:"oneshot" ~plan:(plan_of_joins 3) ~compile_cost:1.0;
  (* Ten extra uses multiply the value of "popular". *)
  for _ = 1 to 10 do
    ignore (Cache.lookup cache "popular")
  done;
  ignore (Cache.shrink cache 1);
  Alcotest.(check bool) "oneshot evicted" true (Cache.lookup cache "oneshot" = None);
  Alcotest.(check bool) "popular kept" true (Cache.lookup cache "popular" <> None)

let test_self_eviction_on_full_memory () =
  (* Memory only fits a handful of plans: inserting more evicts old
     entries rather than failing. *)
  let plan = plan_of_joins 4 in
  let size = Optimizer.Plan.size_bytes plan in
  let manager, cache = make_cache ~total:(4 * size) () in
  for i = 1 to 10 do
    Cache.insert cache ~key:(Printf.sprintf "q%d" i) ~plan ~compile_cost:1.0
  done;
  Alcotest.(check bool) "bounded entries" true (Cache.entries cache <= 4);
  Alcotest.(check bool) "evictions counted" true (Cache.evictions cache >= 6);
  Alcotest.(check bool) "within memory" true (Dbmem.Manager.used manager <= 4 * size);
  (* Newest entry is present. *)
  Alcotest.(check bool) "latest kept" true (Cache.lookup cache "q10" <> None)

let test_shrink_returns_freed_bytes () =
  let _, cache = make_cache () in
  let plan = plan_of_joins 3 in
  let size = Optimizer.Plan.size_bytes plan in
  Cache.insert cache ~key:"a" ~plan ~compile_cost:1.0;
  Cache.insert cache ~key:"b" ~plan ~compile_cost:1.0;
  let freed = Cache.shrink cache (size + 1) in
  Alcotest.(check int) "freed two entries worth" (2 * size) freed;
  Alcotest.(check int) "empty now" 0 (Cache.entries cache);
  Alcotest.(check int) "shrink of empty" 0 (Cache.shrink cache 1)

let test_hit_rate () =
  let _, cache = make_cache () in
  Cache.insert cache ~key:"x" ~plan:(plan_of_joins 2) ~compile_cost:1.0;
  ignore (Cache.lookup cache "x");
  ignore (Cache.lookup cache "y");
  ignore (Cache.lookup cache "z");
  Alcotest.(check (float 1e-9)) "1 of 3" (1. /. 3.) (Cache.hit_rate cache)

let test_hit_rate_fresh_cache () =
  (* No lookups yet: the rate is a clean 0., never 0/0 = nan (reports
     format this number — nan would leak into goldens and dashboards). *)
  let _, cache = make_cache () in
  Alcotest.(check (float 1e-9)) "fresh" 0. (Cache.hit_rate cache)

(* Invariant: cache bytes always equal the sum of resident plan sizes. *)
let prop_bytes_consistent =
  QCheck.Test.make ~name:"cache bytes track entries under random ops" ~count:50
    QCheck.(list (pair (int_range 0 9) bool))
    (fun ops ->
      let _, cache = make_cache ~total:(mib 2) () in
      let plan = plan_of_joins 2 in
      List.iter
        (fun (k, insert) ->
          let key = Printf.sprintf "k%d" k in
          if insert then Cache.insert cache ~key ~plan ~compile_cost:1.0
          else ignore (Cache.lookup cache key))
        ops;
      Cache.bytes cache = Cache.entries cache * Optimizer.Plan.size_bytes plan)

let suite =
  [
    ("insert/lookup", `Quick, test_insert_lookup);
    ("memory accounting", `Quick, test_memory_accounting);
    ("replace same key", `Quick, test_replace_same_key);
    ("eviction prefers low value", `Quick, test_eviction_prefers_low_value);
    ("eviction respects reuse", `Quick, test_eviction_respects_reuse);
    ("self-eviction on full memory", `Quick, test_self_eviction_on_full_memory);
    ("shrink returns freed bytes", `Quick, test_shrink_returns_freed_bytes);
    ("hit rate", `Quick, test_hit_rate);
    ("hit rate fresh cache", `Quick, test_hit_rate_fresh_cache);
    QCheck_alcotest.to_alcotest prop_bytes_consistent;
  ]
