(* Tests for the SALES / TPC-H workloads, the uniquifier, and the client
   model. *)

let gib = Dbmem.Units.gib

(* ------------------------------------------------------------------ *)
(* SALES schema *)

let test_sales_catalog_size () =
  let cat = Workload.Sales.catalog () in
  let bytes = Optimizer.Catalog.data_bytes cat in
  (* Paper: 524 GB data mart. The synthetic schema should be within ~15%. *)
  Alcotest.(check bool)
    (Printf.sprintf "size %s close to 524 GB" (Dbmem.Units.bytes_to_string bytes))
    true
    (bytes > 440 * gib 1 / 1 && bytes < 600 * gib 1 / 1)

let test_sales_fact_rows () =
  let cat = Workload.Sales.catalog () in
  let fact = Optimizer.Catalog.find_table cat Workload.Sales.fact_table in
  (* Paper: "over 400 million rows". *)
  Alcotest.(check (float 1.)) "400M rows" 400_000_000. fact.Optimizer.Catalog.rows

let test_sales_dimension_count () =
  Alcotest.(check int) "19 dimensions" 19 (List.length Workload.Sales.dimensions);
  let cat = Workload.Sales.catalog () in
  List.iter
    (fun d ->
      match Optimizer.Catalog.find_table_opt cat d with
      | Some _ -> ()
      | None -> Alcotest.failf "missing dimension %s" d)
    Workload.Sales.dimensions

let test_sales_ten_templates () =
  Alcotest.(check int) "ten templates" 10 (List.length (Workload.Sales.templates ()))

let test_sales_join_band () =
  (* Paper: the average query contains between 15 and 20 joins. *)
  let rng = Sim.Rng.create 1 in
  let id = ref 0 in
  List.iter
    (fun t ->
      for _ = 1 to 5 do
        incr id;
        let q = Workload.Template.instance rng t ~id:!id in
        let joins = Optimizer.Query.joins q in
        Alcotest.(check bool)
          (Printf.sprintf "%s has %d joins" t.Workload.Template.tname joins)
          true
          (joins >= 15 && joins <= 20)
      done)
    (Workload.Sales.templates ())

let test_sales_queries_valid_and_aggregated () =
  let rng = Sim.Rng.create 2 in
  let cat = Workload.Sales.catalog () in
  List.iteri
    (fun i t ->
      let q = Workload.Template.instance rng t ~id:i in
      (* Query.make already validated structure; check semantics. *)
      Alcotest.(check bool) "has aggregation" true (q.Optimizer.Query.agg <> None);
      Alcotest.(check bool) "has a date filter" true
        (List.exists
           (fun f -> f.Optimizer.Query.fcol = "date_dim_key")
           q.Optimizer.Query.filters);
      (* Every referenced table exists in the catalog. *)
      Array.iter
        (fun r ->
          Alcotest.(check bool) "table exists" true
            (Optimizer.Catalog.find_table_opt cat r.Optimizer.Query.rtable <> None))
        q.Optimizer.Query.rels)
    (Workload.Sales.templates ())

let test_uniquifier_defeats_caching () =
  (* Two instantiations of the same template have different fingerprints
     (the paper's plan-cache-defeating trick). *)
  let rng = Sim.Rng.create 3 in
  let t = List.hd (Workload.Sales.templates ()) in
  let q1 = Workload.Template.instance rng t ~id:1 in
  let q2 = Workload.Template.instance rng t ~id:2 in
  Alcotest.(check bool) "distinct fingerprints" true
    (q1.Optimizer.Query.qid <> q2.Optimizer.Query.qid);
  (* And different literals: the date windows should differ. *)
  let date_value q =
    (List.find (fun f -> f.Optimizer.Query.fcol = "date_dim_key") q.Optimizer.Query.filters)
      .Optimizer.Query.fvalue
  in
  Alcotest.(check bool) "different literals" true (date_value q1 <> date_value q2)

let test_diagnostic_template_is_tiny_and_stable () =
  let rng = Sim.Rng.create 4 in
  let t = Workload.Sales.diagnostic_template () in
  let q1 = Workload.Template.instance rng t ~id:1 in
  let q2 = Workload.Template.instance rng t ~id:2 in
  Alcotest.(check string) "stable fingerprint (cacheable)" q1.Optimizer.Query.qid
    q2.Optimizer.Query.qid;
  Alcotest.(check int) "single relation" 1 (Optimizer.Query.n_rels q1);
  (* It must stay under the first gateway threshold when compiled. *)
  let cat = Workload.Sales.catalog () in
  match
    Optimizer.Cascades.optimize ~env:Optimizer.Env.null Optimizer.Cost.default
      cat q1
  with
  | Ok r ->
      Alcotest.(check bool) "compile memory below first threshold" true
        (r.Optimizer.Cascades.stats.Optimizer.Cascades.allocated_bytes
        < Dbmem.Units.mib 2)
  | Error _ -> Alcotest.fail "diagnostic compile failed"

let test_sales_compile_memory_band () =
  (* SALES compilations are the paper's heavy hitters: tens to hundreds of
     MiB under the calibrated search parameters. *)
  let rng = Sim.Rng.create 5 in
  let cat = Workload.Sales.catalog () in
  List.iteri
    (fun i t ->
      let q = Workload.Template.instance rng t ~id:i in
      match
        Optimizer.Cascades.optimize ~env:Optimizer.Env.null Optimizer.Cost.default
          cat q
      with
      | Ok r ->
          let b = r.Optimizer.Cascades.stats.Optimizer.Cascades.allocated_bytes in
          Alcotest.(check bool)
            (Printf.sprintf "%s allocates %s" t.Workload.Template.tname
               (Dbmem.Units.bytes_to_string b))
            true
            (b > Dbmem.Units.mib 50 && b < Dbmem.Units.gib 2)
      | Error _ -> Alcotest.fail "compile failed")
    (Workload.Sales.templates ())

(* ------------------------------------------------------------------ *)
(* TPC-H *)

let test_tpch_join_band () =
  (* Paper: TPC-H queries contain between 0 and 8 joins. *)
  let rng = Sim.Rng.create 6 in
  List.iteri
    (fun i t ->
      let q = Workload.Template.instance rng t ~id:i in
      let joins = Optimizer.Query.joins q in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d joins" t.Workload.Template.tname joins)
        true
        (joins >= 0 && joins <= 8))
    (Workload.Tpch.templates ())

let test_tpch_instantiates_all () =
  let rng = Sim.Rng.create 7 in
  let cat = Workload.Tpch.catalog () in
  List.iteri
    (fun i t ->
      let q = Workload.Template.instance rng t ~id:i in
      Array.iter
        (fun r ->
          Alcotest.(check bool) "table exists" true
            (Optimizer.Catalog.find_table_opt cat r.Optimizer.Query.rtable <> None))
        q.Optimizer.Query.rels)
    (Workload.Tpch.templates ())

let test_tpch_self_join_aliases () =
  (* q8 uses nation twice under different aliases. *)
  let rng = Sim.Rng.create 8 in
  let q8 =
    List.find
      (fun t -> t.Workload.Template.tname = "q8_market_share")
      (Workload.Tpch.templates ())
  in
  let q = Workload.Template.instance rng q8 ~id:1 in
  let nations =
    Array.to_list q.Optimizer.Query.rels
    |> List.filter (fun r -> r.Optimizer.Query.rtable = "nation")
  in
  Alcotest.(check int) "two nation aliases" 2 (List.length nations)

let test_tpch_compiles_small () =
  let rng = Sim.Rng.create 9 in
  let cat = Workload.Tpch.catalog () in
  List.iteri
    (fun i t ->
      let q = Workload.Template.instance rng t ~id:i in
      match
        Optimizer.Cascades.optimize ~env:Optimizer.Env.null Optimizer.Cost.default
          cat q
      with
      | Ok r ->
          Alcotest.(check bool) "complete search" true
            (r.Optimizer.Cascades.outcome = Optimizer.Cascades.Complete);
          Alcotest.(check bool) "small memory" true
            (r.Optimizer.Cascades.stats.Optimizer.Cascades.allocated_bytes
            < Dbmem.Units.mib 32)
      | Error _ -> Alcotest.fail "tpch compile failed")
    (Workload.Tpch.templates ())

(* TPC-H plans are also row-level correct. *)
let test_tpch_plans_validate () =
  let rng = Sim.Rng.create 10 in
  let cat = Workload.Tpch.catalog () in
  let inst = Oracle.Bridge.materialize (Sim.Rng.create 11) cat ~scale:1e-5 ~cap:40 () in
  List.iteri
    (fun i t ->
      let q = Workload.Template.instance rng t ~id:i in
      let card = Optimizer.Card.create cat q in
      let plan = Optimizer.Greedy.plan Optimizer.Cost.default card in
      match Oracle.Bridge.validate inst q plan with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: %s" t.Workload.Template.tname e)
    (Workload.Tpch.templates ())

(* ------------------------------------------------------------------ *)
(* Snowflake *)

let test_snowflake_join_band () =
  let rng = Sim.Rng.create 20 in
  let id = ref 0 in
  List.iter
    (fun t ->
      for _ = 1 to 4 do
        incr id;
        let q = Workload.Template.instance rng t ~id:!id in
        let joins = Optimizer.Query.joins q in
        Alcotest.(check bool)
          (Printf.sprintf "%s has %d joins" t.Workload.Template.tname joins)
          true
          (joins >= 14 && joins <= 20)
      done)
    (Workload.Snowflake.templates ())

let test_snowflake_has_chain_joins () =
  (* At least one predicate must join two non-fact relations. *)
  let rng = Sim.Rng.create 21 in
  let t = List.hd (Workload.Snowflake.templates ()) in
  let q = Workload.Template.instance rng t ~id:1 in
  Alcotest.(check bool) "dimension-to-outrigger join present" true
    (List.exists
       (fun p -> p.Optimizer.Query.jleft <> 0 && p.Optimizer.Query.jright <> 0)
       q.Optimizer.Query.preds)

let test_snowflake_plans_validate () =
  let rng = Sim.Rng.create 22 in
  let cat = Workload.Snowflake.catalog () in
  let inst =
    Oracle.Bridge.materialize (Sim.Rng.create 23) cat ~scale:1e-5 ~cap:40 ()
  in
  List.iteri
    (fun i t ->
      if i < 4 then begin
        let q = Workload.Template.instance rng t ~id:i in
        let card = Optimizer.Card.create cat q in
        let plan = Optimizer.Greedy.plan Optimizer.Cost.default card in
        match Oracle.Bridge.validate inst q plan with
        | Ok () -> ()
        | Error e -> Alcotest.failf "%s: %s" t.Workload.Template.tname e
      end)
    (Workload.Snowflake.templates ())

(* ------------------------------------------------------------------ *)
(* Template picking and clients *)

let test_template_weighted_pick () =
  let rng = Sim.Rng.create 12 in
  let heavy =
    { Workload.Template.tname = "heavy"; weight = 9.0; instantiate = (fun _ _ -> assert false) }
  in
  let light =
    { Workload.Template.tname = "light"; weight = 1.0; instantiate = (fun _ _ -> assert false) }
  in
  let heavy_count = ref 0 in
  for _ = 1 to 10_000 do
    let t = Workload.Template.pick rng [ heavy; light ] in
    if t.Workload.Template.tname = "heavy" then incr heavy_count
  done;
  let frac = float_of_int !heavy_count /. 10_000. in
  Alcotest.(check bool) "ninety percent heavy" true (Float.abs (frac -. 0.9) < 0.02)

let scripted_client ~responses =
  (* Drive a client against a scripted submit function; returns stats. *)
  let eng = Sim.Engine.create () in
  let responses = ref responses in
  let submit _ =
    match !responses with
    | [] -> Ok ()
    | r :: rest ->
        responses := rest;
        r
  in
  let stats = Workload.Client.make_stats () in
  let ids = ref 0 in
  let template =
    {
      Workload.Template.tname = "noop";
      weight = 1.0;
      instantiate =
        (fun _ id ->
          Optimizer.Query.make ~id:(Printf.sprintf "n%d" id)
            ~rels:[ ("t", "t") ] ~preds:[] ~filters:[] ~agg:None);
    }
  in
  Workload.Client.spawn eng (Sim.Rng.create 1) ~name:"c" ~templates:[ template ]
    ~submit
    ~config:{ Workload.Client.think_mean = 1.0; retry_delay = 1.0; max_attempts = 3 }
    ~stats ~ids ~until:30.;
  Sim.Engine.run eng ~until:30.;
  stats

let test_client_success_path () =
  let stats = scripted_client ~responses:[] in
  Alcotest.(check bool) "submitted several" true (stats.Workload.Client.submitted > 3);
  Alcotest.(check int) "all succeeded" stats.Workload.Client.submitted
    stats.Workload.Client.succeeded;
  Alcotest.(check int) "no retries" stats.Workload.Client.submitted
    stats.Workload.Client.attempts

let test_client_retries_then_succeeds () =
  let stats = scripted_client ~responses:[ Error "oom"; Error "oom" ] in
  (* First query: two failures then success on the third attempt. *)
  Alcotest.(check int) "extra attempts" (stats.Workload.Client.submitted + 2)
    stats.Workload.Client.attempts;
  Alcotest.(check int) "nothing abandoned" 0 stats.Workload.Client.abandoned

let test_client_abandons_after_max_attempts () =
  let stats =
    scripted_client ~responses:[ Error "oom"; Error "oom"; Error "oom" ]
  in
  Alcotest.(check int) "one abandoned" 1 stats.Workload.Client.abandoned;
  Alcotest.(check int) "rest succeeded"
    (stats.Workload.Client.submitted - 1)
    stats.Workload.Client.succeeded

(* A keyed fleet: client i's randomness depends on (seed, its name)
   only, so the first clients draw the same templates whether they have
   one neighbour or four, and whatever else drew from the engine's RNG
   first. Each client records the templates it drew. *)
let keyed_fleet ?(engine_draws = 0) ~clients () =
  let eng = Sim.Engine.create ~seed:3 () in
  for _ = 1 to engine_draws do
    ignore (Sim.Rng.int (Sim.Engine.rng eng) 10)
  done;
  let templates =
    List.init 5 (fun k ->
        let tname = Printf.sprintf "t%d" k in
        {
          Workload.Template.tname;
          weight = 1.0;
          instantiate =
            (fun _ id ->
              Optimizer.Query.make ~id:(Printf.sprintf "%s#%d" tname id)
                ~rels:[ ("t", "t") ] ~preds:[] ~filters:[] ~agg:None);
        })
  in
  let drawn = Array.make (clients + 1) [] in
  let series = Sim.Series.create () in
  let submit i =
    Workload.Client.counting eng series (fun q ->
        drawn.(i) <- Server.Dbms.template_of_qid q.Optimizer.Query.qid :: drawn.(i);
        Ok ())
  in
  let stats = Workload.Client.make_stats () in
  Workload.Client.spawn_fleet eng ~seed:11 ~label:"client" ~clients ~templates
    ~submit ~config:{ Workload.Client.default_config with think_mean = 2.0 }
    ~stats ~ids:(ref 0) ~until:100.;
  Sim.Engine.run eng ~until:100.;
  (Array.map List.rev drawn, series, stats)

let test_fleet_keyed_by_name () =
  let two, _, _ = keyed_fleet ~clients:2 ()
  and five, _, _ = keyed_fleet ~engine_draws:7 ~clients:5 () in
  for i = 1 to 2 do
    Alcotest.(check bool)
      (Printf.sprintf "client-%d drew templates" i)
      true
      (List.length two.(i) > 10);
    Alcotest.(check (list string))
      (Printf.sprintf "client-%d same templates with 1 or 4 neighbours" i)
      two.(i) five.(i)
  done

let test_completion_window () =
  Alcotest.(check (float 0.)) "mean over no slices" 0.
    (Workload.Client.slice_mean [||]);
  let _, series, stats = keyed_fleet ~clients:3 () in
  let w = Workload.Client.window series ~start:0. ~stop:100. ~slice:25. in
  Alcotest.(check int) "four slices" 4 (Array.length w.slices);
  Alcotest.(check int) "every success counted" stats.Workload.Client.succeeded
    w.completed;
  Alcotest.(check (float 1e-9)) "mean per slice"
    (float_of_int w.completed /. 4.)
    w.mean_per_slice;
  let empty = Workload.Client.window series ~start:0. ~stop:0. ~slice:25. in
  Alcotest.(check (float 0.)) "empty window mean" 0. empty.mean_per_slice

let suite =
  [
    ("sales catalog size", `Quick, test_sales_catalog_size);
    ("sales fact rows", `Quick, test_sales_fact_rows);
    ("sales 19 dimensions", `Quick, test_sales_dimension_count);
    ("sales ten templates", `Quick, test_sales_ten_templates);
    ("sales join band 15-20", `Slow, test_sales_join_band);
    ("sales queries valid", `Quick, test_sales_queries_valid_and_aggregated);
    ("uniquifier defeats caching", `Quick, test_uniquifier_defeats_caching);
    ("diagnostic template tiny+stable", `Quick, test_diagnostic_template_is_tiny_and_stable);
    ("sales compile memory band", `Slow, test_sales_compile_memory_band);
    ("tpch join band 0-8", `Quick, test_tpch_join_band);
    ("tpch instantiates", `Quick, test_tpch_instantiates_all);
    ("tpch self-join aliases", `Quick, test_tpch_self_join_aliases);
    ("tpch compiles small+complete", `Slow, test_tpch_compiles_small);
    ("tpch plans validate", `Quick, test_tpch_plans_validate);
    ("snowflake join band", `Quick, test_snowflake_join_band);
    ("snowflake chain joins", `Quick, test_snowflake_has_chain_joins);
    ("snowflake plans validate", `Quick, test_snowflake_plans_validate);
    ("template weighted pick", `Quick, test_template_weighted_pick);
    ("client success path", `Quick, test_client_success_path);
    ("client retries then succeeds", `Quick, test_client_retries_then_succeeds);
    ("client abandons after max", `Quick, test_client_abandons_after_max_attempts);
    ("fleet keyed by client name", `Quick, test_fleet_keyed_by_name);
    ("completion window", `Quick, test_completion_window);
  ]
