(* Remaining coverage: metrics, reporting helpers, bridge materialisation
   integrity, pretty-printers. *)

(* ------------------------------------------------------------------ *)
(* Metrics *)

let test_metrics_recording () =
  let eng = Sim.Engine.create () in
  let m = Server.Metrics.create eng in
  Sim.Engine.spawn eng (fun () ->
      Sim.Engine.sleep 10.;
      Server.Metrics.record_completion m ~compile_s:5. ~exec_s:20.;
      Sim.Engine.sleep 10.;
      Server.Metrics.record_completion m ~compile_s:15. ~exec_s:40.;
      Server.Metrics.record_error m Health.Error.Insufficient_memory;
      Server.Metrics.record_error m Health.Error.Insufficient_memory;
      Server.Metrics.record_error m Health.Error.Memory_wait_timeout;
      Server.Metrics.record_cache_hit m;
      Server.Metrics.record_compile_peak m 1000);
  Sim.Engine.run_all eng;
  Alcotest.(check int) "completions" 2 (Server.Metrics.total_completions m ());
  Alcotest.(check int) "since t=15" 1 (Server.Metrics.total_completions m ~since:15. ());
  Alcotest.(check int) "oom" 2 (Server.Metrics.error_count m Health.Error.Insufficient_memory);
  Alcotest.(check int) "total errors" 3 (Server.Metrics.total_errors m);
  Alcotest.(check int) "cache hits" 1 (Server.Metrics.cache_hits m);
  Alcotest.(check (float 1e-9)) "compile mean" 10.
    (Sim.Stats.Online.mean (Server.Metrics.compile_time m));
  let slices = Server.Metrics.throughput m ~start:0. ~stop:30. ~width:10. in
  Alcotest.(check int) "3 slices" 3 (Array.length slices);
  Alcotest.(check (float 1e-9)) "slice 1" 1. (snd slices.(1));
  Alcotest.(check (float 1e-9)) "slice 2" 1. (snd slices.(2))

let test_metrics_memory_watch () =
  let eng = Sim.Engine.create () in
  let mgr = Dbmem.Manager.create ~total:(Dbmem.Units.mib 100) () in
  let clerk = Dbmem.Manager.create_clerk mgr "c" in
  let m = Server.Metrics.create eng in
  Server.Metrics.watch_memory m ~interval:1.0 [ ("c", clerk) ];
  Sim.Engine.spawn eng (fun () ->
      Sim.Engine.sleep 2.5;
      Dbmem.Manager.alloc_exn clerk (Dbmem.Units.mib 7));
  Sim.Engine.run eng ~until:5.5;
  match Server.Metrics.memory_series m with
  | [ ("c", series) ] ->
      Alcotest.(check int) "5 samples" 5 (Sim.Series.length series);
      let _, last = Option.get (Sim.Series.last series) in
      Alcotest.(check (float 1.)) "last sample sees the allocation"
        (float_of_int (Dbmem.Units.mib 7))
        last
  | _ -> Alcotest.fail "expected one series"

(* ------------------------------------------------------------------ *)
(* Report helpers *)

let test_sparkline () =
  Alcotest.(check string) "empty" "" (Server.Report.sparkline [||]);
  let s = Server.Report.sparkline [| 0.; 4.; 8. |] in
  (* Three glyphs: blank-ish, mid, full. *)
  Alcotest.(check bool) "nonempty" true (String.length s > 0);
  let full = "\xe2\x96\x88" in
  Alcotest.(check bool) "max maps to full block" true
    (String.length s >= 3
    && String.sub s (String.length s - 3) 3 = full)

let test_result_row_shape () =
  Alcotest.(check int) "header arity matches rows" 10
    (List.length Server.Report.result_header)

(* ------------------------------------------------------------------ *)
(* Bridge materialisation integrity *)

let test_materialize_referential_integrity () =
  let cat = Workload.Sales.catalog () in
  let inst = Oracle.Bridge.materialize (Sim.Rng.create 3) cat ~scale:1e-5 ~cap:50 () in
  let fact = Oracle.Bridge.table inst "sales" in
  let schema = Relation.Table.schema fact in
  List.iter
    (fun dim ->
      let dim_rows = Relation.Table.cardinality (Oracle.Bridge.table inst dim) in
      let idx = Relation.Schema.index_of schema (dim ^ "_key") in
      Array.iter
        (fun row ->
          match Relation.Tuple.get row idx with
          | Relation.Value.Int fk ->
              Alcotest.(check bool)
                (Printf.sprintf "%s fk in [0, %d)" dim dim_rows)
                true
                (fk >= 0 && fk < dim_rows)
          | _ -> Alcotest.fail "fk not an int")
        (Relation.Table.rows fact))
    Workload.Sales.dimensions

let test_materialize_serial_pk () =
  let cat = Workload.Sales.catalog () in
  let inst = Oracle.Bridge.materialize (Sim.Rng.create 4) cat ~scale:1e-5 ~cap:50 () in
  let customer = Oracle.Bridge.table inst "customer" in
  let idx = Relation.Schema.index_of (Relation.Table.schema customer) "customer_key" in
  Array.iteri
    (fun i row ->
      match Relation.Tuple.get row idx with
      | Relation.Value.Int k -> Alcotest.(check int) "dense pk" i k
      | _ -> Alcotest.fail "pk not an int")
    (Relation.Table.rows customer)

let test_materialize_lists_tables () =
  let cat = Workload.Tpch.catalog () in
  let inst = Oracle.Bridge.materialize (Sim.Rng.create 5) cat ~scale:1e-6 ~cap:20 () in
  Alcotest.(check int) "8 tables" 8 (List.length (Oracle.Bridge.table_names inst));
  Alcotest.(check bool) "missing table rejected" true
    (try
       ignore (Oracle.Bridge.table inst "nope");
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Pretty-printer smoke tests: they must not raise and must mention the
   key facts. *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec scan i = i + nn <= nh && (String.sub hay i nn = needle || scan (i + 1)) in
  scan 0

let test_pp_smoke () =
  let cat = Workload.Sales.catalog () in
  let s = Format.asprintf "%a" Optimizer.Catalog.pp cat in
  Alcotest.(check bool) "catalog pp mentions sales" true (contains s "sales");
  let cfg = Server.Config.default () in
  let s = Format.asprintf "%a" Server.Config.pp cfg in
  Alcotest.(check bool) "config pp mentions cpus" true (contains s "8 cpus");
  let rng = Sim.Rng.create 1 in
  let q =
    Workload.Template.instance rng (List.hd (Workload.Sales.templates ())) ~id:1
  in
  let card = Optimizer.Card.create cat q in
  let plan = Optimizer.Greedy.plan Optimizer.Cost.default card in
  let s = Format.asprintf "%a" Optimizer.Plan.pp plan in
  Alcotest.(check bool) "plan pp mentions a scan" true (contains s "Scan");
  let s = Format.asprintf "%a" Optimizer.Query.pp q in
  Alcotest.(check bool) "query pp mentions joins" true (contains s "joins");
  let h = Optimizer.Histogram.build [| 1; 2; 3 |] in
  let s = Format.asprintf "%a" Optimizer.Histogram.pp h in
  Alcotest.(check bool) "histogram pp" true (contains s "equi-depth")

let suite =
  [
    ("metrics recording", `Quick, test_metrics_recording);
    ("metrics memory watch", `Quick, test_metrics_memory_watch);
    ("sparkline", `Quick, test_sparkline);
    ("result row shape", `Quick, test_result_row_shape);
    ("materialize referential integrity", `Quick, test_materialize_referential_integrity);
    ("materialize serial pk", `Quick, test_materialize_serial_pk);
    ("materialize table list", `Quick, test_materialize_lists_tables);
    ("pretty-printer smoke", `Quick, test_pp_smoke);
  ]
