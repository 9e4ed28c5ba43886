(* Tests for the paper's contribution: trend estimation, the memory broker,
   gateway monitors, and the compile governor. *)

open Qcore

let mib = Dbmem.Units.mib

(* ------------------------------------------------------------------ *)
(* Trend *)

let test_trend_linear_series () =
  let t = Trend.create ~window:8 () in
  for i = 0 to 7 do
    Trend.observe t ~time:(float_of_int i) (10. +. (3. *. float_of_int i))
  done;
  (match Trend.slope t with
  | Some s -> Alcotest.(check (float 1e-6)) "slope" 3.0 s
  | None -> Alcotest.fail "no slope");
  match Trend.predict t ~horizon:10. with
  | Some p -> Alcotest.(check (float 1e-6)) "prediction" (31. +. 30.) p
  | None -> Alcotest.fail "no prediction"

let test_trend_window_slides () =
  let t = Trend.create ~window:4 () in
  (* Old steep ramp followed by a plateau: once the plateau fills the
     window the slope must be ~0. *)
  for i = 0 to 3 do
    Trend.observe t ~time:(float_of_int i) (100. *. float_of_int i)
  done;
  for i = 4 to 10 do
    Trend.observe t ~time:(float_of_int i) 400.
  done;
  match Trend.slope t with
  | Some s -> Alcotest.(check (float 1e-6)) "flat" 0.0 s
  | None -> Alcotest.fail "no slope"

let test_trend_prediction_clamped () =
  let t = Trend.create ~window:4 () in
  Trend.observe t ~time:0. 100.;
  Trend.observe t ~time:1. 10.;
  match Trend.predict t ~horizon:100. with
  | Some p -> Alcotest.(check (float 1e-6)) "clamped at zero" 0.0 p
  | None -> Alcotest.fail "no prediction"

let test_trend_single_sample () =
  let t = Trend.create ~window:4 () in
  Trend.observe t ~time:0. 50.;
  Alcotest.(check (option (float 1e-9))) "no slope" None (Trend.slope t);
  Alcotest.(check (option (float 1e-9))) "predict falls back" (Some 50.)
    (Trend.predict t ~horizon:5.);
  Alcotest.(check (option (float 1e-9))) "last" (Some 50.) (Trend.last t)

let test_trend_empty () =
  let t = Trend.create ~window:4 () in
  Alcotest.(check int) "samples" 0 (Trend.samples t);
  Alcotest.(check (option (float 1e-9))) "predict" None (Trend.predict t ~horizon:1.);
  Alcotest.(check (option (float 1e-9))) "mean" None (Trend.mean t)

let test_trend_constant_series () =
  (* A flat signal must read as exactly zero slope (no drift from the
     least-squares arithmetic) and predict itself at any horizon. *)
  let t = Trend.create ~window:6 () in
  for i = 0 to 9 do
    Trend.observe t ~time:(float_of_int i) 123.
  done;
  Alcotest.(check (option (float 1e-9))) "slope" (Some 0.) (Trend.slope t);
  Alcotest.(check (option (float 1e-9))) "predict near" (Some 123.)
    (Trend.predict t ~horizon:1.);
  Alcotest.(check (option (float 1e-9))) "predict far" (Some 123.)
    (Trend.predict t ~horizon:1000.);
  Alcotest.(check (option (float 1e-9))) "mean" (Some 123.) (Trend.mean t)

let test_trend_decreasing_series () =
  (* Freeing memory: slope is negative, short-horizon prediction follows
     the line down, long-horizon prediction clamps at zero rather than
     going negative. *)
  let t = Trend.create ~window:8 () in
  for i = 0 to 7 do
    Trend.observe t ~time:(float_of_int i) (100. -. (10. *. float_of_int i))
  done;
  (match Trend.slope t with
  | Some s -> Alcotest.(check (float 1e-6)) "slope" (-10.) s
  | None -> Alcotest.fail "no slope");
  Alcotest.(check (option (float 1e-6))) "short horizon" (Some 20.)
    (Trend.predict t ~horizon:1.);
  Alcotest.(check (option (float 1e-6))) "long horizon clamps" (Some 0.)
    (Trend.predict t ~horizon:50.)

let test_trend_two_samples_minimum () =
  (* Exactly two samples is the smallest window that yields a slope; one
     fewer must yield none (covered by [single sample] too, but pinned
     here at the boundary). *)
  let t = Trend.create ~window:2 () in
  Trend.observe t ~time:0. 10.;
  Alcotest.(check (option (float 1e-9))) "1 sample: none" None (Trend.slope t);
  Trend.observe t ~time:2. 20.;
  Alcotest.(check (option (float 1e-9))) "2 samples" (Some 5.) (Trend.slope t)

let test_trend_backwards_time_rejected () =
  let t = Trend.create ~window:4 () in
  Trend.observe t ~time:5. 1.;
  Alcotest.check_raises "backwards"
    (Invalid_argument "Trend.observe: time went backwards") (fun () ->
      Trend.observe t ~time:4. 1.)

let prop_trend_slope_recovers_line =
  QCheck.Test.make ~name:"trend recovers slope of noiseless line" ~count:100
    QCheck.(pair (float_range (-50.) 50.) (float_range (-1000.) 1000.))
    (fun (m, b) ->
      let t = Trend.create ~window:10 () in
      for i = 0 to 9 do
        Trend.observe t ~time:(float_of_int i) (b +. (m *. float_of_int i))
      done;
      match Trend.slope t with
      | Some s -> Float.abs (s -. m) < 1e-6 +. (1e-9 *. Float.abs m)
      | None -> false)

(* ------------------------------------------------------------------ *)
(* Broker *)

let make_broker ?(total = mib 1000) () =
  let eng = Sim.Engine.create () in
  let m = Dbmem.Manager.create ~total () in
  let broker = Broker.create eng m in
  (eng, m, broker)

let test_broker_no_pressure_no_action () =
  let _, m, broker = make_broker () in
  let c1 = Dbmem.Manager.create_clerk m "one" in
  let comp = Broker.register broker ~name:"one" ~clerk:c1 () in
  Dbmem.Manager.alloc_exn c1 (mib 100);
  Broker.tick broker;
  Alcotest.(check bool) "no pressure" false (Broker.under_pressure broker);
  match Broker.last_notification comp with
  | Some n ->
      Alcotest.(check bool) "can grow" true (n.Broker.verdict = Broker.Can_grow);
      Alcotest.(check bool) "target above usage" true (n.Broker.target >= mib 100)
  | None -> Alcotest.fail "no notification"

let test_broker_detects_pressure_from_trend () =
  let eng, m, broker = make_broker ~total:(mib 1000) () in
  let hog = Dbmem.Manager.create_clerk m "hog" in
  let other = Dbmem.Manager.create_clerk m "other" in
  let comp_hog = Broker.register broker ~name:"hog" ~clerk:hog () in
  let _comp_other = Broker.register broker ~name:"other" ~clerk:other () in
  Dbmem.Manager.alloc_exn other (mib 200);
  (* Grow the hog by 100 MiB per tick; after a few ticks the extrapolation
     must exceed the budget even though current usage is below it. *)
  Broker.start broker;
  Sim.Engine.spawn eng (fun () ->
      for _ = 1 to 6 do
        Dbmem.Manager.alloc_exn hog (mib 100);
        Sim.Engine.sleep 1.0
      done);
  Sim.Engine.run eng ~until:6.5;
  Alcotest.(check bool) "pressure detected" true (Broker.under_pressure broker);
  Alcotest.(check bool) "usage itself still below budget" true
    (Dbmem.Manager.used m < Broker.brokered_bytes broker);
  match Broker.last_notification comp_hog with
  | Some n -> Alcotest.(check bool) "prediction exceeds usage" true
      (n.Broker.predicted > Dbmem.Manager.clerk_used hog)
  | None -> Alcotest.fail "no notification"

let test_broker_targets_sum_within_budget () =
  let _, m, broker = make_broker ~total:(mib 100) () in
  let a = Dbmem.Manager.create_clerk m "a" in
  let b = Dbmem.Manager.create_clerk m "b" in
  let ca = Broker.register broker ~name:"a" ~clerk:a () in
  let cb = Broker.register broker ~name:"b" ~clerk:b () in
  Dbmem.Manager.alloc_exn a (mib 70);
  Dbmem.Manager.alloc_exn b (mib 28);
  Broker.tick broker;
  Alcotest.(check bool) "pressure" true (Broker.under_pressure broker);
  let total_target = Broker.target ca + Broker.target cb in
  Alcotest.(check bool) "targets within brokered budget" true
    (total_target <= Broker.brokered_bytes broker + 2)

let test_broker_shrink_verdict () =
  let _, m, broker = make_broker ~total:(mib 100) () in
  let a = Dbmem.Manager.create_clerk m "a" in
  let b = Dbmem.Manager.create_clerk m "b" in
  let ca = Broker.register broker ~name:"a" ~clerk:a ~weight:1. () in
  let _cb = Broker.register broker ~name:"b" ~clerk:b ~weight:10. () in
  (* a uses far more than its weighted share. *)
  Dbmem.Manager.alloc_exn a (mib 80);
  Dbmem.Manager.alloc_exn b (mib 18);
  Broker.tick broker;
  match Broker.last_notification ca with
  | Some n -> Alcotest.(check bool) "must shrink" true (n.Broker.verdict = Broker.Must_shrink)
  | None -> Alcotest.fail "no notification"

let test_broker_min_bytes_floor () =
  let _, m, broker = make_broker ~total:(mib 100) () in
  let a = Dbmem.Manager.create_clerk m "a" in
  let b = Dbmem.Manager.create_clerk m "b" in
  let ca = Broker.register broker ~name:"a" ~clerk:a ~min_bytes:(mib 30) () in
  let _ = Broker.register broker ~name:"b" ~clerk:b () in
  Dbmem.Manager.alloc_exn a (mib 1);
  Dbmem.Manager.alloc_exn b (mib 95);
  Broker.tick broker;
  Alcotest.(check bool) "floor respected" true (Broker.target ca >= mib 30)

let test_broker_notify_callback_runs () =
  let _, m, broker = make_broker () in
  let a = Dbmem.Manager.create_clerk m "a" in
  let seen = ref [] in
  let _ =
    Broker.register broker ~name:"a" ~clerk:a
      ~notify:(fun n -> seen := n :: !seen)
      ()
  in
  Broker.tick broker;
  Broker.tick broker;
  Alcotest.(check int) "notified each tick" 2 (List.length !seen)

let test_broker_periodic_ticks () =
  let eng, _, broker = make_broker () in
  Broker.start broker;
  Sim.Engine.run eng ~until:10.5;
  Alcotest.(check int) "10 ticks in 10.5s at 1Hz" 10 (Broker.ticks broker);
  Broker.stop broker;
  Sim.Engine.run eng ~until:20.0;
  Alcotest.(check int) "no ticks after stop" 10 (Broker.ticks broker)

(* ------------------------------------------------------------------ *)
(* Throttle_config *)

let test_config_default_valid () =
  let c = Throttle_config.default () in
  Throttle_config.validate c ~cpus:8;
  Alcotest.(check int) "three monitors" 3 (List.length c.Throttle_config.levels)

let test_config_paper_slot_counts () =
  (* Paper: 4 concurrent per CPU (small), 1 per CPU (medium), 1 (big). *)
  let c = Throttle_config.default () in
  match c.Throttle_config.levels with
  | [ small; medium; big ] ->
      Alcotest.(check int) "small" 32
        (Throttle_config.slot_count small.Throttle_config.slots ~cpus:8);
      Alcotest.(check int) "medium" 8
        (Throttle_config.slot_count medium.Throttle_config.slots ~cpus:8);
      Alcotest.(check int) "big" 1
        (Throttle_config.slot_count big.Throttle_config.slots ~cpus:8)
  | _ -> Alcotest.fail "expected 3 levels"

let test_config_monotone_thresholds () =
  let c = Throttle_config.default () in
  let rec thresholds = function
    | (a : Throttle_config.level) :: rest -> a.Throttle_config.base_threshold :: thresholds rest
    | [] -> []
  in
  let ts = thresholds c.Throttle_config.levels in
  let rec increasing = function
    | a :: (b :: _ as rest) -> a < b && increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "increasing" true (increasing ts)

let test_config_invalid_rejected () =
  let base = Throttle_config.default () in
  let flipped = { base with Throttle_config.levels = List.rev base.Throttle_config.levels } in
  Alcotest.(check bool) "flipped ladder rejected" true
    (try
       Throttle_config.validate flipped ~cpus:8;
       false
     with Invalid_argument _ -> true)

let test_dynamic_threshold_formula () =
  let level =
    {
      Throttle_config.lname = "medium";
      base_threshold = mib 48;
      slots = Throttle_config.Per_cpu 1;
      timeout = 300.;
      fraction = 0.4;
      min_threshold = mib 1;
      max_threshold = mib 10_000;
    }
  in
  (* threshold = target * F / S *)
  let thr = Throttle_config.dynamic_threshold level ~target:(mib 1000) ~population:10 in
  Alcotest.(check int) "target*F/S" (mib 40) thr;
  (* Fewer compilations below: each may use more before upgrading. *)
  let thr2 = Throttle_config.dynamic_threshold level ~target:(mib 1000) ~population:2 in
  Alcotest.(check int) "larger with smaller population" (mib 200) thr2;
  (* Clamping. *)
  let thr3 = Throttle_config.dynamic_threshold level ~target:(mib 1000) ~population:100_000 in
  Alcotest.(check int) "min clamp" (mib 1) thr3;
  let thr4 =
    Throttle_config.dynamic_threshold
      { level with Throttle_config.max_threshold = mib 50 }
      ~target:(mib 1000) ~population:1
  in
  Alcotest.(check int) "max clamp" (mib 50) thr4;
  (* No target known: fall back to the static threshold. *)
  let thr5 = Throttle_config.dynamic_threshold level ~target:0 ~population:5 in
  Alcotest.(check int) "fallback" (mib 48) thr5

(* ------------------------------------------------------------------ *)
(* Monitor *)

let test_monitor_blocks_over_slots () =
  let eng = Sim.Engine.create () in
  let m = Monitor.create eng ~name:"g" ~slots:2 ~timeout:100. () in
  let acquired = ref 0 in
  for _ = 1 to 3 do
    Sim.Engine.spawn eng (fun () ->
        match Monitor.acquire m () with
        | Ok () -> incr acquired
        | Error `Timeout -> ())
  done;
  Sim.Engine.run eng ~until:1.0;
  Alcotest.(check int) "two admitted" 2 !acquired;
  Alcotest.(check int) "one queued" 1 (Monitor.queued m);
  Monitor.release m;
  Sim.Engine.run eng ~until:2.0;
  Alcotest.(check int) "third admitted after release" 3 !acquired

let test_monitor_timeout () =
  let eng = Sim.Engine.create () in
  let m = Monitor.create eng ~name:"g" ~slots:1 ~timeout:5. () in
  let results = ref [] in
  Sim.Engine.spawn eng (fun () ->
      ignore (Monitor.acquire m ());
      Sim.Engine.sleep 100.);
  Sim.Engine.spawn eng ~delay:1.0 (fun () ->
      results := Monitor.acquire m () :: !results);
  Sim.Engine.run eng ~until:20.0;
  (match !results with
  | [ Error `Timeout ] -> ()
  | _ -> Alcotest.fail "expected timeout");
  Alcotest.(check int) "timeout counted" 1 (Monitor.timeouts m)

(* ------------------------------------------------------------------ *)
(* Compile governor *)

type gov_env = {
  eng : Sim.Engine.t;
  mgr : Dbmem.Manager.t;
  gov : Compile_gov.t;
}

let make_gov ?(total = mib 4096) ?(cpus = 2) ?(config = Throttle_config.default ())
    ?(enabled = true) () =
  let eng = Sim.Engine.create () in
  let mgr = Dbmem.Manager.create ~total () in
  let clerk = Dbmem.Manager.create_clerk mgr "compile" in
  let gov = Compile_gov.create eng mgr ~clerk ~cpus ~config ~enabled () in
  { eng; mgr; gov }

(* Live sessions: every session holds some number of monitors, from 0 to
   all of them. *)
let live_sessions gov =
  List.init (Array.length (Compile_gov.monitors gov) + 1) (Compile_gov.population gov)
  |> List.fold_left ( + ) 0

let test_gov_small_query_unthrottled () =
  let { eng; gov; _ } = make_gov () in
  let ok = ref false in
  Sim.Engine.spawn eng (fun () ->
      let s = Compile_gov.begin_compile gov in
      (match Compile_gov.alloc s (mib 1) with
      | Ok () -> ok := true
      | Error _ -> ());
      Alcotest.(check int) "below first threshold: no monitor" 0 (Compile_gov.level s);
      Compile_gov.end_compile s);
  Sim.Engine.run_all eng;
  Alcotest.(check bool) "alloc ok" true !ok

(* The credit is the room below the session's next gate, capped by the
   memory free; it is 0 while a fault hook or a trace must see every
   allocation. *)
let test_gov_credit () =
  let session ?(enabled = true) ?trace ~total () =
    let eng = Sim.Engine.create () in
    let mgr = Dbmem.Manager.create ~total () in
    let clerk = Dbmem.Manager.create_clerk mgr "compile" in
    let gov =
      Compile_gov.create eng mgr ?trace ~clerk ~cpus:2
        ~config:(Throttle_config.default ()) ~enabled ()
    in
    let s = Compile_gov.begin_compile gov in
    ignore (Compile_gov.alloc s (mib 1));
    (gov, mgr, s)
  in
  let gov, mgr, s = session ~total:(mib 4096) () in
  Alcotest.(check int) "room below the first gate"
    (Compile_gov.threshold gov 0 - mib 1)
    (Compile_gov.credit s);
  Dbmem.Manager.set_alloc_fault mgr (Some (fun _ _ -> false));
  Alcotest.(check int) "fault hook installed" 0 (Compile_gov.credit s);
  let _, _, s = session ~total:(mib 1 + 4096) () in
  Alcotest.(check int) "capped by free memory" 4096 (Compile_gov.credit s);
  let _, _, s = session ~enabled:false ~total:(mib 4096) () in
  Alcotest.(check int) "governor off" (mib 4095) (Compile_gov.credit s);
  let trace = Obs.Trace.create ~capacity:16 () in
  let _, _, s = session ~trace ~total:(mib 4096) () in
  Alcotest.(check int) "tracing" 0 (Compile_gov.credit s)

let test_gov_crossing_thresholds_acquires_monitors () =
  let { eng; gov; _ } = make_gov ~cpus:8 () in
  Sim.Engine.spawn eng (fun () ->
      let s = Compile_gov.begin_compile gov in
      ignore (Compile_gov.alloc s (mib 10));
      Alcotest.(check int) "small monitor" 1 (Compile_gov.level s);
      ignore (Compile_gov.alloc s (mib 150));
      Alcotest.(check int) "medium monitor" 2 (Compile_gov.level s);
      ignore (Compile_gov.alloc s (mib 400));
      Alcotest.(check int) "big monitor" 3 (Compile_gov.level s);
      Compile_gov.end_compile s;
      Alcotest.(check int) "released" 0 (Compile_gov.level s));
  Sim.Engine.run_all eng;
  let monitors = Compile_gov.monitors gov in
  Array.iter
    (fun m -> Alcotest.(check int) ("freed " ^ Monitor.name m) 0 (Monitor.in_use m))
    monitors

let test_gov_population_accounting () =
  let { eng; gov; _ } = make_gov ~cpus:8 () in
  Sim.Engine.spawn eng (fun () ->
      let s1 = Compile_gov.begin_compile gov in
      let s2 = Compile_gov.begin_compile gov in
      Alcotest.(check int) "two below ladder" 2 (Compile_gov.population gov 0);
      ignore (Compile_gov.alloc s1 (mib 10));
      Alcotest.(check int) "one small" 1 (Compile_gov.population gov 1);
      Alcotest.(check int) "one below" 1 (Compile_gov.population gov 0);
      Compile_gov.end_compile s1;
      Compile_gov.end_compile s2;
      Alcotest.(check int) "none left" 0 (Compile_gov.population gov 0));
  Sim.Engine.run_all eng;
  Alcotest.(check int) "no live sessions" 0 (live_sessions gov)

let test_gov_big_serialized () =
  (* Only one compilation may hold the big monitor; a second big compile
     must wait for the first to finish. *)
  let { eng; gov; _ } = make_gov ~cpus:8 () in
  let finish_times = ref [] in
  let spawn_big name delay =
    Sim.Engine.spawn eng ~name ~delay (fun () ->
        let s = Compile_gov.begin_compile gov in
        ignore (Compile_gov.alloc s (mib 500));
        Sim.Engine.sleep 10.;
        Compile_gov.end_compile s;
        finish_times := (name, Sim.Engine.now eng) :: !finish_times)
  in
  spawn_big "q1" 0.0;
  spawn_big "q2" 0.1;
  Sim.Engine.run_all eng;
  match List.rev !finish_times with
  | [ ("q1", t1); ("q2", t2) ] ->
      Alcotest.(check (float 1e-6)) "q1 finishes at 10" 10.0 t1;
      Alcotest.(check bool) "q2 serialized behind q1" true (t2 >= 20.0)
  | _ -> Alcotest.fail "expected both to finish"

let test_gov_timeout_error () =
  let config =
    (* Tiny timeout on the big gateway so the test is quick. *)
    let d = Throttle_config.default () in
    {
      d with
      Throttle_config.levels =
        List.map
          (fun (l : Throttle_config.level) ->
            if l.Throttle_config.lname = "big" then { l with Throttle_config.timeout = 600. }
            else l)
          d.Throttle_config.levels;
    }
  in
  let { eng; gov; _ } = make_gov ~cpus:8 ~config () in
  let errors = ref [] in
  Sim.Engine.spawn eng (fun () ->
      let s = Compile_gov.begin_compile gov in
      ignore (Compile_gov.alloc s (mib 500));
      Sim.Engine.sleep 10_000.;
      Compile_gov.end_compile s);
  Sim.Engine.spawn eng ~delay:1.0 (fun () ->
      let s = Compile_gov.begin_compile gov in
      (match Compile_gov.alloc s (mib 500) with
      | Error e -> errors := e :: !errors
      | Ok () -> ());
      Compile_gov.end_compile s);
  Sim.Engine.run eng ~until:2_000.;
  match !errors with
  | [ { Health.Error.code = Health.Error.Memory_wait_timeout; detail = "big" } ]
    ->
      ()
  | _ -> Alcotest.fail "expected big-gateway timeout"

let test_gov_disabled_never_blocks () =
  let { eng; gov; _ } = make_gov ~cpus:1 ~enabled:false () in
  let done_count = ref 0 in
  for _ = 1 to 10 do
    Sim.Engine.spawn eng (fun () ->
        let s = Compile_gov.begin_compile gov in
        ignore (Compile_gov.alloc s (mib 300));
        Sim.Engine.sleep 10.;
        Compile_gov.end_compile s;
        incr done_count)
  done;
  Sim.Engine.run eng ~until:11.;
  (* With throttling disabled all ten big compiles run concurrently. *)
  Alcotest.(check int) "all finished concurrently" 10 !done_count

let test_gov_oom_propagates () =
  let { eng; gov; _ } = make_gov ~total:(mib 100) ~enabled:false () in
  let result = ref None in
  Sim.Engine.spawn eng (fun () ->
      let s = Compile_gov.begin_compile gov in
      result := Some (Compile_gov.alloc s (mib 500));
      Compile_gov.end_compile s);
  Sim.Engine.run_all eng;
  match !result with
  | Some (Error { Health.Error.code = Health.Error.Insufficient_memory; _ }) ->
      ()
  | _ -> Alcotest.fail "expected OOM"

let test_gov_memory_freed_on_end () =
  let { eng; gov; mgr } = make_gov () in
  Sim.Engine.spawn eng (fun () ->
      let s = Compile_gov.begin_compile gov in
      ignore (Compile_gov.alloc s (mib 64));
      ignore (Compile_gov.alloc s (mib 64));
      Alcotest.(check int) "usage" (mib 128) (Compile_gov.usage s);
      Compile_gov.end_compile s;
      Compile_gov.end_compile s (* idempotent *));
  Sim.Engine.run_all eng;
  Alcotest.(check int) "all freed" 0 (Dbmem.Manager.used mgr)

let test_gov_partial_free () =
  let { eng; gov; _ } = make_gov () in
  Sim.Engine.spawn eng (fun () ->
      let s = Compile_gov.begin_compile gov in
      ignore (Compile_gov.alloc s (mib 64));
      Compile_gov.free s (mib 32);
      Alcotest.(check int) "usage after free" (mib 32) (Compile_gov.usage s);
      Alcotest.(check int) "peak unchanged" (mib 64) (Compile_gov.peak s);
      Compile_gov.end_compile s);
  Sim.Engine.run_all eng

let test_gov_dynamic_threshold_from_broker () =
  let { eng; gov; _ } = make_gov ~cpus:8 () in
  (* Before any broker input: static threshold. *)
  Alcotest.(check int) "static medium" (mib 96) (Compile_gov.threshold gov 1);
  Compile_gov.on_notification gov
    {
      Broker.verdict = Broker.Hold_rate;
      target = mib 640;
      predicted = mib 700;
      pressure = true;
    };
  (* With population S=0 -> max(1) and F=0.35: 640*0.35 = 224 MiB. *)
  Alcotest.(check int) "dynamic medium" (mib 224) (Compile_gov.threshold gov 1);
  Sim.Engine.spawn eng (fun () ->
      (* Put 7 sessions in the small category: S=7 shrinks the threshold. *)
      let sessions = List.init 7 (fun _ ->
          let s = Compile_gov.begin_compile gov in
          ignore (Compile_gov.alloc s (mib 10));
          s)
      in
      let expected = mib 32 in (* 640 * 0.35 / 7 = 32 MiB *)
      Alcotest.(check int) "threshold shrinks with population" expected
        (Compile_gov.threshold gov 1);
      List.iter Compile_gov.end_compile sessions);
  Sim.Engine.run_all eng

let test_gov_stop_early_signal () =
  let { gov; _ } = make_gov () in
  Alcotest.(check bool) "initially false" false (Compile_gov.should_stop_early gov);
  Compile_gov.on_notification gov
    { Broker.verdict = Broker.Must_shrink; target = mib 100; predicted = mib 900; pressure = true };
  Alcotest.(check bool) "set on must-shrink" true (Compile_gov.should_stop_early gov);
  Compile_gov.on_notification gov
    { Broker.verdict = Broker.Can_grow; target = mib 900; predicted = mib 100; pressure = false };
  Alcotest.(check bool) "cleared on can-grow" false (Compile_gov.should_stop_early gov)

let test_gov_stop_early_requires_enabled () =
  let { gov; _ } = make_gov ~enabled:false () in
  Compile_gov.on_notification gov
    { Broker.verdict = Broker.Must_shrink; target = mib 100; predicted = mib 900; pressure = true };
  Alcotest.(check bool) "disabled governor never asks to stop" false
    (Compile_gov.should_stop_early gov)

let test_broker_hold_rate_verdict () =
  let eng, m, broker = make_broker ~total:(mib 100) () in
  let a = Dbmem.Manager.create_clerk m "a" in
  let b = Dbmem.Manager.create_clerk m "b" in
  let ca = Broker.register broker ~name:"a" ~clerk:a () in
  let _cb = Broker.register broker ~name:"b" ~clerk:b () in
  (* Feed a growth trend for a: time must advance between samples for the
     regression to see a slope. *)
  Dbmem.Manager.alloc_exn b (mib 60);
  Sim.Engine.spawn eng (fun () ->
      for _ = 1 to 6 do
        Dbmem.Manager.alloc_exn a (mib 5);
        Broker.tick broker;
        Sim.Engine.sleep 1.0
      done);
  Sim.Engine.run_all eng;
  match Broker.last_notification ca with
  | Some n ->
      Alcotest.(check bool) "prediction above usage" true
        (n.Broker.predicted > Dbmem.Manager.clerk_used a)
  | None -> Alcotest.fail "no notification"

let test_monitor_wait_stats () =
  let eng = Sim.Engine.create () in
  let m = Monitor.create eng ~name:"g" ~slots:1 ~timeout:100. () in
  Sim.Engine.spawn eng (fun () ->
      ignore (Monitor.acquire m ());
      Sim.Engine.sleep 7.;
      Monitor.release m);
  Sim.Engine.spawn eng ~delay:2.0 (fun () ->
      ignore (Monitor.acquire m ());
      Monitor.release m);
  Sim.Engine.run_all eng;
  let ws = Monitor.wait_stats m in
  Alcotest.(check int) "two acquires measured" 2 (Sim.Stats.Online.count ws);
  Alcotest.(check (float 1e-6)) "max wait is 5s" 5.0 (Sim.Stats.Online.max ws)

(* Paper §2.2: "if many large queries are compiling simultaneously, each
   compilation can consume a significant fraction of system memory
   [and they] can deadlock on each other ... Even if the system aborts most
   of these queries to allow a few to complete, those aborted queries
   likely need to be resubmitted." With the governor, the ladder serializes
   the growth and everyone completes. *)
let test_gov_prevents_mutual_starvation () =
  let run ~enabled =
    let eng = Sim.Engine.create () in
    let mgr = Dbmem.Manager.create ~total:(mib 1024) () in
    let clerk = Dbmem.Manager.create_clerk mgr "compile" in
    let gov =
      Compile_gov.create eng mgr ~clerk ~cpus:1
        ~config:(Throttle_config.default ()) ~enabled ()
    in
    let outcomes = ref [] in
    for i = 1 to 2 do
      Sim.Engine.spawn eng ~name:(Printf.sprintf "q%d" i) (fun () ->
          let s = Compile_gov.begin_compile gov in
          let ok = ref true in
          (* Grow to 800 MiB in 16 MiB steps, as a compilation would. *)
          (try
             for _ = 1 to 50 do
               (match Compile_gov.alloc s (mib 16) with
               | Ok () -> ()
               | Error _ ->
                   ok := false;
                   raise Exit);
               Sim.Engine.sleep 1.0
             done
           with Exit -> ());
          Compile_gov.end_compile s;
          outcomes := !ok :: !outcomes)
    done;
    Sim.Engine.run eng ~until:100_000.;
    List.length (List.filter (fun x -> x) !outcomes)
  in
  (* Unthrottled: the two compilations exhaust memory together and at
     least one aborts. Throttled: the medium gateway (1 slot at 1 CPU)
     serializes the growth and both finish. *)
  Alcotest.(check bool) "unthrottled: someone aborts" true (run ~enabled:false < 2);
  Alcotest.(check int) "throttled: both complete" 2 (run ~enabled:true)

let test_gov_progress_priority () =
  (* Two compilations blocked at the big monitor: the one with more memory
     already allocated is admitted first, even though it arrived later. *)
  let { eng; gov; _ } = make_gov ~cpus:8 () in
  let order = ref [] in
  Sim.Engine.spawn eng ~name:"holder" (fun () ->
      let s = Compile_gov.begin_compile gov in
      ignore (Compile_gov.alloc s (mib 500));
      Sim.Engine.sleep 50.;
      Compile_gov.end_compile s);
  (* "small-appetite" arrives first but has allocated less. *)
  Sim.Engine.spawn eng ~name:"less-progress" ~delay:1.0 (fun () ->
      let s = Compile_gov.begin_compile gov in
      ignore (Compile_gov.alloc s (mib 100));
      Sim.Engine.sleep 5.0;
      (match Compile_gov.alloc s (mib 400) with
      | Ok () -> order := "less" :: !order
      | Error _ -> ());
      Compile_gov.end_compile s);
  Sim.Engine.spawn eng ~name:"more-progress" ~delay:2.0 (fun () ->
      let s = Compile_gov.begin_compile gov in
      ignore (Compile_gov.alloc s (mib 300));
      Sim.Engine.sleep 6.0;
      (match Compile_gov.alloc s (mib 300) with
      | Ok () -> order := "more" :: !order
      | Error _ -> ());
      Compile_gov.end_compile s);
  Sim.Engine.run_all eng;
  Alcotest.(check (list string)) "most progress first" [ "more"; "less" ]
    (List.rev !order)

(* Thresholds never invert down the ladder, whatever the broker target and
   gateway populations. *)
let prop_gov_thresholds_monotone =
  QCheck.Test.make ~name:"ladder thresholds are monotone under any target" ~count:200
    QCheck.(pair (int_range 0 4096) (list_of_size Gen.(int_range 0 3) (int_range 0 64)))
    (fun (target_mib, pops) ->
      let { eng; gov; _ } = make_gov ~cpus:8 () in
      Compile_gov.on_notification gov
        { Broker.verdict = Broker.Hold_rate; target = mib target_mib;
          predicted = mib target_mib; pressure = true };
      (* Put random populations in the lower categories. *)
      let sessions = ref [] in
      Sim.Engine.spawn eng (fun () ->
          List.iteri
            (fun level count ->
              for _ = 1 to min count 4 do
                let s = Compile_gov.begin_compile gov in
                let bytes =
                  match level with
                  | 0 -> 1024
                  | 1 -> mib 4
                  | _ -> mib 200
                in
                (match Compile_gov.alloc s bytes with Ok () | Error _ -> ());
                sessions := s :: !sessions
              done)
            pops);
      Sim.Engine.run eng ~until:10_000.;
      let t0 = Compile_gov.threshold gov 0 in
      let t1 = Compile_gov.threshold gov 1 in
      let t2 = Compile_gov.threshold gov 2 in
      List.iter Compile_gov.end_compile !sessions;
      t0 < t1 && t1 < t2)

(* Paper invariant: concurrency at each monitor never exceeds its slots,
   for random compilation workloads. *)
let prop_gov_respects_slot_limits =
  QCheck.Test.make ~name:"gateway concurrency never exceeds slots" ~count:30
    QCheck.(pair (int_range 1 4) (list_of_size Gen.(int_range 5 25) (int_range 1 400)))
    (fun (cpus, sizes) ->
      let { eng; gov; _ } = make_gov ~cpus ~total:(mib 100_000) () in
      let monitors = Compile_gov.monitors gov in
      let violated = ref false in
      let check_limits () =
        Array.iter
          (fun m -> if Monitor.in_use m > Monitor.slots m then violated := true)
          monitors
      in
      List.iteri
        (fun i size_mib ->
          Sim.Engine.spawn eng ~delay:(float_of_int (i mod 7)) (fun () ->
              let s = Compile_gov.begin_compile gov in
              let chunk = mib (max 1 (size_mib / 8)) in
              (try
                 for _ = 1 to 8 do
                   (match Compile_gov.alloc s chunk with
                   | Ok () -> ()
                   | Error _ -> raise Exit);
                   check_limits ();
                   Sim.Engine.sleep 1.0
                 done
               with Exit -> ());
              Compile_gov.end_compile s))
        sizes;
      Sim.Engine.run eng ~until:100_000.;
      check_limits ();
      (not !violated) && live_sessions gov = 0)

(* ------------------------------------------------------------------ *)
(* Arbiter *)

let claim ?(weight = 1.) ?(min_share = 0.) ?(max_share = 1.) predicted =
  { Arbiter.weight; min_share; max_share; predicted }

let test_arbiter_plan_surplus_lends_weighted () =
  (* Both pools need their 20 MiB floor; the 60 MiB surplus splits 1:3. *)
  let total = mib 100 in
  let bs =
    Arbiter.plan ~total
      [
        claim ~weight:1. ~min_share:0.2 (mib 10);
        claim ~weight:3. ~min_share:0.2 (mib 10);
      ]
  in
  Alcotest.(check (list int)) "weighted surplus" [ mib 35; mib 65 ] bs

let test_arbiter_plan_scarcity_floors () =
  (* Demand outstrips the machine: floors are untouchable, the rest is
     split by weighted unmet demand, and nothing is lost to rounding. *)
  let total = mib 100 in
  let cs =
    [
      claim ~min_share:0.3 (mib 90);
      claim ~min_share:0.5 (mib 90);
    ]
  in
  let bs = Arbiter.plan ~total cs in
  List.iter2
    (fun c b ->
      Alcotest.(check bool) "floor honoured" true
        (b >= int_of_float (c.Arbiter.min_share *. float_of_int total)))
    cs bs;
  Alcotest.(check int) "nothing wasted under scarcity" total
    (List.fold_left ( + ) 0 bs)

let test_arbiter_plan_caps () =
  (* A capped pool cannot absorb surplus past max_share even when it is
     the only one demanding memory. *)
  let bs =
    Arbiter.plan ~total:(mib 100)
      [ claim ~max_share:0.1 (mib 90); claim (mib 0) ]
  in
  Alcotest.(check int) "cap binds" (mib 10) (List.hd bs)

let prop_arbiter_plan_invariants =
  QCheck.Test.make ~name:"arbiter plan: sum <= total, floors and caps held"
    ~count:300
    QCheck.(
      pair (int_range 1 10_000)
        (list_of_size Gen.(int_range 1 8)
           (quad (int_range 1 10) (int_range 0 100) (int_range 0 100)
              (int_range 0 20_000))))
    (fun (total_mib, raw) ->
      let total = mib total_mib in
      let n = float_of_int (List.length raw) in
      let cs =
        List.map
          (fun (w, mn, span, pred) ->
            (* Normalise so the min_shares can sum to at most 1. *)
            let min_share = float_of_int mn /. 100. /. n in
            let max_share = Float.min 1. (min_share +. (float_of_int span /. 100.)) in
            claim ~weight:(float_of_int w) ~min_share ~max_share (mib pred))
          raw
      in
      let bs = Arbiter.plan ~total cs in
      List.fold_left ( + ) 0 bs <= total
      && List.for_all2
           (fun c b ->
             let fl = int_of_float (c.Arbiter.min_share *. float_of_int total) in
             let cap =
               max fl (int_of_float (c.Arbiter.max_share *. float_of_int total))
             in
             b >= fl && b <= cap)
           cs bs)

(* An arbiter over a 100 MiB machine. It ticks every 2 s, and every
   planned move below exceeds its 8 MiB deadband. *)
let make_arb () =
  let eng = Sim.Engine.create () in
  (eng, Arbiter.create eng ~total:(mib 100))

let test_arbiter_redistributes_idle_to_pressured () =
  let eng, arb = make_arb () in
  let idle =
    Arbiter.register arb ~name:"idle" ~min_share:0.2 ~budget:(mib 50)
      ~used:(fun () -> 0)
      ~set_budget:(fun _ -> ())
      ~reclaim:(fun _ -> 0)
      ()
  in
  let busy =
    Arbiter.register arb ~name:"busy" ~budget:(mib 50)
      ~used:(fun () -> mib 40)
      ~demand:(fun () -> mib 120)
      ~set_budget:(fun _ -> ())
      ~reclaim:(fun _ -> 0)
      ()
  in
  Arbiter.start arb;
  Sim.Engine.run eng ~until:11.;
  Alcotest.(check bool) "ticked" true (Arbiter.ticks arb >= 5);
  Alcotest.(check bool) "busy grew" true (Arbiter.budget busy > mib 50);
  Alcotest.(check bool) "idle lent" true (Arbiter.budget idle < mib 50);
  Alcotest.(check bool) "idle keeps its floor" true
    (Arbiter.budget idle >= Arbiter.floor_bytes idle);
  Alcotest.(check bool) "grants fit the machine" true
    (Arbiter.budget idle + Arbiter.budget busy <= Arbiter.total arb);
  Alcotest.(check bool) "moved counted" true (Arbiter.moved_bytes arb > 0);
  Alcotest.(check bool) "scarce flagged" true (Arbiter.scarce arb)

let test_arbiter_reclaim_on_shrink () =
  (* The hog sits on 60 MiB while a rival demands twice the machine: the
     hog's budget must fall below its usage and the reclaim hook must be
     asked for the difference. *)
  let eng, arb = make_arb () in
  let reclaim_asked = ref 0 in
  let hog =
    Arbiter.register arb ~name:"hog" ~min_share:0.2 ~budget:(mib 60)
      ~used:(fun () -> mib 60)
      ~set_budget:(fun _ -> ())
      ~reclaim:(fun n ->
        reclaim_asked := !reclaim_asked + n;
        n)
      ()
  in
  let _rival =
    Arbiter.register arb ~name:"rival" ~budget:(mib 40)
      ~used:(fun () -> mib 40)
      ~demand:(fun () -> mib 200)
      ~set_budget:(fun _ -> ())
      ~reclaim:(fun _ -> 0)
      ()
  in
  Arbiter.start arb;
  Sim.Engine.run eng ~until:7.;
  Alcotest.(check bool) "hog squeezed below usage" true
    (Arbiter.budget hog < mib 60);
  Alcotest.(check bool) "reclaim hook asked" true (!reclaim_asked > 0);
  Alcotest.(check int) "freed bytes counted" !reclaim_asked
    (Arbiter.reclaimed_bytes arb)

let test_arbiter_offline_lends_and_claws_back () =
  (* Shard-failure accounting: marking a pool offline strips its floor
     and cap, so the next ticks lend its whole share to the survivor
     (down to the one-byte keepalive); flipping it back online restores
     the floor. Throughout, grants never sum past the machine plus one
     keepalive byte per pool. *)
  let eng, arb = make_arb () in
  let check_sum tag a b =
    Alcotest.(check bool) tag true
      (Arbiter.budget a + Arbiter.budget b <= Arbiter.total arb + 2)
  in
  let survivor =
    Arbiter.register arb ~name:"survivor" ~min_share:0.25 ~budget:(mib 50)
      ~used:(fun () -> mib 40)
      ~demand:(fun () -> mib 200)
      ~set_budget:(fun _ -> ())
      ~reclaim:(fun _ -> 0)
      ()
  in
  let victim =
    Arbiter.register arb ~name:"victim" ~min_share:0.25 ~budget:(mib 50)
      ~used:(fun () -> mib 10)
      ~set_budget:(fun _ -> ())
      ~reclaim:(fun n -> n)
      ()
  in
  Arbiter.start arb;
  Sim.Engine.run eng ~until:5.;
  Alcotest.(check bool) "online pool keeps its floor" true
    (Arbiter.budget victim >= Arbiter.floor_bytes victim);
  check_sum "grants fit while both online" survivor victim;
  Arbiter.set_offline victim true;
  Alcotest.(check bool) "offline flag reads back" true (Arbiter.offline victim);
  Sim.Engine.run eng ~until:13.;
  Alcotest.(check bool) "down pool drained to keepalive" true
    (Arbiter.budget victim <= 1);
  Alcotest.(check bool) "survivor absorbed the share" true
    (Arbiter.budget survivor > mib 50);
  check_sum "grants fit with one pool down" survivor victim;
  Arbiter.set_offline victim false;
  Sim.Engine.run eng ~until:21.;
  Alcotest.(check bool) "rejoined pool clawed its floor back" true
    (Arbiter.budget victim >= Arbiter.floor_bytes victim);
  check_sum "grants fit after rejoin" survivor victim

let test_arbiter_register_validation () =
  let _, arb = make_arb () in
  let reg ?(min_share = 0.) ?(weight = 1.) name =
    ignore
      (Arbiter.register arb ~name ~weight ~min_share ~budget:(mib 1)
         ~used:(fun () -> 0)
         ~set_budget:(fun _ -> ())
         ~reclaim:(fun _ -> 0)
         ())
  in
  reg ~min_share:0.7 "a";
  Alcotest.check_raises "min_shares cannot oversubscribe"
    (Invalid_argument "Arbiter.register: cumulative min_share exceeds 1")
    (fun () -> reg ~min_share:0.4 "b");
  Alcotest.check_raises "weight must be positive"
    (Invalid_argument "Arbiter.register: weight must be > 0") (fun () ->
      reg ~weight:0. "c");
  Arbiter.start arb;
  Alcotest.check_raises "no registration after start"
    (Invalid_argument "Arbiter.register: arbiter already started") (fun () ->
      reg "d")

(* Property for the broker's pressure split: as long as the floors fit
   the brokered budget, every component keeps at least min_bytes and the
   targets never oversubscribe the budget. *)
let prop_broker_pressure_respects_floors =
  QCheck.Test.make ~name:"broker pressure split: floors kept, budget not oversold"
    ~count:100
    QCheck.(
      list_of_size Gen.(int_range 2 5) (pair (int_range 0 20) (int_range 1 60)))
    (fun comps ->
      let _, m, broker = make_broker ~total:(mib 100) () in
      let cs =
        List.mapi
          (fun i (min_mib, used_mib) ->
            let clerk =
              Dbmem.Manager.create_clerk m (Printf.sprintf "c%d" i)
            in
            let c =
              Broker.register broker
                ~name:(Printf.sprintf "c%d" i)
                ~clerk ~min_bytes:(mib min_mib) ()
            in
            (* Over-commit is fine for the split: demand what you like. *)
            Dbmem.Manager.alloc_exn clerk (min (mib used_mib) (Dbmem.Manager.available m));
            (c, mib min_mib))
          comps
      in
      Broker.tick broker;
      let budget = Broker.brokered_bytes broker in
      let floors = List.fold_left (fun a (_, f) -> a + f) 0 cs in
      (not (Broker.under_pressure broker))
      || floors > budget
      || List.fold_left (fun a (c, _) -> a + Broker.target c) 0 cs <= budget
         && List.for_all (fun (c, f) -> Broker.target c >= f) cs)

(* [Trend] against the fold-based [Oracle.Trend_ref], bit for bit, after
   every observation: windows that the series wraps, runs of equal times,
   and series whose times never move (a degenerate spread throughout). *)
let prop_trend_matches_reference =
  let gen =
    QCheck.Gen.(
      quad (int_range 2 8) (float_range 0. 100.) bool
        (list_size (int_range 0 24)
           (pair
              (oneof [ return 0.; float_range 0. 5. ])
              (float_range (-1e9) 1e9))))
  in
  let print =
    QCheck.Print.(quad int float bool (list (pair float float)))
  in
  QCheck.Test.make ~name:"trend slope and prediction equal the reference"
    ~count:300 (QCheck.make ~print gen)
    (fun (window, horizon, frozen, steps) ->
      let t = Trend.create ~window () in
      let r = Oracle.Trend_ref.create ~window () in
      let bits = Option.map Int64.bits_of_float in
      let agrees () =
        bits (Trend.slope t) = bits (Oracle.Trend_ref.slope r)
        && bits (Trend.predict t ~horizon)
           = bits (Oracle.Trend_ref.predict r ~horizon)
        && bits (Trend.mean t) = bits (Oracle.Trend_ref.mean r)
      in
      let time = ref 0. in
      agrees ()
      && List.for_all
           (fun (dt, v) ->
             if not frozen then time := !time +. dt;
             Trend.observe t ~time:!time v;
             Oracle.Trend_ref.observe r ~time:!time v;
             agrees ())
           steps)

(* [Broker] against the list-based [Oracle.Broker_ref], both reading the
   same clerks: one to six components with weights in (0, 3] and floors
   that sum below or above the 950 MiB budget, some with a [~demand]
   series, over ticks whose clock steps include zero. After registration
   and after every tick the targets, notifications, pressure and
   predicted total must be equal. *)
let prop_broker_matches_reference =
  let comp_gen =
    QCheck.Gen.(
      triple
        (map (fun x -> 3. -. x) (float_bound_exclusive 3.))
        (int_range 0 400) bool)
  in
  let tick_gen =
    QCheck.Gen.(
      pair
        (oneofl [ 0.; 0.5; 1.; 2.5 ])
        (list_repeat 6 (pair (int_range 0 160) (int_range 0 400))))
  in
  let gen =
    QCheck.Gen.(
      pair
        (list_size (int_range 1 6) comp_gen)
        (list_size (int_range 1 14) tick_gen))
  in
  let print =
    QCheck.Print.(
      pair (list (triple float int bool))
        (list (pair float (list (pair int int)))))
  in
  QCheck.Test.make ~name:"broker tick equals the list-based reference"
    ~count:300 (QCheck.make ~print gen)
    (fun (comps, ticks) ->
      let eng, m, broker = make_broker () in
      let r = Oracle.Broker_ref.create eng m in
      (* The demand each component reports this tick, in MiB. *)
      let demand_mib = Array.make 6 0 in
      let pairs =
        List.mapi
          (fun i (weight, min_mib, has_demand) ->
            let name = Printf.sprintf "c%d" i in
            let clerk = Dbmem.Manager.create_clerk m name in
            let min_bytes = mib min_mib in
            let demand =
              if has_demand then Some (fun () -> mib demand_mib.(i)) else None
            in
            ( clerk,
              Broker.register broker ~name ~clerk ~weight ~min_bytes ?demand (),
              Oracle.Broker_ref.register r ~name ~clerk ~weight ~min_bytes
                ?demand () ))
          comps
      in
      let agrees () =
        Broker.under_pressure broker = Oracle.Broker_ref.under_pressure r
        && Broker.predicted_total broker = Oracle.Broker_ref.predicted_total r
        && List.for_all
             (fun (_, c, rc) ->
               Broker.target c = Oracle.Broker_ref.target rc
               && Broker.last_notification c
                  = Oracle.Broker_ref.last_notification rc)
             pairs
      in
      agrees ()
      && List.for_all
           (fun (dt, levels) ->
             if dt > 0. then begin
               ignore (Sim.Engine.schedule eng ~delay:dt ignore);
               Sim.Engine.run_all eng
             end;
             let levels = Array.of_list levels in
             (* Frees before allocations, so the clerks never overrun
                the manager on the way. *)
             List.iteri
               (fun i (clerk, _, _) ->
                 let used = Dbmem.Manager.clerk_used clerk
                 and want = mib (fst levels.(i)) in
                 if want < used then Dbmem.Manager.free clerk (used - want))
               pairs;
             List.iteri
               (fun i (clerk, _, _) ->
                 let used = Dbmem.Manager.clerk_used clerk
                 and want = mib (fst levels.(i)) in
                 if want > used then Dbmem.Manager.alloc_exn clerk (want - used);
                 demand_mib.(i) <- snd levels.(i))
               pairs;
             Broker.tick broker;
             Oracle.Broker_ref.tick r;
             agrees ())
           ticks)

(* Untraced, a tick builds nothing but each component's notification and
   its [Some]: 5 + 2 words a component. 10 000 ticks of four components,
   calm and under pressure, with floors that pin two components. *)
let test_broker_tick_allocates_nothing () =
  List.iter
    (fun (label, pressure, comps) ->
      let _, m, broker = make_broker ~total:(Dbmem.Units.gib 4) () in
      List.iter
        (fun (name, used, min_bytes) ->
          let clerk = Dbmem.Manager.create_clerk m name in
          Dbmem.Manager.alloc_exn clerk used;
          ignore (Broker.register broker ~name ~clerk ~min_bytes ()))
        comps;
      Broker.tick broker;
      let minor_words_during = Test_bufpool.minor_words_during in
      let empty = minor_words_during ignore in
      Gc.minor ();
      let words =
        minor_words_during (fun () ->
            for _ = 1 to 10_000 do
              Broker.tick broker
            done)
      in
      Alcotest.(check (float 0.))
        (label ^ ": notifications only")
        (empty +. (10_000. *. 4. *. 7.))
        words;
      Alcotest.(check bool) (label ^ ": pressure") pressure
        (Broker.under_pressure broker))
    [
      ( "calm",
        false,
        List.map
          (fun name -> (name, mib 100, 0))
          [ "bufpool"; "plancache"; "compile"; "execution" ] );
      ( "pressure",
        true,
        [
          ("bufpool", mib 2400, 0);
          ("plancache", mib 300, mib 600);
          ("compile", mib 200, mib 500);
          ("execution", mib 1100, 0);
        ] );
    ]

(* A broker notification that changes the gates lands between two
   allocations of one session, with no engine event in between: the very
   next allocation must be gated by the new thresholds. Any cache of
   per-session headroom has to see it. *)
let test_gov_notification_between_allocs () =
  let { eng; gov; _ } = make_gov ~cpus:8 () in
  let notify target =
    Compile_gov.on_notification gov
      { Broker.verdict = Broker.Hold_rate; target; predicted = target;
        pressure = true }
  in
  Sim.Engine.spawn eng (fun () ->
      let s = Compile_gov.begin_compile gov in
      let events = Sim.Engine.events_executed eng in
      ignore (Compile_gov.alloc s (mib 10));
      Alcotest.(check int) "past the small gate" 1 (Compile_gov.level s);
      (* Medium gate: static 96 MiB. A 64 MiB target with one session in
         the small category lowers it to the 32 MiB floor. *)
      notify (mib 64);
      ignore (Compile_gov.alloc s (mib 30));
      Alcotest.(check int) "lowered gate taken at once" 2 (Compile_gov.level s);
      Compile_gov.end_compile s;
      (* Raising it works the same way round: 640 MiB * 0.35 / 1 =
         224 MiB, so 10 + 60 MiB stays below a gate that was 32 MiB. *)
      let s = Compile_gov.begin_compile gov in
      ignore (Compile_gov.alloc s (mib 10));
      notify (mib 640);
      ignore (Compile_gov.alloc s (mib 60));
      Alcotest.(check int) "raised gate taken at once" 1 (Compile_gov.level s);
      Compile_gov.end_compile s;
      Alcotest.(check int) "no engine event in between" events
        (Sim.Engine.events_executed eng));
  Sim.Engine.run_all eng

(* The metered fast path allocates nothing: 10 000 allocations below the
   first gate, and 10 000 more between a dynamic second gate and the
   first, move the minor-heap counter no more than an empty window. *)
let test_gov_alloc_allocates_nothing () =
  let { eng; gov; _ } = make_gov ~cpus:8 () in
  Compile_gov.on_notification gov
    { Broker.verdict = Broker.Hold_rate; target = mib 640;
      predicted = mib 640; pressure = true };
  let allocs s () =
    for _ = 1 to 10_000 do
      match Compile_gov.alloc s 1 with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "alloc refused"
    done
  in
  Sim.Engine.spawn eng (fun () ->
      let s = Compile_gov.begin_compile gov in
      let minor_words_during = Test_bufpool.minor_words_during in
      let empty = minor_words_during ignore in
      Alcotest.(check (float 0.)) "below the first gate" empty
        (minor_words_during (allocs s));
      Alcotest.(check int) "no gate taken" 0 (Compile_gov.level s);
      ignore (Compile_gov.alloc s (mib 10));
      Alcotest.(check (float 0.)) "below a dynamic gate" empty
        (minor_words_during (allocs s));
      Alcotest.(check int) "small gate held" 1 (Compile_gov.level s);
      Compile_gov.end_compile s);
  Sim.Engine.run_all eng

(* [Compile_gov.threshold] is the paper's [target * F / S] rule folded
   down the ladder. Checked against that fold written with [Stdlib.max]
   and [min], on random ladders (clamps in either order), targets
   (non-positive included) and populations (empty levels included),
   after every call that moves a target or a population. *)
let ref_threshold (config : Throttle_config.t) ~target ~population i =
  let levels = Array.of_list config.Throttle_config.levels in
  let value j =
    let l = levels.(j) in
    if j = 0 || (not config.Throttle_config.dynamic) || target <= 0 then
      l.Throttle_config.base_threshold
    else begin
      let s = Stdlib.max 1 (population j) in
      let raw =
        int_of_float
          (float_of_int target *. l.Throttle_config.fraction
          /. float_of_int s)
      in
      Stdlib.min l.Throttle_config.max_threshold
        (Stdlib.max l.Throttle_config.min_threshold raw)
    end
  in
  List.fold_left
    (fun thr j -> Stdlib.max (value j) (2 * thr))
    (value 0)
    (List.init i (fun j -> j + 1))

(* One step of the governor's life: a compile begins, a live session
   allocates (and so may promote), a live session ends, or the broker
   notifies a new target. Session indices wrap over the live sessions. *)
type gov_op = Begin | Alloc of int * int | End of int | Notify of int

let prop_gov_threshold_matches_reference =
  let level_gen =
    QCheck.Gen.(
      triple (int_range 1 200) (float_range 0.01 1.5)
        (pair (int_range 0 2048) (int_range 0 2048)))
  in
  let op_gen =
    QCheck.Gen.(
      frequency
        [
          (3, return Begin);
          (4, map2 (fun i n -> Alloc (i, n)) nat (int_range 0 1500));
          (2, map (fun i -> End i) nat);
          (1, map (fun n -> Notify n) (int_range (-64) 4096));
        ])
  in
  let gen =
    QCheck.Gen.(
      quad bool
        (list_size (int_range 1 4) level_gen)
        (int_range (-64) 4096)
        (list_size (int_range 0 30) op_gen))
  in
  QCheck.Test.make ~name:"gov threshold equals the reference fold" ~count:200
    (QCheck.make gen)
    (fun (dynamic, steps, target_mib, ops) ->
      let base = ref 0 in
      let levels =
        List.mapi
          (fun i (step, fraction, (lo, hi)) ->
            base := !base + mib step;
            {
              Throttle_config.lname = Printf.sprintf "l%d" i;
              base_threshold = !base;
              slots = Throttle_config.Total 64;
              timeout = 100.;
              fraction;
              min_threshold = mib lo;
              max_threshold = mib hi;
            })
          steps
      in
      let config = { Throttle_config.levels; dynamic } in
      let { eng; gov; _ } =
        make_gov ~total:(1 lsl 50) ~cpus:4 ~config ()
      in
      let target = ref 0 in
      let notify target_mib =
        target := mib target_mib;
        Compile_gov.on_notification gov
          { Broker.verdict = Broker.Hold_rate; target = !target;
            predicted = 0; pressure = false }
      in
      let agrees () =
        List.for_all
          (fun i ->
            Compile_gov.threshold gov i
            = ref_threshold config ~target:!target
                ~population:(Compile_gov.population gov) i)
          (List.init (List.length levels) Fun.id)
      in
      let ok = ref (agrees ()) in
      notify target_mib;
      ok := !ok && agrees ();
      let live = ref [] in
      let nth i = List.nth !live (i mod List.length !live) in
      Sim.Engine.spawn eng (fun () ->
          List.iter
            (fun op ->
              (match op with
              | Begin -> live := Compile_gov.begin_compile gov :: !live
              | Alloc (i, size) when !live <> [] ->
                  ignore (Compile_gov.alloc (nth i) (mib size))
              | End i when !live <> [] ->
                  let s = nth i in
                  Compile_gov.end_compile s;
                  live := List.filter (fun s' -> s' != s) !live
              | Alloc _ | End _ -> ()
              | Notify n -> notify n);
              ok := !ok && agrees ())
            ops);
      Sim.Engine.run_all eng;
      List.iter Compile_gov.end_compile !live;
      !ok && agrees ())

let suite =
  [
    ("trend linear series", `Quick, test_trend_linear_series);
    ("trend window slides", `Quick, test_trend_window_slides);
    ("trend prediction clamped", `Quick, test_trend_prediction_clamped);
    ("trend single sample", `Quick, test_trend_single_sample);
    ("trend empty", `Quick, test_trend_empty);
    ("trend constant series", `Quick, test_trend_constant_series);
    ("trend decreasing series", `Quick, test_trend_decreasing_series);
    ("trend two samples minimum", `Quick, test_trend_two_samples_minimum);
    ("trend backwards time rejected", `Quick, test_trend_backwards_time_rejected);
    ("broker no pressure no action", `Quick, test_broker_no_pressure_no_action);
    ("broker detects pressure from trend", `Quick, test_broker_detects_pressure_from_trend);
    ("broker targets within budget", `Quick, test_broker_targets_sum_within_budget);
    ("broker shrink verdict", `Quick, test_broker_shrink_verdict);
    ("broker min bytes floor", `Quick, test_broker_min_bytes_floor);
    ("broker notify callback", `Quick, test_broker_notify_callback_runs);
    ("broker hold-rate prediction", `Quick, test_broker_hold_rate_verdict);
    ("monitor wait stats", `Quick, test_monitor_wait_stats);
    ("broker periodic ticks", `Quick, test_broker_periodic_ticks);
    ("broker tick allocates nothing", `Quick, test_broker_tick_allocates_nothing);
    ("config default valid", `Quick, test_config_default_valid);
    ("config paper slot counts", `Quick, test_config_paper_slot_counts);
    ("config monotone thresholds", `Quick, test_config_monotone_thresholds);
    ("config invalid rejected", `Quick, test_config_invalid_rejected);
    ("dynamic threshold formula", `Quick, test_dynamic_threshold_formula);
    ("monitor blocks over slots", `Quick, test_monitor_blocks_over_slots);
    ("monitor timeout", `Quick, test_monitor_timeout);
    ("gov small query unthrottled", `Quick, test_gov_small_query_unthrottled);
    ("gov credit", `Quick, test_gov_credit);
    ("gov crossing thresholds", `Quick, test_gov_crossing_thresholds_acquires_monitors);
    ("gov population accounting", `Quick, test_gov_population_accounting);
    ("gov big serialized", `Quick, test_gov_big_serialized);
    ("gov timeout error", `Quick, test_gov_timeout_error);
    ("gov disabled never blocks", `Quick, test_gov_disabled_never_blocks);
    ("gov oom propagates", `Quick, test_gov_oom_propagates);
    ("gov memory freed on end", `Quick, test_gov_memory_freed_on_end);
    ("gov partial free", `Quick, test_gov_partial_free);
    ("gov dynamic threshold from broker", `Quick, test_gov_dynamic_threshold_from_broker);
    ("gov stop early signal", `Quick, test_gov_stop_early_signal);
    ("gov stop early requires enabled", `Quick, test_gov_stop_early_requires_enabled);
    ("gov progress priority", `Quick, test_gov_progress_priority);
    ("gov prevents mutual starvation", `Quick, test_gov_prevents_mutual_starvation);
    ("gov notification between allocs", `Quick, test_gov_notification_between_allocs);
    ("gov alloc allocates nothing", `Quick, test_gov_alloc_allocates_nothing);
    ("arbiter plan surplus weighted", `Quick, test_arbiter_plan_surplus_lends_weighted);
    ("arbiter plan scarcity floors", `Quick, test_arbiter_plan_scarcity_floors);
    ("arbiter plan caps", `Quick, test_arbiter_plan_caps);
    ("arbiter redistributes idle to pressured", `Quick, test_arbiter_redistributes_idle_to_pressured);
    ("arbiter reclaim on shrink", `Quick, test_arbiter_reclaim_on_shrink);
    ("arbiter register validation", `Quick, test_arbiter_register_validation);
    ("arbiter offline lends and claws back", `Quick, test_arbiter_offline_lends_and_claws_back);
    QCheck_alcotest.to_alcotest prop_arbiter_plan_invariants;
    QCheck_alcotest.to_alcotest prop_broker_pressure_respects_floors;
    QCheck_alcotest.to_alcotest prop_trend_slope_recovers_line;
    QCheck_alcotest.to_alcotest prop_trend_matches_reference;
    QCheck_alcotest.to_alcotest prop_broker_matches_reference;
    QCheck_alcotest.to_alcotest prop_gov_respects_slot_limits;
    QCheck_alcotest.to_alcotest prop_gov_thresholds_monotone;
    QCheck_alcotest.to_alcotest prop_gov_threshold_matches_reference;
  ]
