(* Health tests: unit tests for the error taxonomy, the circuit breaker
   state machine and backoff edges; a compile held at a gateway (metering
   by credit, the stuck count); integration tests on the canonical chaos
   scenario (accounting, golden health report); and a QCheck property
   over fuzzed fault schedules, with resilience on and off (no query is
   ever permanently stuck, every failure carries a code, nothing
   leaks). *)

(* Advance the engine's virtual clock by [dt] even when no model events
   are pending: park a no-op at the target time so [run] reaches it. *)
let advance eng dt =
  let target = Sim.Engine.now eng +. dt in
  ignore (Sim.Engine.schedule eng ~delay:dt (fun () -> ()));
  Sim.Engine.run eng ~until:target

(* ------------------------------------------------------------------ *)
(* Error taxonomy *)

let test_error_taxonomy () =
  let open Health.Error in
  Alcotest.(check (option int)) "701" (Some 701) (sql_code Insufficient_memory);
  Alcotest.(check (option int)) "8645" (Some 8645) (sql_code Memory_wait_timeout);
  Alcotest.(check (option int)) "8651" (Some 8651) (sql_code Low_memory_condition);
  Alcotest.(check (option int)) "refusals have no SQL code" None
    (sql_code Shard_unavailable);
  (* Severity drives hard-error accounting: back-pressure refusals are
     informational and never count as failures of the engine. *)
  List.iter
    (fun c -> Alcotest.(check bool) (code_name c) true (severity c = Severe))
    [ Insufficient_memory; Memory_wait_timeout; Low_memory_condition ];
  List.iter
    (fun c ->
      Alcotest.(check bool) (code_name c) true (severity c = Informational);
      Alcotest.(check bool) (code_name c) false (Server.Metrics.is_hard_error c))
    [ Shard_unavailable; Retry_budget_exhausted ];
  (* Resource waits are worth a resubmit. *)
  Alcotest.(check bool) "8645 retryable" true (retryable Memory_wait_timeout);
  Alcotest.(check string) "rendering with detail" "8645 memory-wait-timeout (big)"
    (to_string (make ~detail:"big" Memory_wait_timeout));
  Alcotest.(check string) "rendering without detail" "701 insufficient-memory"
    (to_string (make Insufficient_memory));
  Alcotest.(check string) "rendering without SQL code" "shard-unavailable (s1)"
    (to_string (make ~detail:"s1" Shard_unavailable));
  (* A shard-down refusal is routing back-pressure: retryable against a
     surviving shard. *)
  Alcotest.(check bool) "shard-unavailable retryable" true
    (retryable Shard_unavailable);
  (* An exhausted retry budget is back-pressure (info, not an engine
     failure) but deliberately NOT retryable: the whole point is that the
     client fails fast instead of feeding the storm. *)
  Alcotest.(check bool) "budget-exhausted is info" true
    (severity Retry_budget_exhausted = Informational);
  Alcotest.(check bool) "budget-exhausted not retryable" false
    (retryable Retry_budget_exhausted);
  Alcotest.(check int) "taxonomy is complete" (List.length all_codes) 5

(* ------------------------------------------------------------------ *)
(* Circuit breaker state machine *)

let breaker_state = Alcotest.testable
    (Fmt.of_to_string Health.Breaker.state_name)
    (fun a b -> a = b)

let test_breaker_lifecycle () =
  let eng = Sim.Engine.create ~seed:1 () in
  let b =
    Health.Breaker.create eng
  in
  let state key = Health.Breaker.state b ~key in
  (* Fresh key: closed, admits. *)
  Alcotest.check breaker_state "unknown key closed" Health.Breaker.Closed (state "T1");
  Alcotest.(check bool) "closed admits" true (Health.Breaker.admit b ~key:"T1");
  (* Two failures: still below the threshold. *)
  Health.Breaker.record_failure b ~key:"T1";
  Health.Breaker.record_failure b ~key:"T1";
  Alcotest.check breaker_state "below threshold" Health.Breaker.Closed (state "T1");
  (* A success resets the streak: two more failures still do not trip. *)
  Health.Breaker.record_success b ~key:"T2";
  Health.Breaker.record_failure b ~key:"T2";
  Health.Breaker.record_failure b ~key:"T2";
  Health.Breaker.record_success b ~key:"T2";
  Health.Breaker.record_failure b ~key:"T2";
  Health.Breaker.record_failure b ~key:"T2";
  Alcotest.check breaker_state "success resets the streak" Health.Breaker.Closed (state "T2");
  (* Third consecutive failure trips T1 open; arrivals are refused. *)
  Health.Breaker.record_failure b ~key:"T1";
  Alcotest.check breaker_state "tripped" Health.Breaker.Open (state "T1");
  Alcotest.(check bool) "open breaker refuses" false
    (Health.Breaker.admit b ~key:"T1");
  (* Cooldown expiry is lazy: after 60 s the breaker reports half-open and
     admits exactly one probe. *)
  advance eng 60.;
  Alcotest.check breaker_state "half-open after cooldown" Health.Breaker.Half_open (state "T1");
  Alcotest.(check bool) "probe admitted" true (Health.Breaker.admit b ~key:"T1");
  Alcotest.(check bool) "second concurrent probe refused" false
    (Health.Breaker.admit b ~key:"T1");
  (* Probe success closes. *)
  Health.Breaker.record_success b ~key:"T1";
  Alcotest.check breaker_state "closed after probe success" Health.Breaker.Closed (state "T1");
  (* Probe failure re-trips for another full cooldown. *)
  Health.Breaker.record_failure b ~key:"T1";
  Health.Breaker.record_failure b ~key:"T1";
  Health.Breaker.record_failure b ~key:"T1";
  advance eng 60.;
  Alcotest.(check bool) "second probe admitted" true
    (Health.Breaker.admit b ~key:"T1");
  Health.Breaker.record_failure b ~key:"T1";
  Alcotest.check breaker_state "probe failure re-trips" Health.Breaker.Open (state "T1");
  Alcotest.check breaker_state "for a full cooldown" Health.Breaker.Open
    (advance eng 59.;
     state "T1");
  (* Late success from a query admitted before the trip is ignored. *)
  Health.Breaker.record_success b ~key:"T1";
  Alcotest.check breaker_state "late success ignored while open" Health.Breaker.Open (state "T1")

(* A half-open probe that never ran (refused downstream) — releasing it
   must return the probe slot without re-tripping, and the next arrival
   becomes the new probe. *)
let test_breaker_probe_shed () =
  let eng = Sim.Engine.create ~seed:1 () in
  let b =
    Health.Breaker.create eng
  in
  let state key = Health.Breaker.state b ~key in
  for _ = 1 to 3 do
    Health.Breaker.record_failure b ~key:"T"
  done;
  Alcotest.check breaker_state "tripped" Health.Breaker.Open (state "T");
  advance eng 60.;
  Alcotest.(check bool) "probe admitted" true (Health.Breaker.admit b ~key:"T");
  Health.Breaker.release_probe b ~key:"T";
  Alcotest.check breaker_state "shed is not a failure: still half-open"
    Health.Breaker.Half_open (state "T");
  Alcotest.(check bool) "next arrival becomes the probe" true
    (Health.Breaker.admit b ~key:"T");
  Health.Breaker.record_success b ~key:"T";
  Alcotest.check breaker_state "recovers through the replacement probe"
    Health.Breaker.Closed (state "T");
  (* Releasing with no probe out, or for an unseen key, is a no-op. *)
  Health.Breaker.release_probe b ~key:"T";
  Health.Breaker.release_probe b ~key:"never-seen";
  Alcotest.check breaker_state "release is a no-op when closed" Health.Breaker.Closed
    (state "T")

(* ------------------------------------------------------------------ *)
(* A compile held at a gateway

   A holder session takes the one gateway's slot at t = 0 and keeps it
   until [hold]. The query's first allocation, the memo root, waits at
   the gate from t = 1 and goes on when the gate opens. The traced run
   meters each allocation in its own call (the governor grants no
   credit while tracing) and the untraced one meters by credit, so both
   must end the compile at the same point: the same result, compile
   peak and finishing time. The health report is also read halfway
   through the hold, while the query is still in flight, and once the
   run has ended. *)

let held_compile ~hold ~traced () =
  let eng = Sim.Engine.create () in
  let gate =
    {
      Qcore.Throttle_config.lname = "only";
      base_threshold = 16 * 1024;
      slots = Qcore.Throttle_config.Total 1;
      timeout = 2000.;
      fraction = 1.;
      min_threshold = 16 * 1024;
      max_threshold = 16 * 1024;
    }
  in
  let cfg =
    {
      (Server.Config.resilient ()) with
      Server.Config.throttle = { Qcore.Throttle_config.levels = [ gate ]; dynamic = false };
    }
  in
  let trace =
    if traced then Obs.Trace.create ~capacity:(1 lsl 16) () else Obs.Trace.null
  in
  let dbms = Server.Dbms.create ~trace eng cfg (Workload.Sales.catalog ()) in
  Server.Dbms.start dbms;
  let gov = Server.Dbms.governor dbms in
  let stuck () = Health.Report.stuck (Server.Dbms.health_report dbms ()) in
  Sim.Engine.spawn eng ~name:"holder" (fun () ->
      let s = Qcore.Compile_gov.begin_compile gov in
      ignore (Qcore.Compile_gov.alloc s (Dbmem.Units.mib 8));
      Sim.Engine.sleep (hold -. Sim.Engine.now eng);
      Qcore.Compile_gov.end_compile s);
  let outcome = ref "unfinished" and finished = ref Float.nan in
  Sim.Engine.spawn eng ~name:"query" ~delay:1. (fun () ->
      let t = List.hd (Workload.Sales.templates ()) in
      let q = Workload.Template.instance (Sim.Rng.create 5) t ~id:1 in
      (outcome :=
         match Server.Dbms.submit dbms q with
         | Ok () -> "ok"
         | Error e -> Health.Error.to_string e);
      finished := Sim.Engine.now eng);
  let stuck_mid = ref (-1) in
  ignore
    (Sim.Engine.schedule eng ~delay:(hold /. 2.) (fun () -> stuck_mid := stuck ()));
  Sim.Engine.run eng ~until:(hold +. 3000.);
  ( !outcome,
    Sim.Stats.Online.max (Server.Metrics.compile_peak (Server.Dbms.metrics dbms)),
    !finished,
    (!stuck_mid, stuck ()) )

let test_held_compile_credit () =
  let hold = 400. in
  let ((got, _, finished, _) as untraced) = held_compile ~hold ~traced:false () in
  let per_call = held_compile ~hold ~traced:true () in
  Alcotest.(check string) "outcome" "ok" got;
  Alcotest.(check bool) "finished once the gate opened" true (finished >= hold);
  Alcotest.(check bool) "credit ends the compile where per-call metering does"
    true (untraced = per_call)

(* [stuck] counts what was submitted and has not settled: the held query
   while the gate is shut, nothing once it is done. *)
let test_stuck_counts_in_flight () =
  let got, _, _, (mid, after) = held_compile ~hold:400. ~traced:false () in
  Alcotest.(check string) "outcome" "ok" got;
  Alcotest.(check int) "stuck while held" 1 mid;
  Alcotest.(check int) "stuck once settled" 0 after

(* ------------------------------------------------------------------ *)
(* Backoff edge cases (satellite fix) *)

let test_backoff_edges () =
  let pol = { Server.Resilience.base_s = 10.; jitter_frac = 0. } in
  let cap = Server.Resilience.backoff_max_s in
  let rng = Sim.Rng.create 3 in
  let b p attempt = Server.Resilience.backoff p ~attempt ~rng in
  Alcotest.(check (float 1e-9)) "attempt 1 = base" 10. (b pol 1);
  Alcotest.(check (float 1e-9)) "attempt 0 clamps to base" 10. (b pol 0);
  Alcotest.(check (float 1e-9)) "negative attempt clamps to base" 10. (b pol (-7));
  Alcotest.(check (float 1e-9)) "doubles per attempt" 80. (b pol 4);
  Alcotest.(check (float 1e-9)) "capped at backoff_max" cap (b pol 20);
  (* A hand-built curve with negative jitter must never sleep backwards. *)
  let neg = { pol with Server.Resilience.jitter_frac = -1.0 } in
  Alcotest.(check (float 1e-9)) "negative jitter ignored" 10. (b neg 1);
  (* Nor can a negative base produce a negative sleep. *)
  let broken = { pol with Server.Resilience.base_s = -5. } in
  Alcotest.(check (float 1e-9)) "negative base clamps to 0" 0. (b broken 1);
  (* Positive jitter stays within its advertised span. *)
  let jit = { pol with Server.Resilience.jitter_frac = 0.5 } in
  for attempt = 1 to 32 do
    let v = b jit attempt in
    let base = Float.min cap (10. *. (2. ** float_of_int (attempt - 1))) in
    if v < base || v >= base *. 1.5 then
      Alcotest.failf "jittered backoff %g outside [%g, %g)" v base (base *. 1.5)
  done

(* ------------------------------------------------------------------ *)
(* Integration: on the canonical chaos schedule the resilient server
   drains clean — nothing is stuck — and the taxonomy accounts for every
   client-visible failure. *)

(* The canonical chaos run with resilience on at seed 42, shared by the
   accounting test and the golden report. *)
let canonical =
  lazy
    (let s = Server.Scenario.default in
     Server.Experiment.run
       ~config:
         { (Server.Config.resilient ()) with
           Server.Config.faults = Server.Scenario.faults s }
       ~client_config:
         { Workload.Client.default_config with
           Workload.Client.think_mean = s.think }
       ~seed:42 ~clients:s.clients ~warmup:s.warmup ~measure:s.measure
       ~drain:s.drain ~slice:s.slice ())

let test_supervised_throughput () =
  let o = Lazy.force canonical in
  let r = o.Server.Experiment.health in
  Alcotest.(check bool) "queries completed" true (o.Server.Experiment.total_completed > 0);
  Alcotest.(check int) "no query permanently stuck" 0 (Health.Report.stuck r);
  (* Every failed client attempt returned a coded error: the client books
     and the error budget must agree exactly. *)
  let st = o.Server.Experiment.client_stats in
  Alcotest.(check int) "every failure carries a taxonomy code"
    (st.Workload.Client.attempts - st.Workload.Client.succeeded)
    (Health.Report.total_errors r)

(* ------------------------------------------------------------------ *)
(* QCheck property: fuzzed fault schedules, each under [config]. After
   the faults clear and the load drains, nothing may be stuck or leaked,
   and every failed attempt must carry a taxonomy code. *)

let check_drains_clean config seed =
  let faults = Test_fuzz.schedule_of_seed seed in
  List.iter Faultsim.Fault.validate faults;
  (* schedule_of_seed windows all end by ~350 s; clients stop at 400 and
     the drain runs to 1200, far past any retry/backoff tail. *)
  let measure = 400. and drain = 800. in
  let dbms, st, _ =
    Server.Experiment.load { config with Server.Config.faults; seed }
      (Workload.Sales.catalog ())
      ~templates:(Workload.Sales.templates ())
      ~client_config:
        { Workload.Client.default_config with Workload.Client.think_mean = 50. }
      ~clients:8 ~stop:measure
  in
  Sim.Engine.run (Server.Dbms.engine dbms) ~until:(measure +. drain);
  let r = Server.Dbms.health_report dbms () in
  if Health.Report.stuck r <> 0 then
    Alcotest.failf "seed %d: %d queries permanently stuck" seed
      (Health.Report.stuck r);
  (* Taxonomy completeness: client books = error budget. *)
  if st.Workload.Client.attempts - st.Workload.Client.succeeded
     <> Health.Report.total_errors r
  then
    Alcotest.failf "seed %d: %d failed attempts but %d coded errors" seed
      (st.Workload.Client.attempts - st.Workload.Client.succeeded)
      (Health.Report.total_errors r);
  (* Nothing leaked: gateway monitors balanced, transient clerks empty. *)
  Array.iter
    (fun m ->
      if Qcore.Monitor.acquires m <> Qcore.Monitor.releases m then
        Alcotest.failf "seed %d: monitor %s: %d acquires vs %d releases" seed
          (Qcore.Monitor.name m) (Qcore.Monitor.acquires m)
          (Qcore.Monitor.releases m);
      if Qcore.Monitor.in_use m <> 0 then
        Alcotest.failf "seed %d: monitor %s still holds %d" seed
          (Qcore.Monitor.name m) (Qcore.Monitor.in_use m))
    (Qcore.Compile_gov.monitors (Server.Dbms.governor dbms));
  List.iter
    (fun name ->
      match List.assoc_opt name (Server.Dbms.clerks dbms) with
      | None -> ()
      | Some clerk ->
          if Dbmem.Manager.clerk_used clerk <> 0 then
            Alcotest.failf "seed %d: clerk %s not drained (%d bytes)" seed name
              (Dbmem.Manager.clerk_used clerk))
    [ "compile"; "execution"; "ballast" ]

(* Every fuzzed schedule runs twice, with resilience on and off: with
   or without the retry ladder, every query must settle and drain. *)
let prop_chaos_drains_clean =
  QCheck.Test.make ~name:"chaos runs drain clean" ~count:20
    QCheck.(int_range 0 10_000)
    (fun seed ->
      check_drains_clean (Server.Config.resilient ()) seed;
      check_drains_clean (Server.Config.default ()) seed;
      true)

(* ------------------------------------------------------------------ *)
(* Golden expect test: the canonical fixed-seed chaos scenario's health
   report, byte for byte — exactly what [dbsim health] prints. *)

let report_string r = Format.asprintf "%a@." Health.Report.pp r

let test_health_report_golden () =
  let got = report_string (Lazy.force canonical).Server.Experiment.health in
  let expected = Test_trace.read_file (Test_trace.golden_path "health_report.golden") in
  if got <> expected then (
    let oc = open_out "health_report.actual" in
    output_string oc got;
    close_out oc;
    Alcotest.failf
      "health report diverges from golden (%d vs %d bytes); actual report \
       written to health_report.actual"
      (String.length got) (String.length expected))

let suite =
  [
    ("error taxonomy", `Quick, test_error_taxonomy);
    ("breaker lifecycle", `Quick, test_breaker_lifecycle);
    ("breaker probe shed is not a failure", `Quick, test_breaker_probe_shed);
    ("held compile: credit ends where per-call metering does", `Quick,
     test_held_compile_credit);
    ("stuck counts queries still in flight", `Quick, test_stuck_counts_in_flight);
    ("backoff edge cases", `Quick, test_backoff_edges);
    ("supervised throughput and accounting", `Slow, test_supervised_throughput);
    QCheck_alcotest.to_alcotest prop_chaos_drains_clean;
    ("health report matches golden", `Slow, test_health_report_golden);
  ]
