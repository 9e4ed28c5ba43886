(* Supervision-layer tests: unit tests for the error taxonomy, circuit
   breakers and backoff edges; integration
   tests on the canonical chaos scenario (breakers trip and recover,
   supervised throughput, golden health report); and a QCheck property
   over fuzzed fault schedules (no query is ever permanently stuck, the
   breaker books balance, and every tripped breaker closes once calm
   traffic probes it). *)

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
  Alcotest.(check (option int)) "sheds have no SQL code" None (sql_code Admission_shed);
  (* Severity drives hard-error accounting: back-pressure refusals are
     informational and must never trip a breaker. *)
  List.iter
    (fun c -> Alcotest.(check bool) (code_name c) true (severity c = Severe))
    [ Insufficient_memory; Memory_wait_timeout; Low_memory_condition ];
  List.iter
    (fun c ->
      Alcotest.(check bool) (code_name c) true (severity c = Informational);
      Alcotest.(check bool) (code_name c) false (Server.Metrics.is_hard_error c))
    [ Admission_shed; Breaker_open; Shard_unavailable ];
  (* Resource waits are worth a resubmit. *)
  Alcotest.(check bool) "8645 retryable" true (retryable Memory_wait_timeout);
  Alcotest.(check string) "rendering with detail" "8645 memory-wait-timeout (big)"
    (to_string (make ~detail:"big" Memory_wait_timeout));
  Alcotest.(check string) "rendering without detail" "701 insufficient-memory"
    (to_string (make Insufficient_memory));
  Alcotest.(check string) "rendering without SQL code" "admission-shed (admission)"
    (to_string (make ~detail:"admission" Admission_shed));
  (* A shard-down refusal is routing back-pressure: retryable against a
     surviving shard, never a breaker-tripping failure. *)
  Alcotest.(check bool) "shard-unavailable retryable" true
    (retryable Shard_unavailable);
  (* An exhausted retry budget is back-pressure (info, not an engine
     failure) but deliberately NOT retryable: the whole point is that the
     client fails fast instead of feeding the storm. *)
  Alcotest.(check bool) "budget-exhausted is info" true
    (severity Retry_budget_exhausted = Informational);
  Alcotest.(check bool) "budget-exhausted not retryable" false
    (retryable Retry_budget_exhausted);
  Alcotest.(check int) "taxonomy is complete" (List.length all_codes) 7

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
  let state tpl = Health.Breaker.state b ~template:tpl in
  (* Fresh template: closed, admits. *)
  Alcotest.check breaker_state "unknown template closed" Health.Breaker.Closed (state "T1");
  Alcotest.(check bool) "closed admits" true
    (Result.is_ok (Health.Breaker.admit b ~template:"T1"));
  (* Two failures: still below the threshold. *)
  Health.Breaker.record_failure b ~template:"T1";
  Health.Breaker.record_failure b ~template:"T1";
  Alcotest.check breaker_state "below threshold" Health.Breaker.Closed (state "T1");
  (* A success resets the streak: two more failures still do not trip. *)
  Health.Breaker.record_success b ~template:"T2";
  Health.Breaker.record_failure b ~template:"T2";
  Health.Breaker.record_failure b ~template:"T2";
  Health.Breaker.record_success b ~template:"T2";
  Health.Breaker.record_failure b ~template:"T2";
  Health.Breaker.record_failure b ~template:"T2";
  Alcotest.check breaker_state "success resets the streak" Health.Breaker.Closed (state "T2");
  (* Third consecutive failure trips T1 open; arrivals are refused with a
     structured error naming the template. *)
  Health.Breaker.record_failure b ~template:"T1";
  Alcotest.check breaker_state "tripped" Health.Breaker.Open (state "T1");
  Alcotest.(check int) "one open" 1 (Health.Breaker.opened_total b);
  (match Health.Breaker.admit b ~template:"T1" with
  | Error { Health.Error.code = Health.Error.Breaker_open; detail } ->
      Alcotest.(check string) "refusal names the template" "T1" detail
  | _ -> Alcotest.fail "open breaker admitted a query");
  (* Cooldown expiry is lazy: after 60 s the breaker reports half-open and
     admits exactly one probe. *)
  advance eng 60.;
  Alcotest.check breaker_state "half-open after cooldown" Health.Breaker.Half_open (state "T1");
  Alcotest.(check bool) "probe admitted" true
    (Result.is_ok (Health.Breaker.admit b ~template:"T1"));
  Alcotest.(check bool) "second concurrent probe refused" true
    (Result.is_error (Health.Breaker.admit b ~template:"T1"));
  (* Probe success closes. *)
  Health.Breaker.record_success b ~template:"T1";
  Alcotest.check breaker_state "closed after probe success" Health.Breaker.Closed (state "T1");
  Alcotest.(check int) "one close" 1 (Health.Breaker.closed_total b);
  Alcotest.(check (list (pair string breaker_state))) "no breaker left non-closed" []
    (Health.Breaker.states b);
  (* Probe failure re-trips for another full cooldown. *)
  Health.Breaker.record_failure b ~template:"T1";
  Health.Breaker.record_failure b ~template:"T1";
  Health.Breaker.record_failure b ~template:"T1";
  advance eng 60.;
  Alcotest.(check bool) "second probe admitted" true
    (Result.is_ok (Health.Breaker.admit b ~template:"T1"));
  Health.Breaker.record_failure b ~template:"T1";
  Alcotest.check breaker_state "probe failure re-trips" Health.Breaker.Open (state "T1");
  Alcotest.(check int) "three opens total" 3 (Health.Breaker.opened_total b);
  Alcotest.(check int) "one of them a re-trip" 1 (Health.Breaker.reopened_total b);
  Alcotest.(check (list (pair string breaker_state))) "states lists the open breaker"
    [ ("T1", Health.Breaker.Open) ]
    (Health.Breaker.states b);
  (* Late success from a query admitted before the trip is ignored. *)
  Health.Breaker.record_success b ~template:"T1";
  Alcotest.check breaker_state "late success ignored while open" Health.Breaker.Open (state "T1")

(* Supervision off is inert: no timer, no booked template, whatever the
   server reports to it. *)
let test_supervise_off_is_inert () =
  let eng = Sim.Engine.create ~seed:1 () in
  let trace = Obs.Trace.create () in
  let s = Health.Supervise.create ~trace eng ~enabled:false in
  for _ = 1 to 10 do
    Health.Supervise.record_failure s ~template:"t"
  done;
  Alcotest.(check bool) "admits" true (Health.Supervise.admit s ~template:"t" = Ok ());
  Health.Supervise.release_probe s ~template:"t";
  Health.Supervise.record_success s ~template:"t";
  Sim.Engine.run eng ~until:3600.;
  Alcotest.(check int) "no timer fired" 0 (Sim.Engine.events_executed eng);
  Alcotest.(check int) "no trace record" 0 (Obs.Trace.length trace);
  Alcotest.(check int) "no breaker opened" 0
    (Health.Breaker.opened_total s.Health.Supervise.breakers)

(* A half-open probe that gets shed by downstream admission control never
   ran — releasing it must return the probe slot without re-tripping, and
   the next arrival becomes the new probe. *)
let test_breaker_probe_shed () =
  let eng = Sim.Engine.create ~seed:1 () in
  let b =
    Health.Breaker.create eng
  in
  let state tpl = Health.Breaker.state b ~template:tpl in
  for _ = 1 to 3 do
    Health.Breaker.record_failure b ~template:"T"
  done;
  Alcotest.check breaker_state "tripped" Health.Breaker.Open (state "T");
  advance eng 60.;
  Alcotest.(check bool) "probe admitted" true
    (Result.is_ok (Health.Breaker.admit b ~template:"T"));
  Health.Breaker.release_probe b ~template:"T";
  Alcotest.check breaker_state "shed probe leaves half-open" Health.Breaker.Half_open
    (state "T");
  Alcotest.(check int) "shed is not a failure: no re-trip" 1
    (Health.Breaker.opened_total b);
  Alcotest.(check bool) "next arrival becomes the probe" true
    (Result.is_ok (Health.Breaker.admit b ~template:"T"));
  Health.Breaker.record_success b ~template:"T";
  Alcotest.check breaker_state "recovers through the replacement probe"
    Health.Breaker.Closed (state "T");
  (* Releasing with no probe out, or for an unseen template, is a no-op. *)
  Health.Breaker.release_probe b ~template:"T";
  Health.Breaker.release_probe b ~template:"never-seen";
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

let held_compile ?(supervised = true) ~hold ~traced () =
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
      (Server.Config.supervised ()) with
      Server.Config.supervision = supervised;
      throttle = { Qcore.Throttle_config.levels = [ gate ]; dynamic = false };
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

(* [stuck] counts what was submitted and has not settled, supervised or
   not: the held query while the gate is shut, nothing once it is done. *)
let test_stuck_counts_in_flight () =
  List.iter
    (fun supervised ->
      let label = if supervised then "supervised" else "unsupervised" in
      let got, _, _, (mid, after) =
        held_compile ~supervised ~hold:400. ~traced:false ()
      in
      Alcotest.(check string) (label ^ ": outcome") "ok" got;
      Alcotest.(check int) (label ^ ": stuck while held") 1 mid;
      Alcotest.(check int) (label ^ ": stuck once settled") 0 after)
    [ true; false ]

(* ------------------------------------------------------------------ *)
(* Broker insistence: a component that ignores consecutive shrink
   verdicts without its usage falling gets its reclaim hook called; a
   complying (shrinking) component and a hookless one never do. *)

let test_broker_insists_on_deaf_components () =
  let mib = Dbmem.Units.mib in
  let eng = Sim.Engine.create () in
  let m = Dbmem.Manager.create ~total:(mib 100) () in
  let broker = Qcore.Broker.create ~insist_after:3 eng m in
  let deaf = Dbmem.Manager.create_clerk m "deaf" in
  let nice = Dbmem.Manager.create_clerk m "nice" in
  let reclaims = ref [] in
  let _ =
    Qcore.Broker.register broker ~name:"deaf" ~clerk:deaf
      ~reclaim:(fun wanted ->
        reclaims := wanted :: !reclaims;
        let give = min wanted (Dbmem.Manager.clerk_used deaf) in
        Dbmem.Manager.free deaf give;
        give)
      ()
  in
  (* [nice] has no hook: it is outside the broker's writ, like the
     ballast, and must never be forced however far over target it sits. *)
  let _ = Qcore.Broker.register broker ~name:"nice" ~clerk:nice () in
  Dbmem.Manager.alloc_exn deaf (mib 70);
  Dbmem.Manager.alloc_exn nice (mib 30);
  (* Two over-target ticks: the broker is still only asking. *)
  Qcore.Broker.tick broker;
  Qcore.Broker.tick broker;
  Alcotest.(check bool) "pressure seen" true (Qcore.Broker.under_pressure broker);
  Alcotest.(check int) "still advisory below insist_after" 0
    (Qcore.Broker.forced_reclaims broker);
  (* Third consecutive deaf tick: the broker insists through the hook. *)
  Qcore.Broker.tick broker;
  Alcotest.(check int) "forced reclaim fired" 1
    (Qcore.Broker.forced_reclaims broker);
  (match !reclaims with
  | [ wanted ] ->
      Alcotest.(check bool) "hook asked for the overage" true (wanted > 0)
  | l -> Alcotest.failf "expected 1 hook call, saw %d" (List.length l));
  Alcotest.(check bool) "the reclaim actually freed memory" true
    (Dbmem.Manager.clerk_used deaf < mib 70);
  (* A complying component — usage falling, however slowly — is left
     alone: free a sliver before each tick and the streak keeps
     resetting. *)
  let before = Qcore.Broker.forced_reclaims broker in
  Dbmem.Manager.alloc_exn deaf (mib 70 - Dbmem.Manager.clerk_used deaf);
  Qcore.Broker.tick broker;
  for _ = 1 to 6 do
    Dbmem.Manager.free deaf (mib 1);
    Qcore.Broker.tick broker
  done;
  Alcotest.(check int) "complying component never forced" before
    (Qcore.Broker.forced_reclaims broker)

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
(* Calm probe traffic: touch every SALES template twice (the first
   arrival may be consumed as a half-open probe), one process per
   template so a slow template cannot starve the others. Starts 100 s
   after the current clock, past any trailing breaker cooldown, then
   runs the engine long enough for every probe to finish. *)

let probe_all_templates dbms ~run_for =
  let eng = Server.Dbms.engine dbms in
  let prng = Sim.Rng.split (Sim.Engine.rng eng) in
  List.iteri
    (fun i t ->
      Sim.Engine.spawn eng
        ~name:(Printf.sprintf "probe-%d" i)
        ~delay:100.
        (fun () ->
          for k = 0 to 1 do
            ignore
              (Server.Dbms.submit_catch dbms
                 (Workload.Template.instance prng t ~id:(900000 + (2 * i) + k)))
          done))
    (Workload.Sales.templates ());
  Sim.Engine.run eng ~until:(Sim.Engine.now eng +. run_for)

(* ------------------------------------------------------------------ *)
(* Integration: breakers trip under a hard fault window and recover once
   it clears and calm traffic probes them. Deterministic in the seed. *)

let test_breaker_trips_and_recovers () =
  let faults =
    [
      Faultsim.Fault.Alloc_glitch
        { at = 40.; duration = 300.; fail_prob = 0.9; clerks = [ "compile" ] };
    ]
  in
  let o =
    Server.Scenario.run_chaos ~faults ~seed:11 ~clients:12 ~warmup:0.
      ~measure:500. ~drain:500. ~think_mean:30. ()
  in
  let r = o.Server.Scenario.report in
  Alcotest.(check bool) "breakers tripped during the glitch" true
    (r.Health.Report.breaker_opens > 0);
  let count code = List.assoc code r.Health.Report.errors in
  Alcotest.(check bool) "the glitch produced structured 701s" true
    (count Health.Error.Insufficient_memory > 0);
  Alcotest.(check bool) "breaker refusals were recorded" true
    (count Health.Error.Breaker_open > 0);
  (* Rarely-arriving templates can sit half-open until traffic probes
     them; after a calm probe of every template, all must be closed. *)
  probe_all_templates o.Server.Scenario.dbms ~run_for:1000.;
  let r = Server.Dbms.health_report o.Server.Scenario.dbms () in
  Alcotest.(check (list (pair string breaker_state)))
    "every breaker recovered after the faults cleared" []
    r.Health.Report.breakers_open;
  Alcotest.(check bool) "tripped breakers closed again" true
    (r.Health.Report.breaker_closes > 0);
  Alcotest.(check int) "no query permanently stuck" 0 (Health.Report.stuck r)

(* ------------------------------------------------------------------ *)
(* Integration: on the canonical chaos schedule the supervised server
   loses nothing to its supervision — throughput at least matches the
   plain resilient server, nothing is stuck, and the taxonomy accounts
   for every client-visible failure. *)

let test_supervised_throughput () =
  let faults = Server.Scenario.chaos_faults () in
  let run config = Server.Scenario.run_chaos ~config ~faults ~seed:42 () in
  let sup = run (Server.Config.supervised ()) in
  let plain = run (Server.Config.resilient ()) in
  (* Tolerance pinned by the seed audit (test/seed_audit.exe): across
     seeds 1..20 the supervised/resilient completion ratio spans
     [0.974, 1.007] — supervision is not free at every seed (a breaker
     refusal can cost a completion the plain server kept), so "never
     loses more than 5%" is the seed-robust bound, not ">=". *)
  let ratio =
    float_of_int sup.Server.Scenario.completed
    /. float_of_int (max 1 plain.Server.Scenario.completed)
  in
  Alcotest.(check bool)
    (Printf.sprintf "supervised keeps >= 95%% of resilient completions \
                     (%d vs %d, ratio %.3f)"
       sup.Server.Scenario.completed plain.Server.Scenario.completed ratio)
    true (ratio >= 0.95);
  let r = sup.Server.Scenario.report in
  Alcotest.(check int) "no query permanently stuck" 0 (Health.Report.stuck r);
  (* Every failed client attempt returned a coded error: the client books
     and the error budget must agree exactly. *)
  let st = sup.Server.Scenario.client_stats in
  Alcotest.(check int) "every failure carries a taxonomy code"
    (st.Workload.Client.attempts - st.Workload.Client.succeeded)
    (Health.Report.total_errors r)

(* ------------------------------------------------------------------ *)
(* QCheck property: fuzzed fault schedules under full supervision. After
   the faults clear and the load drains, nothing may be stuck or leaked;
   the breaker books must balance; and once calm probe traffic touches
   every template, every tripped breaker must be closed. Returns the
   health report taken before the probe wave. *)

let run_supervised_schedule seed =
  let faults = Test_fuzz.schedule_of_seed seed in
  List.iter Faultsim.Fault.validate faults;
  (* schedule_of_seed windows all end by ~350 s; clients stop at 400 and
     the drain runs to 1200, far past any retry/backoff tail. *)
  let o =
    Server.Scenario.run_chaos ~faults ~seed ~clients:8 ~warmup:0.
      ~measure:400. ~drain:800. ~think_mean:50. ()
  in
  let dbms = o.Server.Scenario.dbms in
  let r1 = o.Server.Scenario.report in
  if Health.Report.stuck r1 <> 0 then
    Alcotest.failf "seed %d: %d queries permanently stuck" seed
      (Health.Report.stuck r1);
  (* Taxonomy completeness: client books = error budget. *)
  let st = o.Server.Scenario.client_stats in
  if st.Workload.Client.attempts - st.Workload.Client.succeeded
     <> Health.Report.total_errors r1
  then
    Alcotest.failf "seed %d: %d failed attempts but %d coded errors" seed
      (st.Workload.Client.attempts - st.Workload.Client.succeeded)
      (Health.Report.total_errors r1);
  (* Breaker bookkeeping: each trip from closed ends in a close, or
     leaves its breaker non-closed; a failed half-open probe's re-trip
     opens nothing new. *)
  let { Health.Report.breaker_opens = opens; breaker_reopens = reopens;
        breaker_closes = closes; breakers_open; _ } = r1 in
  if opens - reopens - closes <> List.length breakers_open then
    Alcotest.failf
      "seed %d: breaker books don't balance: %d opens, %d reopens, %d closes, \
       %d non-closed"
      seed opens reopens closes (List.length breakers_open);
  (* Probe wave in calm conditions; starts past any trailing cooldown. *)
  probe_all_templates dbms ~run_for:1000.;
  let r2 = Server.Dbms.health_report dbms () in
  (match r2.Health.Report.breakers_open with
  | [] -> ()
  | l ->
      Alcotest.failf "seed %d: breakers still not closed after calm probes: %s"
        seed
        (String.concat ", "
           (List.map
              (fun (t, s) -> t ^ "=" ^ Health.Breaker.state_name s)
              l)));
  if Health.Report.stuck r2 <> 0 then
    Alcotest.failf "seed %d: %d probe queries stuck" seed (Health.Report.stuck r2);
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
    [ "compile"; "execution"; "ballast" ];
  r1

(* Fault seed 930 re-trips a half-open probe ([s9_yearly_exec] trips at
   107 s, its probe fails at 167 s, and it closes at 320 s): the case
   that a plain opens - closes count gets wrong. *)
let test_supervised_schedule_retrip () =
  let r = run_supervised_schedule 930 in
  Alcotest.(check int) "one probe re-trip" 1 r.Health.Report.breaker_reopens

let prop_supervision_invariants =
  QCheck.Test.make
    ~name:"supervised chaos runs drain clean and breakers recover"
    ~count:20
    QCheck.(int_range 0 10_000)
    (fun seed ->
      ignore (run_supervised_schedule seed);
      true)

(* ------------------------------------------------------------------ *)
(* Golden expect test: the canonical fixed-seed chaos scenario's health
   report, byte for byte — exactly what [dbsim health] prints. *)

let report_string r = Format.asprintf "%a@." Health.Report.pp r

let test_health_report_golden () =
  let o = Server.Scenario.run_chaos ~seed:42 () in
  let got = report_string o.Server.Scenario.report in
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
    ("supervision off is inert", `Quick, test_supervise_off_is_inert);
    ("held compile: credit ends where per-call metering does", `Quick,
     test_held_compile_credit);
    ("stuck counts queries still in flight", `Quick, test_stuck_counts_in_flight);
    ("broker insists on deaf components", `Quick, test_broker_insists_on_deaf_components);
    ("backoff edge cases", `Quick, test_backoff_edges);
    ("breakers trip and recover under chaos", `Slow, test_breaker_trips_and_recovers);
    ("supervised throughput and accounting", `Slow, test_supervised_throughput);
    ("supervised chaos with a probe re-trip", `Slow, test_supervised_schedule_retrip);
    QCheck_alcotest.to_alcotest prop_supervision_invariants;
    ("health report matches golden", `Slow, test_health_report_golden);
  ]
