(* Metastable-failure defense tests: retry-budget conservation, compile
   singleflight (unit and fuzzed), the storm detector's episode state
   machine, LIFO queue flips, hedge-loser accounting, and a compact
   A/B of the storm experiment itself. *)

let mib = Dbmem.Units.mib

(* ------------------------------------------------------------------ *)
(* Retry budgets *)

(* Conservation: whatever the op sequence, tokens are neither created
   nor destroyed — [min initial max_tokens + earned - capped - spent]
   is the balance, the balance never goes negative, and every refused
   spend is counted as a denial. The books are float sums over up to
   ~10^4 operations, so the identity holds only to rounding, which
   grows with their size: about 7e-14 of their total, 1.7e-9 tokens at
   the largest. The bound sits about 15x above that and still catches
   a leak of 1e-10 tokens per spend. *)
let prop_budget_conservation =
  QCheck.Test.make ~name:"retry budget conserves tokens" ~count:300
    QCheck.(
      quad (float_bound_inclusive 20.) (float_bound_inclusive 3.)
        (float_bound_inclusive 20.)
        (list bool))
    (fun (initial, earn, max_tokens, ops) ->
      QCheck.assume (max_tokens >= 0.);
      let cfg =
        {
          Server.Resilience.Budget.initial;
          earn_per_success = earn;
          max_tokens;
          spend_per_retry = 1.;
        }
      in
      let b = Server.Resilience.Budget.create cfg in
      let denials = ref 0 in
      List.iter
        (fun spend ->
          if spend then begin
            if not (Server.Resilience.Budget.try_spend b) then incr denials
          end
          else Server.Resilience.Budget.earn b)
        ops;
      let open Server.Resilience.Budget in
      let lhs = Float.min initial max_tokens +. earned b -. capped b -. spent b in
      abs_float (lhs -. balance b)
      < 1e-12 *. (1. +. initial +. earned b +. capped b +. spent b)
      && balance b >= -1e-9
      && denied b = !denials)

let test_budget_denies_when_empty () =
  let b =
    Server.Resilience.Budget.create
      {
        Server.Resilience.Budget.initial = 2.;
        earn_per_success = 0.5;
        max_tokens = 2.;
        spend_per_retry = 1.;
      }
  in
  Alcotest.(check bool) "spend 1" true (Server.Resilience.Budget.try_spend b);
  Alcotest.(check bool) "spend 2" true (Server.Resilience.Budget.try_spend b);
  Alcotest.(check bool) "spend 3 denied" false
    (Server.Resilience.Budget.try_spend b);
  Alcotest.(check int) "denial counted" 1 (Server.Resilience.Budget.denied b);
  (* Two successes earn one token back; the next retry is affordable. *)
  Server.Resilience.Budget.earn b;
  Server.Resilience.Budget.earn b;
  Alcotest.(check bool) "earned spend" true
    (Server.Resilience.Budget.try_spend b)

let test_budget_caps_earnings () =
  let b =
    Server.Resilience.Budget.create
      {
        Server.Resilience.Budget.initial = 5.;
        earn_per_success = 10.;
        max_tokens = 5.;
        spend_per_retry = 1.;
      }
  in
  Server.Resilience.Budget.earn b;
  Alcotest.(check (float 1e-9)) "balance capped" 5.
    (Server.Resilience.Budget.balance b);
  Alcotest.(check (float 1e-9)) "overflow counted as capped" 10.
    (Server.Resilience.Budget.capped b)

let test_budget_validation () =
  List.iter
    (fun (name, cfg) ->
      match Server.Resilience.Budget.create cfg with
      | _ -> Alcotest.failf "%s accepted" name
      | exception Invalid_argument _ -> ())
    [
      ( "negative initial",
        {
          Server.Resilience.Budget.initial = -1.;
          earn_per_success = 0.1;
          max_tokens = 10.;
          spend_per_retry = 1.;
        } );
      ( "zero spend",
        {
          Server.Resilience.Budget.initial = 1.;
          earn_per_success = 0.1;
          max_tokens = 10.;
          spend_per_retry = 0.;
        } );
    ]

(* ------------------------------------------------------------------ *)
(* Singleflight *)

(* Instance [i] of statement [k]: one template and the literal [k] under
   a serial of its own, so distinct instances of one statement share a
   flight. *)
let stmt ?(i = 0) k =
  Optimizer.Query.make
    ~id:(Printf.sprintf "t#%d" i)
    ~rels:[ ("sales", "f") ]
    ~preds:[]
    ~filters:
      [
        {
          Optimizer.Query.frel = 0;
          fcol = "sales_key";
          fop = Optimizer.Query.Eq;
          fvalue = k;
          fsel = 0.5;
        };
      ]
    ~agg:None

(* Fuzzed arrival schedules: fibers arrive at arbitrary times, enter the
   flight for an arbitrary statement (each arrival its own instance) and
   "compile" for an arbitrary duration. At no instant may two compiles of
   the same key overlap, and the ledger must balance: duplicates =
   coalesced + timeouts, no timeouts with an unbounded wait. *)
let prop_singleflight_no_overlapping_compiles =
  QCheck.Test.make ~name:"singleflight: one compile per key at a time"
    ~count:100
    QCheck.(
      list_of_size (Gen.int_range 1 25)
        (triple (int_range 0 3) (float_bound_inclusive 50.)
           (float_bound_inclusive 20.)))
    (fun arrivals ->
      let eng = Sim.Engine.create ~seed:1 () in
      let sf = Plancache.Singleflight.create eng in
      let compiling = Array.make 4 false in
      let overlap = ref false in
      let compiles = Array.make 4 0 in
      List.iteri
        (fun i (k, at, dur) ->
          Sim.Engine.spawn eng
            ~name:(Printf.sprintf "c%d" i)
            (fun () ->
              Sim.Engine.sleep at;
              match
                Plancache.Singleflight.enter sf (stmt ~i k) ~max_wait:1e9 ()
              with
              | `Leader tok ->
                  if compiling.(k) then overlap := true;
                  compiling.(k) <- true;
                  compiles.(k) <- compiles.(k) + 1;
                  Sim.Engine.sleep dur;
                  compiling.(k) <- false;
                  Plancache.Singleflight.exit sf tok
              | `Coalesced -> ()
              | `Duplicate | `Timed_out ->
                  (* Coalesce mode with unbounded wait: impossible. *)
                  overlap := true))
        arrivals;
      Sim.Engine.run eng ~until:1e6;
      (not !overlap)
      && Plancache.Singleflight.timeouts sf = 0
      && Plancache.Singleflight.duplicates sf
         = Plancache.Singleflight.coalesced sf
      && Plancache.Singleflight.led sf
         = Array.fold_left ( + ) 0 compiles
      && Plancache.Singleflight.in_flight sf = 0)

let test_singleflight_observe_counts_without_blocking () =
  let eng = Sim.Engine.create ~seed:2 () in
  let sf = Plancache.Singleflight.create ~mode:Plancache.Singleflight.Observe eng in
  let compiled = ref 0 in
  for i = 0 to 3 do
    Sim.Engine.spawn eng
      ~name:(Printf.sprintf "c%d" i)
      (fun () ->
        match Plancache.Singleflight.enter sf (stmt 0) () with
        | `Leader tok ->
            incr compiled;
            Sim.Engine.sleep 10.;
            Plancache.Singleflight.exit sf tok
        | `Duplicate ->
            (* Observe mode: counted, never blocked — compile anyway. *)
            incr compiled;
            Sim.Engine.sleep 10.
        | `Coalesced | `Timed_out -> Alcotest.fail "observe mode blocked")
  done;
  Sim.Engine.run eng ~until:100.;
  Alcotest.(check int) "everyone compiled" 4 !compiled;
  Alcotest.(check int) "one led" 1 (Plancache.Singleflight.led sf);
  Alcotest.(check int) "three duplicates" 3
    (Plancache.Singleflight.duplicates sf);
  Alcotest.(check int) "nobody coalesced" 0
    (Plancache.Singleflight.coalesced sf)

let test_singleflight_timeout_compiles_solo () =
  let eng = Sim.Engine.create ~seed:3 () in
  let sf = Plancache.Singleflight.create eng in
  let events = ref [] in
  Sim.Engine.spawn eng ~name:"leader" (fun () ->
      match Plancache.Singleflight.enter sf (stmt 0) () with
      | `Leader tok ->
          Sim.Engine.sleep 100.;
          Plancache.Singleflight.exit sf tok;
          events := `Leader_done :: !events
      | _ -> Alcotest.fail "first arrival must lead");
  Sim.Engine.spawn eng ~name:"follower" (fun () ->
      Sim.Engine.sleep 1.;
      match Plancache.Singleflight.enter sf (stmt 0) ~max_wait:10. () with
      | `Timed_out -> events := `Timed_out :: !events
      | _ -> Alcotest.fail "short-wait follower must time out");
  Sim.Engine.run eng ~until:200.;
  Alcotest.(check bool) "follower timed out before leader finished" true
    (!events = [ `Leader_done; `Timed_out ]);
  Alcotest.(check int) "timeout counted" 1 (Plancache.Singleflight.timeouts sf);
  Alcotest.(check int) "duplicate = coalesced + timeouts" 1
    (Plancache.Singleflight.duplicates sf)

(* The acceptance headline: N concurrent cold misses of one canonical
   statement cost exactly one optimization. *)
let test_cold_stampede_compiles_once () =
  let eng = Sim.Engine.create ~seed:5 () in
  let config =
    {
      (Server.Config.default ()) with
      Server.Config.defense = Server.Config.defended;
    }
  in
  let dbms = Server.Dbms.create eng config (Workload.Sales.catalog ()) in
  Server.Dbms.start dbms;
  let template =
    List.hd (Workload.Sales.parameterized_templates ~variants:1 ())
  in
  let rng = Sim.Rng.create 7 in
  let n = 8 in
  let oks = ref 0 in
  for i = 1 to n do
    let q = Workload.Template.instance rng template ~id:i in
    Sim.Engine.spawn eng
      ~name:(Printf.sprintf "client-%d" i)
      (fun () ->
        match Server.Dbms.submit dbms q with
        | Ok () -> incr oks
        | Error e ->
            Alcotest.failf "stampede submit failed: %s"
              (Health.Error.to_string e))
  done;
  Sim.Engine.run eng ~until:10_000.;
  let sf = Server.Dbms.singleflight dbms in
  Alcotest.(check int) "all queries completed" n !oks;
  Alcotest.(check int) "exactly one optimization led" 1
    (Plancache.Singleflight.led sf);
  Alcotest.(check int) "the rest coalesced" (n - 1)
    (Plancache.Singleflight.coalesced sf);
  (* One compile's memory peak was recorded — the optimizer really ran
     once, not once per client. *)
  Alcotest.(check int) "one compile peak recorded" 1
    (Sim.Stats.Online.count
       (Server.Metrics.compile_peak (Server.Dbms.metrics dbms)))

(* ------------------------------------------------------------------ *)
(* Storm detector *)

(* The detector's episode flips, as its [storm:begin] and [storm:end]
   trace instants, oldest first. *)
let storm_instants trace =
  Obs.Trace.records trace |> Array.to_list
  |> List.filter_map (fun (r : Obs.Trace.record) ->
         match Obs.Event.name r.event with
         | ("storm:begin" | "storm:end") as n -> Some n
         | _ -> None)

let test_detector_flags_surge_and_calms () =
  let eng = Sim.Engine.create ~seed:1 () in
  let trace = Obs.Trace.create () in
  let d = Health.Storm.create ~trace eng ~enabled:true in
  Sim.Engine.spawn eng (fun () ->
      (* A burst over the 12-miss floor flags a storm eagerly,
         mid-window. *)
      for _ = 1 to 13 do
        Health.Storm.note_compile d
      done;
      Alcotest.(check (list string)) "storm active after surge"
        [ "storm:begin" ] (storm_instants trace);
      (* Two quiet windows end the episode: three 30 s windows close. *)
      Sim.Engine.sleep 90.;
      Health.Storm.note_compile d;
      Alcotest.(check (list string)) "calm after quiet windows"
        [ "storm:begin"; "storm:end" ] (storm_instants trace));
  Sim.Engine.run eng ~until:1_000.;
  Alcotest.(check int) "one episode" 1 (Health.Storm.storms_total d);
  Alcotest.(check (list string)) "begin then end"
    [ "storm:begin"; "storm:end" ] (storm_instants trace)

let test_detector_disabled_never_flags () =
  let eng = Sim.Engine.create ~seed:1 () in
  let trace = Obs.Trace.create () in
  let d = Health.Storm.create ~trace eng ~enabled:false in
  Sim.Engine.spawn eng (fun () ->
      for _ = 1 to 100 do
        Health.Storm.note_compile d
      done);
  Sim.Engine.run eng ~until:100.;
  Alcotest.(check (list string)) "never active" [] (storm_instants trace);
  Alcotest.(check int) "no episodes" 0 (Health.Storm.storms_total d)

(* ------------------------------------------------------------------ *)
(* Adaptive queue discipline *)

let test_sem_lifo_serves_newest_first () =
  let eng = Sim.Engine.create ~seed:1 () in
  let sem = Sim.Resource.Sem.create eng ~capacity:1 () in
  let order = ref [] in
  let waiter name at =
    Sim.Engine.spawn eng ~name (fun () ->
        Sim.Engine.sleep at;
        ignore (Sim.Resource.Sem.acquire sem ~n:1 ());
        order := name :: !order;
        Sim.Engine.sleep 100.;
        Sim.Resource.Sem.release sem ~n:1)
  in
  waiter "holder" 0.;
  (* Queue three while the holder occupies the only slot, then flip to
     LIFO: the flip applies to waiters enqueued from now on, so the
     pre-flip backlog keeps FIFO order and post-flip arrivals overtake
     it. *)
  waiter "old1" 1.;
  waiter "old2" 2.;
  ignore
    (Sim.Engine.schedule eng ~delay:3. (fun () ->
         Sim.Resource.Sem.set_discipline sem Sim.Resource.Lifo));
  waiter "new1" 4.;
  waiter "new2" 5.;
  Sim.Engine.run eng ~until:1_000.;
  Alcotest.(check (list string))
    "newest post-flip waiter first"
    [ "holder"; "new2"; "new1"; "old1"; "old2" ]
    (List.rev !order)

(* ------------------------------------------------------------------ *)
(* Hedge-loser accounting *)

let test_uncount_scrubs_booking () =
  let eng = Sim.Engine.create ~seed:9 () in
  let sh =
    Server.Shard.create eng ~index:0 ~name:"shard0"
      (Server.Config.default ())
      (Workload.Sales.catalog ())
  in
  let rng = Sim.Rng.create 1 in
  let template = List.hd (Workload.Sales.templates ()) in
  Sim.Engine.spawn eng (fun () ->
      let q = Workload.Template.instance rng template ~id:1 in
      let r, booking = Server.Shard.submit_tracked sh q in
      (match r with
      | Ok () -> ()
      | Error e ->
          Alcotest.failf "submit failed: %s" (Health.Error.to_string e));
      Alcotest.(check int) "finished booked" 1 (Server.Shard.finished sh);
      (* The hedge lost: scrub it. accepted = finished + lost still
         holds, and the scrub shows up in discarded. *)
      Server.Shard.uncount sh booking;
      Alcotest.(check int) "finished scrubbed" 0 (Server.Shard.finished sh);
      Alcotest.(check int) "accepted scrubbed too" 0
        (Server.Shard.accepted sh);
      Alcotest.(check int) "discard counted" 1 (Server.Shard.discarded sh));
  Sim.Engine.run eng ~until:5_000.

(* ------------------------------------------------------------------ *)
(* The storm experiment *)

let small_storm ?(defenses = true) ?(seed = 11)
    ?(schedule = Server.Storms.Mass_invalidation) () =
  {
    Server.Storms.s_shards = 2;
    s_clients = 24;
    s_variants = 16;
    s_think = 5.;
    s_warmup = 120.;
    s_measure = 360.;
    s_slice = 30.;
    s_total = mib 512 * 2;
    s_defenses = defenses;
    s_seed = seed;
    s_schedule = schedule;
  }

let check_storm_accounting name (o : Server.Storms.outcome) =
  Alcotest.(check bool)
    (name ^ ": ok + failed + rejected = submitted + in flight slack")
    true
    (o.Server.Storms.ok + o.Server.Storms.failed <= o.Server.Storms.submitted);
  Alcotest.(check bool)
    (name ^ ": client successes = router oks")
    true
    (o.Server.Storms.cl_succeeded <= o.Server.Storms.ok);
  Alcotest.(check bool)
    (name ^ ": rates non-negative")
    true
    (o.Server.Storms.pre_rate >= 0. && o.Server.Storms.post_rate >= 0.)

let test_storm_ab_contrast () =
  let on = Server.Storms.run (small_storm ~defenses:true ()) in
  let off = Server.Storms.run (small_storm ~defenses:false ()) in
  check_storm_accounting "defended" on;
  check_storm_accounting "undefended" off;
  (* The robust A/B signals: coalescing happens only with defenses on,
     duplicate compiles only with defenses off. *)
  Alcotest.(check int) "defended arm never duplicates a compile" 0
    on.Server.Storms.dup_compiles;
  Alcotest.(check bool) "defended arm coalesced misses" true
    (on.Server.Storms.coalesced > 0);
  Alcotest.(check bool) "undefended arm wasted duplicate compiles" true
    (off.Server.Storms.dup_compiles > 0);
  Alcotest.(check int) "undefended arm cannot coalesce" 0
    off.Server.Storms.coalesced;
  Alcotest.(check bool) "defended arm recovered in the window" true
    on.Server.Storms.recovered;
  (* Defenses consume no randomness the baseline doesn't: both arms see
     the identical workload, so client submission counts are close (the
     arms diverge only through server-side scheduling). *)
  Alcotest.(check bool) "both arms ran the same workload shape" true
    (abs
       (on.Server.Storms.cl_submitted - off.Server.Storms.cl_submitted)
    * 10
    < on.Server.Storms.cl_submitted)

let test_storm_determinism () =
  let cfg = small_storm ~seed:3 () in
  let a = Server.Storms.run cfg in
  let b = Server.Storms.run cfg in
  Alcotest.(check (array (pair (float 0.) (float 0.))))
    "slices bit-identical" a.Server.Storms.slices b.Server.Storms.slices;
  Alcotest.(check int) "submitted identical" a.Server.Storms.submitted
    b.Server.Storms.submitted;
  Alcotest.(check int) "dup compiles identical" a.Server.Storms.dup_compiles
    b.Server.Storms.dup_compiles;
  Alcotest.(check (float 0.)) "recovery identical" a.Server.Storms.recovery_s
    b.Server.Storms.recovery_s

let test_storm_crash_schedule_runs () =
  let o =
    Server.Storms.run (small_storm ~schedule:Server.Storms.Cold_crash ())
  in
  check_storm_accounting "crash" o;
  let crashed =
    List.exists
      (fun r -> r.Server.Storms.sr_crashes > 0)
      o.Server.Storms.shard_reports
  in
  Alcotest.(check bool) "a shard crashed and rejoined" true crashed

let test_storm_validate_rejects () =
  let bad f = f Server.Storms.default_config in
  List.iter
    (fun (name, cfg) ->
      match Server.Storms.validate cfg with
      | () -> Alcotest.failf "%s accepted" name
      | exception Invalid_argument _ -> ())
    [
      ("one shard", bad (fun c -> { c with Server.Storms.s_shards = 1 }));
      ("no memory", bad (fun c -> { c with Server.Storms.s_total = mib 64 }));
      ("no clients", bad (fun c -> { c with Server.Storms.s_clients = 0 }));
      ("bad slice", bad (fun c -> { c with Server.Storms.s_slice = 0. }));
    ]

let suite =
  [
    Alcotest.test_case "budget denies when empty" `Quick
      test_budget_denies_when_empty;
    Alcotest.test_case "budget caps earnings" `Quick test_budget_caps_earnings;
    Alcotest.test_case "budget validation" `Quick test_budget_validation;
    QCheck_alcotest.to_alcotest prop_budget_conservation;
    QCheck_alcotest.to_alcotest prop_singleflight_no_overlapping_compiles;
    Alcotest.test_case "singleflight observe mode" `Quick
      test_singleflight_observe_counts_without_blocking;
    Alcotest.test_case "singleflight timeout compiles solo" `Quick
      test_singleflight_timeout_compiles_solo;
    Alcotest.test_case "cold stampede compiles once" `Quick
      test_cold_stampede_compiles_once;
    Alcotest.test_case "detector flags surge and calms" `Quick
      test_detector_flags_surge_and_calms;
    Alcotest.test_case "detector disabled never flags" `Quick
      test_detector_disabled_never_flags;
    Alcotest.test_case "sem lifo serves newest first" `Quick
      test_sem_lifo_serves_newest_first;
    Alcotest.test_case "uncount scrubs booking" `Quick
      test_uncount_scrubs_booking;
    Alcotest.test_case "storm A/B contrast" `Slow test_storm_ab_contrast;
    Alcotest.test_case "storm determinism" `Slow test_storm_determinism;
    Alcotest.test_case "storm crash schedule" `Slow
      test_storm_crash_schedule_runs;
    Alcotest.test_case "storm validate rejects" `Quick
      test_storm_validate_rejects;
  ]
