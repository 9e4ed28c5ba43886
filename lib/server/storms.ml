(* Metastable-failure experiment: a sharded deployment is hit by a
   cold-cache trigger — a crash-restart or a mass plan invalidation —
   and we measure whether the system climbs back out of the storm or
   stays collapsed after the trigger has cleared. The A/B axis is the
   defense stack ({!Config.defended} vs {!Config.no_defense}): compile
   singleflight, per-client retry budgets, adaptive gateway queues and
   warm-priming on rejoin. Everything else — workload,
   seeds, fault schedule, gateway throttling — is identical between the
   two arms, so the difference in recovery time is the defenses'. *)

type schedule = Cold_crash | Mass_invalidation

let schedule_name = function
  | Cold_crash -> "cold-crash"
  | Mass_invalidation -> "mass-invalidation"

type config = {
  s_shards : int;
  s_clients : int;
  s_variants : int;  (** parameterized templates in the workload *)
  s_think : float;
  s_warmup : float;
  s_measure : float;
  s_slice : float;
  s_total : int;  (** machine bytes, split total/shards *)
  s_defenses : bool;  (** the A/B axis: {!Config.defended} when true *)
  s_seed : int;
  s_schedule : schedule;
}

let default_config =
  {
    s_shards = 3;
    s_clients = 160;
    s_variants = 96;
    s_think = 10.;
    s_warmup = 600.;
    s_measure = 900.;
    s_slice = 30.;
    s_total = 24 * 1024 * 1024 * 1024;
    s_defenses = true;
    s_seed = 42;
    s_schedule = Mass_invalidation;
  }

(* The defense stack this config's arm actually runs. *)
let defense_of cfg =
  if cfg.s_defenses then Config.defended else Config.no_defense

(* The trigger lands a quarter into the measure window, so the pre-fault
   slices establish the healthy rate the recovery is judged against. *)
let fault_at cfg = cfg.s_warmup +. (0.25 *. cfg.s_measure)
let crash_restart_delay cfg = 0.15 *. cfg.s_measure

type shard_report = {
  sr_name : string;
  sr_state : string;
  sr_crashes : int;
  sr_recompiles : int;  (** plan-cache misses since rejoin *)
  sr_cache_hit : float;
  sr_storms : int;  (** storm episodes the detector flagged *)
  sr_primed : int;  (** templates warm-primed on rejoin *)
  sr_sf_led : int;  (** singleflight leaders (real compiles) *)
  sr_sf_coalesced : int;  (** followers who waited instead of compiling *)
  sr_sf_dup : int;
      (** compiles performed while a flight for the same canonical
          statement was already open — the storm's wasted work (every
          duplicate in observe mode, only singleflight timeouts in
          coalesce mode) *)
}

type outcome = {
  o_config : config;
  slices : (float * float) array;  (** completions per slice, window only *)
  pre_rate : float;  (** mean completions/slice before the trigger *)
  post_rate : float;  (** mean completions/slice after the trigger *)
  recovery_s : float;
      (** time from the trigger until the earliest slice from which the
          rest of the window sustains 90% of [pre_rate]; [infinity] if
          the run never got there *)
  recovered : bool;  (** [recovery_s] is finite *)
  retry_amp : float;
      (** router attempts per distinct client query — 1.0 means nothing
          was ever resubmitted, the storm's amplification factor *)
  dup_compiles : int;  (** sum of [sr_sf_dup] *)
  coalesced : int;
  storms_detected : int;
  primed : int;
  lifo_shifts : int;  (** gateway FIFO->LIFO queue flips *)
  budget_denials : int;  (** retries refused by empty token buckets *)
  submitted : int;
  ok : int;
  failed : int;
  rejected : int;
  retries : int;
  in_flight_at_stop : int;
  p50_ms : float;
  p99_ms : float;
  cl_submitted : int;
  cl_succeeded : int;
  cl_abandoned : int;
  shard_reports : shard_report list;
}

let validate cfg =
  if cfg.s_shards < 2 then invalid_arg "Storms.run: need at least 2 shards";
  if cfg.s_clients < 1 then invalid_arg "Storms.run: clients < 1";
  if cfg.s_variants < 1 then invalid_arg "Storms.run: variants < 1";
  if cfg.s_total / cfg.s_shards < 64 * 1024 * 1024 then
    invalid_arg "Storms.run: less than 64 MiB per shard";
  if cfg.s_warmup < 0. || cfg.s_measure <= 0. || cfg.s_slice <= 0. then
    invalid_arg "Storms.run: bad warmup/measure/slice";
  if cfg.s_think <= 0. then invalid_arg "Storms.run: think <= 0"

let run ?trace cfg =
  validate cfg;
  let eng = Sim.Engine.create ~seed:cfg.s_seed () in
  let stop = cfg.s_warmup +. cfg.s_measure in
  let n = cfg.s_shards in
  let budget = cfg.s_total / n in
  let base = Config.for_pool ~seed:cfg.s_seed budget in
  let defense = defense_of cfg in
  let shard_cfg =
    {
      base with
      Config.throttle_enabled = true;
      (* Plentiful execution hardware. The paper's premise is that
         compilation, not execution, is the scarce resource; on the
         default era-sized disk array this testbed saturates exec-side,
         and those queues have infinite patience — overload is absorbed
         as latency and no retry loop can ignite. A modern array makes
         execution cheap, so the compile gateways are the binding
         constraint and a cold cache turns into a real queue there. *)
      disk_spindles = 64;
      disk_throughput = 320. *. 1024. *. 1024.;
      (* Complex-schema tier: each optimization task costs 3x the default
         CPU — deep join orders, wide indexes. A cold cache is then a
         real debt (a compile is minutes of CPU, not seconds), which is
         the regime where the storm either feeds on itself or is broken
         by the defenses. Both arms, identically. *)
      optimizer_params =
        {
          base.Config.optimizer_params with
          Optimizer.Cascades.task_cpu =
            3.0 *. base.Config.optimizer_params.Optimizer.Cascades.task_cpu;
        };
      (* Impatient gateways — both arms, identically. The default
         timeouts (120/300/600 s) are sized for a warm cache, where a
         compile queue of that depth never forms; this testbed models a
         latency-bound mid-tier whose patience is a couple of compile
         times, so a cold-cache queue turns waiters into retryable
         failures instead of parking every client for ten simulated
         minutes. This is the amplification loop the defenses are up
         against: timeout -> client retry -> another compile of the same
         statement -> deeper queue -> more timeouts. *)
      throttle =
        {
          base.Config.throttle with
          Qcore.Throttle_config.levels =
            List.mapi
              (fun i l ->
                let patience =
                  match i with 0 -> 30. | 1 -> 45. | _ -> 90.
                in
                { l with Qcore.Throttle_config.timeout = patience })
              base.Config.throttle.Qcore.Throttle_config.levels;
        };
      defense;
      (* The storm is the point, but it must be a *trigger*, not ambient
         noise: shield the warm plan set from buffer-pool pressure so
         cold caches happen when the schedule says, not whenever the
         pool squeezes. *)
      plan_cache_floor_bytes = min (Dbmem.Units.mib 512) (budget / 8);
    }
  in
  let shards =
    Array.init n (fun i ->
        Shard.create ?trace eng ~index:i
          ~name:(Printf.sprintf "shard%d" i)
          shard_cfg (Workload.Sales.catalog ()))
  in
  let router = Router.create ?trace eng shards in
  Router.set_measure_from router cfg.s_warmup;
  (* The trigger. A crash routes through the fault injector (same
     validation and labelling as every other chaos schedule); a mass
     invalidation has no capacity loss — every cache is flushed in
     place, the purest form of the cold-cache stampede. *)
  (match cfg.s_schedule with
  | Cold_crash ->
      Shard.install_faults eng shards
        [
          Faultsim.Fault.Shard_crash
            { at = fault_at cfg; shard = 1; restart_delay = crash_restart_delay cfg };
        ]
  | Mass_invalidation ->
      ignore
        (Sim.Engine.schedule eng ~delay:(fault_at cfg) (fun () ->
             Array.iter
               (fun sh ->
                 let cache = Dbms.plan_cache (Shard.dbms sh) in
                 ignore (Plancache.Cache.shrink cache (Plancache.Cache.bytes cache)))
               shards)));
  ignore
    (Sim.Engine.every eng ~interval:5.0 (fun () ->
         Array.iter Shard.sample shards));
  let templates =
    Workload.Sales.parameterized_templates ~variants:cfg.s_variants ()
  in
  let series = Sim.Series.create ~name:"storms" () in
  let stats = Workload.Client.make_stats () in
  (* Per-client retry budgets (the defended arm only): each client owns
     its token bucket, created outside the engine so it costs no
     randomness; the router spends from it on every re-route. *)
  let submit _ =
    let budget = Option.map Resilience.Budget.create defense.Config.d_budget in
    Workload.Client.counting eng series (Router.submit_catch ?budget router)
  in
  (* Stagger arrivals across the first half of warmup. A simultaneous
     t=0 start is itself a cold-cache stampede, and the arm that handles
     it worse enters the measure window with a depressed healthy rate —
     which *lowers* its recovery bar and poisons the A/B. A ramp warms
     both arms identically, so the trigger is the only storm in the run. *)
  let start i =
    float_of_int (i - 1) *. (0.5 *. cfg.s_warmup /. float_of_int cfg.s_clients)
  in
  Workload.Client.spawn_fleet eng ~seed:cfg.s_seed ~label:"client"
    ~clients:cfg.s_clients ~templates ~submit ~start
    ~config:
      {
        Workload.Client.default_config with
        Workload.Client.think_mean = cfg.s_think;
      }
    ~stats ~ids:(ref 0) ~until:stop;
  Sim.Engine.run eng ~until:stop;
  Sim.Engine.run eng ~until:(stop +. 600.);
  let slices =
    Sim.Series.bucket_sum series ~start:cfg.s_warmup ~stop ~width:cfg.s_slice
  in
  let t_fault = fault_at cfg in
  let pre =
    Array.of_seq
      (Seq.filter
         (fun (t, _) -> t +. cfg.s_slice <= t_fault)
         (Array.to_seq slices))
  in
  let post =
    Array.of_seq
      (Seq.filter (fun (t, _) -> t >= t_fault) (Array.to_seq slices))
  in
  let pre_rate = Workload.Client.slice_mean pre in
  let recovery_s =
    (* Earliest post-trigger slice from which the rest of the window
       sustains 90% of the healthy rate (a suffix mean). A single lucky
       slice in the middle of the collapse doesn't count as recovery,
       and an arm still collapsed at the end never recovers. Judged at
       the slice's end (its count isn't known before then). *)
    let target = 0.9 *. pre_rate in
    let n = Array.length post in
    let suffix = Array.make (n + 1) 0. in
    for i = n - 1 downto 0 do
      suffix.(i) <- suffix.(i + 1) +. snd post.(i)
    done;
    let rec find i =
      if i >= n then Float.infinity
      else if suffix.(i) /. float_of_int (n - i) >= target then
        fst post.(i) +. cfg.s_slice -. t_fault
      else find (i + 1)
    in
    find 0
  in
  let lat = Router.latency router in
  let shard_reports =
    Array.to_list
      (Array.map
         (fun sh ->
           let dbms = Shard.dbms sh in
           let sf = Dbms.singleflight dbms in
           {
             sr_name = Shard.name sh;
             sr_state = Shard.lifecycle_name (Shard.state sh);
             sr_crashes = Shard.crashes sh;
             sr_recompiles = Shard.recompiles_after_rejoin sh;
             sr_cache_hit = Plancache.Cache.hit_rate (Dbms.plan_cache dbms);
             sr_storms = Health.Storm.storms_total (Dbms.storm_detector dbms);
             sr_primed = Dbms.primed_total dbms;
             sr_sf_led = Plancache.Singleflight.led sf;
             sr_sf_coalesced = Plancache.Singleflight.coalesced sf;
             sr_sf_dup =
               Plancache.Singleflight.duplicates sf
               - Plancache.Singleflight.coalesced sf;
           })
         shards)
  in
  let sum f = List.fold_left (fun a r -> a + f r) 0 shard_reports in
  let gov_sum f =
    Array.fold_left (fun a sh -> a + f (Dbms.governor (Shard.dbms sh))) 0 shards
  in
  let cl_submitted = stats.Workload.Client.submitted in
  {
    o_config = cfg;
    slices;
    pre_rate;
    post_rate = Workload.Client.slice_mean post;
    recovery_s;
    recovered = Float.is_finite recovery_s;
    retry_amp =
      (if cl_submitted = 0 then 1.
       else
         float_of_int (Router.submitted router + Router.retries router)
         /. float_of_int cl_submitted);
    dup_compiles = sum (fun r -> r.sr_sf_dup);
    coalesced = sum (fun r -> r.sr_sf_coalesced);
    storms_detected = sum (fun r -> r.sr_storms);
    primed = sum (fun r -> r.sr_primed);
    lifo_shifts = gov_sum Qcore.Compile_gov.lifo_shifts;
    budget_denials = Router.budget_denials router;
    submitted = Router.submitted router;
    ok = Router.ok router;
    failed = Router.failed router;
    rejected = Router.rejected router;
    retries = Router.retries router;
    in_flight_at_stop = Router.in_flight router;
    p50_ms = Obs.Hist.percentile_ms lat 50.;
    p99_ms = Obs.Hist.percentile_ms lat 99.;
    cl_submitted;
    cl_succeeded = stats.Workload.Client.succeeded;
    cl_abandoned = stats.Workload.Client.abandoned;
    shard_reports;
  }

(* The defended arm wins when it gets back to the healthy rate faster;
   an arm that never recovered compares as infinitely slow. *)
let faster_recovery ~defended ~undefended =
  defended.recovery_s < undefended.recovery_s
  || (defended.recovered && not undefended.recovered)
