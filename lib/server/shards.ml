(* Sharded scale-out experiment: N shards behind a health-aware router,
   driven by the parameterized (cacheable) SALES workload, with shard
   faults injected from a declarative schedule. The interesting
   comparison is crash-failover with versus without compile gateways: a
   restarted shard rejoins with an empty plan cache, every parameterized
   template recompiles at once, and only gateway throttling keeps that
   storm from collapsing the rejoining shard's throughput. *)

type schedule = No_fault | Crash_failover | Rolling_restart | Brownout

let schedule_name = function
  | No_fault -> "no-fault"
  | Crash_failover -> "crash-failover"
  | Rolling_restart -> "rolling-restart"
  | Brownout -> "brownout"

type config = {
  c_shards : int;
  c_clients : int;
  c_variants : int;  (** parameterized templates in the workload *)
  c_think : float;
  c_warmup : float;
  c_measure : float;
  c_slice : float;
  c_total : int;  (** machine bytes, split total/shards initially *)
  c_gateways : bool;  (** per-shard compile-gateway throttling *)
  c_hedge : bool;  (** hedge submissions to browned-out shards *)
  c_seed : int;
  c_schedule : schedule;
}

let default_config =
  {
    c_shards = 4;
    c_clients = 32;
    c_variants = 40;
    c_think = 20.;
    c_warmup = 400.;
    c_measure = 1200.;
    c_slice = 60.;
    c_total = 8 * 1024 * 1024 * 1024;
    c_gateways = true;
    c_hedge = false;
    c_seed = 42;
    c_schedule = No_fault;
  }

(* Fault schedules are measure-relative so shrinking a smoke run shrinks
   the outage with it. The crash lands a quarter into the window and the
   shard stays down for another quarter: the last half of the window
   shows the rejoined shard riding out its recompilation storm. *)
let faults_of cfg =
  let at = cfg.c_warmup +. (0.25 *. cfg.c_measure) in
  match cfg.c_schedule with
  | No_fault -> []
  | Crash_failover ->
      [
        Faultsim.Fault.Shard_crash
          { at; shard = 1; restart_delay = 0.25 *. cfg.c_measure };
      ]
  | Rolling_restart ->
      (* Staggered: each shard is down for half a stagger interval, so at
         most one shard is missing at any time. *)
      let interval = cfg.c_measure /. float_of_int (cfg.c_shards + 1) in
      List.init cfg.c_shards (fun i ->
          Faultsim.Fault.Shard_crash
            {
              at = cfg.c_warmup +. (float_of_int (i + 1) *. interval);
              shard = i;
              restart_delay = 0.5 *. interval;
            })
  | Brownout ->
      [
        Faultsim.Fault.Shard_stall
          { at; shard = 1; duration = 0.5 *. cfg.c_measure; slow_factor = 0.25 };
      ]

type shard_result = {
  sh_name : string;
  sh_final_state : string;
  sh_crashes : int;
  sh_stalls : int;
  sh_accepted : int;
  sh_finished : int;
  sh_lost : int;
  sh_refused : int;
  sh_recompiles : int;  (** plan-cache misses since rejoin *)
  sh_cache_hit_rate : float;
  sh_budget_end : int;
}

type outcome = {
  o_config : config;
  slices : (float * float) array;
  mean_per_slice : float;
  completed : int;  (** successful completions inside the window *)
  submitted : int;
  ok : int;
  failed : int;
  rejected : int;
  spills : int;
  hedges : int;
  hedge_wins : int;
  retries : int;
  in_flight_at_stop : int;
  p50_ms : float;
  p99_ms : float;
  cl_submitted : int;
  cl_attempts : int;  (* every router submission a client made, retries included *)
  cl_succeeded : int;
  cl_abandoned : int;
  arb_ticks : int;
  arb_rebalances : int;
  arb_moved : int;
  arb_reclaimed : int;
  max_budget_sum : int;
      (** largest observed sum of shard budgets — must stay within the
          machine plus one keepalive byte per pool *)
  shard_results : shard_result list;
}

let validate cfg =
  if cfg.c_shards < 2 then invalid_arg "Shards.run: need at least 2 shards";
  if cfg.c_clients < 1 then invalid_arg "Shards.run: clients < 1";
  if cfg.c_variants < 1 then invalid_arg "Shards.run: variants < 1";
  if cfg.c_think <= 0. then invalid_arg "Shards.run: think <= 0";
  if cfg.c_total / cfg.c_shards < 64 * 1024 * 1024 then
    invalid_arg "Shards.run: less than 64 MiB per shard";
  if cfg.c_warmup < 0. || cfg.c_measure <= 0. || cfg.c_slice <= 0. then
    invalid_arg "Shards.run: bad warmup/measure/slice"

let run ?trace cfg =
  validate cfg;
  let eng = Sim.Engine.create ~seed:cfg.c_seed () in
  let stop = cfg.c_warmup +. cfg.c_measure in
  let n = cfg.c_shards in
  let budget = cfg.c_total / n in
  let shard_cfg =
    {
      (Config.for_pool ~seed:cfg.c_seed budget) with
      Config.throttle_enabled = cfg.c_gateways;
      (* The whole experiment hinges on warm plan caches: shield a small
         floor (64 MiB comfortably holds every parameterized plan) so
         buffer-pool pressure cannot silently evict the warm set and turn
         the crash comparison into a no-op. *)
      plan_cache_floor_bytes = min (Dbmem.Units.mib 64) (budget / 16);
    }
  in
  let shards =
    Array.init n (fun i ->
        Shard.create ?trace eng ~index:i
          ~name:(Printf.sprintf "shard%d" i)
          shard_cfg (Workload.Sales.catalog ()))
  in
  (* One machine-level arbiter over the shard pools: symmetric claims, a
     floor of half the fair share each and a cap of twice it, so a down
     shard's memory is lendable but no survivor can swallow the machine. *)
  let arbiter =
    Qcore.Arbiter.create ?trace eng ~total:cfg.c_total
  in
  Array.iter
    (fun sh ->
      Shard.set_pool sh
        (Dbms.join_arbiter (Shard.dbms sh) arbiter ~name:(Shard.name sh)
           ~weight:1.0
           ~min_share:(0.5 /. float_of_int n)
           ~max_share:(Float.min 1.0 (2.0 /. float_of_int n))
           ~budget))
    shards;
  Qcore.Arbiter.start arbiter;
  let router = Router.create ?trace ~hedge:cfg.c_hedge eng shards in
  Router.set_measure_from router cfg.c_warmup;
  Shard.install_faults eng shards (faults_of cfg);
  (* Per-shard Chrome counters plus the budget-conservation watermark. *)
  let max_budget_sum = ref 0 in
  ignore
    (Sim.Engine.every eng ~interval:5.0 (fun () ->
         Array.iter Shard.sample shards;
         let s = Array.fold_left (fun a sh -> a + Shard.budget sh) 0 shards in
         if s > !max_budget_sum then max_budget_sum := s));
  let templates = Workload.Sales.parameterized_templates ~variants:cfg.c_variants () in
  let series = Sim.Series.create ~name:"shards" () in
  let stats = Workload.Client.make_stats () in
  let submit = Workload.Client.counting eng series (Router.submit_catch router) in
  Workload.Client.spawn_fleet eng ~seed:cfg.c_seed ~label:"client"
    ~clients:cfg.c_clients ~templates
    ~submit:(fun _ -> submit)
    ~config:
      {
        Workload.Client.default_config with
        Workload.Client.think_mean = cfg.c_think;
      }
    ~stats ~ids:(ref 0) ~until:stop;
  Sim.Engine.run eng ~until:stop;
  (* Drain: clients have stopped; give in-flight queries (including any
     abandoned hedge losers) a grace window to come home. *)
  Sim.Engine.run eng ~until:(stop +. 600.);
  let w =
    Workload.Client.window series ~start:cfg.c_warmup ~stop ~slice:cfg.c_slice
  in
  let lat = Router.latency router in
  let shard_results =
    Array.to_list
      (Array.map
         (fun sh ->
           {
             sh_name = Shard.name sh;
             sh_final_state = Shard.lifecycle_name (Shard.state sh);
             sh_crashes = Shard.crashes sh;
             sh_stalls = Shard.stalls sh;
             sh_accepted = Shard.accepted sh;
             sh_finished = Shard.finished sh;
             sh_lost = Shard.lost sh;
             sh_refused = Shard.refused sh;
             sh_recompiles = Shard.recompiles_after_rejoin sh;
             sh_cache_hit_rate =
               Plancache.Cache.hit_rate (Dbms.plan_cache (Shard.dbms sh));
             sh_budget_end = Shard.budget sh;
           })
         shards)
  in
  {
    o_config = cfg;
    slices = w.slices;
    mean_per_slice = w.mean_per_slice;
    completed = w.completed;
    submitted = Router.submitted router;
    ok = Router.ok router;
    failed = Router.failed router;
    rejected = Router.rejected router;
    spills = Router.spills router;
    hedges = Router.hedges router;
    hedge_wins = Router.hedge_wins router;
    retries = Router.retries router;
    in_flight_at_stop = Router.in_flight router;
    p50_ms = Obs.Hist.percentile_ms lat 50.;
    p99_ms = Obs.Hist.percentile_ms lat 99.;
    cl_submitted = stats.Workload.Client.submitted;
    cl_attempts = stats.Workload.Client.attempts;
    cl_succeeded = stats.Workload.Client.succeeded;
    cl_abandoned = stats.Workload.Client.abandoned;
    arb_ticks = Qcore.Arbiter.ticks arbiter;
    arb_rebalances = Qcore.Arbiter.rebalances arbiter;
    arb_moved = Qcore.Arbiter.moved_bytes arbiter;
    arb_reclaimed = Qcore.Arbiter.reclaimed_bytes arbiter;
    max_budget_sum = !max_budget_sum;
    shard_results;
  }

(* Throughput retained under a fault schedule, against the same seed's
   no-fault run: completed work per slice, fault over baseline. *)
let retention ~fault ~no_fault =
  if no_fault.mean_per_slice <= 0. then 0.
  else fault.mean_per_slice /. no_fault.mean_per_slice
