(* Mixed-traffic experiment: a Midcache statement/result cache between
   the clients and Dbms.submit, across cache-off / cache-fixed /
   cache-brokered modes. Hits bypass the compile gateways entirely;
   the cache's footprint competes for the same physical memory as the
   engine's own caches, and in brokered mode it answers to the broker
   like any other component. *)

type mode = Cache_off | Cache_fixed | Cache_brokered

let mode_name = function
  | Cache_off -> "cache-off"
  | Cache_fixed -> "cache-fixed"
  | Cache_brokered -> "cache-brokered"

type config = {
  k_mode : mode;
  k_clients : int;
  k_think : float;
  k_ratio : float;
  k_variants : int;
  k_writers : int;
  k_write_think : float;
  k_warmup : float;
  k_measure : float;
  k_slice : float;
  k_memory : int;
  k_cache_bytes : int;
  k_ttl : float;
  k_hit_latency : float;
  k_ballast_gib : float;
  k_diurnal : Workload.Mix.diurnal option;
  k_flash : Workload.Mix.flash list;
  k_seed : int;
}

let default_config =
  {
    k_mode = Cache_brokered;
    (* 16 clients on 4 GiB load the machine without saturating it: the
       calm baseline leaves the brokered cache unsqueezed, so injected
       ballast (not ambient pressure) is what forces the shrinks. *)
    k_clients = 16;
    k_think = 30.;
    k_ratio = 0.6;
    k_variants = 32;
    k_writers = 2;
    k_write_think = 120.;
    k_warmup = 200.;
    k_measure = 800.;
    k_slice = 60.;
    k_memory = Dbmem.Units.gib 4;
    k_cache_bytes = Dbmem.Units.mib 256;
    k_ttl = 600.;
    k_hit_latency = 0.02;
    k_ballast_gib = 0.;
    k_diurnal = None;
    k_flash = [];
    k_seed = 42;
  }

(* The broker can squeeze the cache, but never below a working floor:
   a cache evicted to zero under every transient spike would thrash. *)
let cache_floor = Dbmem.Units.mib 16

let validate cfg =
  if cfg.k_clients < 1 then invalid_arg "Cached.run: clients < 1";
  if cfg.k_think <= 0. then invalid_arg "Cached.run: think <= 0";
  if cfg.k_ratio < 0. || cfg.k_ratio > 1. then
    invalid_arg "Cached.run: ratio outside [0, 1]";
  if cfg.k_variants < 1 then invalid_arg "Cached.run: variants < 1";
  if cfg.k_writers < 0 then invalid_arg "Cached.run: writers < 0";
  if cfg.k_warmup < 0. || cfg.k_measure <= 0. || cfg.k_slice <= 0. then
    invalid_arg "Cached.run: bad warmup/measure/slice";
  if cfg.k_memory < Dbmem.Units.mib 512 then
    invalid_arg "Cached.run: less than 512 MiB of machine memory";
  (if cfg.k_mode <> Cache_off then
     if cfg.k_cache_bytes < cache_floor then
       invalid_arg "Cached.run: cache budget under the 16 MiB floor");
  if cfg.k_hit_latency < 0. then invalid_arg "Cached.run: hit latency < 0";
  if cfg.k_ballast_gib < 0. then invalid_arg "Cached.run: ballast < 0"

type outcome = {
  o_config : config;
  slices : (float * float) array;
  mean_per_slice : float;
  completed : int;
  requests : int;
  hits : int;
  misses : int;
  bypasses : int;
  stores : int;
  refused : int;
  evictions : int;
  expired : int;
  invalidated : int;
  cache_hit_rate : float;
  shrink_events : int;
  shrink_freed : int;
  resident_end : int;
  resident_peak : int;
  budget_end : int;
  gw_acquires : int;
  gw_timeouts : int;
  gw_wait_mean_s : float;
  compiles : int;
  plan_hits : int;
  compile_peak_max : float;
  compile_peak_mean : float;
  ooms : int;
  p50_ms : float;
  p99_ms : float;
  cl_submitted : int;
  cl_succeeded : int;
  cl_abandoned : int;
  writes : int;
  inv_entries : int;
}

(* The ballast lands a third into the measure window, ramps over a fifth
   of it, and holds for a quarter: the tail of the window shows the
   post-pressure recovery. Measure-relative so smoke runs shrink the
   outage with them. *)
let faults_of cfg =
  if cfg.k_ballast_gib <= 0. then []
  else
    let ramp_steps = 60 in
    [
      Faultsim.Fault.Memory_ballast
        {
          at = cfg.k_warmup +. (0.3 *. cfg.k_measure);
          bytes = Dbmem.Units.of_gib cfg.k_ballast_gib;
          hold = 0.25 *. cfg.k_measure;
          ramp_steps;
          step_s = 0.2 *. cfg.k_measure /. float_of_int ramp_steps;
        };
    ]

(* Writers update dimension tables. Most writes touch one of the optional
   dimensions — invalidating the subset of cached results that join it —
   while one in twenty reloads the fact table, wiping every entry (bulk
   load). The three core dimensions every query joins are left alone:
   writing them would make every write a full wipe and bury the
   partial-invalidation behaviour the relation index exists for. *)
let writer_targets =
  List.filter
    (fun d -> not (List.mem d [ "customer"; "product"; "date_dim" ]))
    Workload.Sales.dimensions

let run ?(trace = Obs.Trace.null) cfg =
  validate cfg;
  let eng = Sim.Engine.create ~seed:cfg.k_seed () in
  let stop = cfg.k_warmup +. cfg.k_measure in
  let server_cfg =
    {
      (Config.for_pool ~seed:cfg.k_seed cfg.k_memory) with
      Config.plan_cache_floor_bytes =
        min (Dbmem.Units.mib 64) (cfg.k_memory / 16);
      faults = faults_of cfg;
    }
  in
  let dbms = Dbms.create ~trace eng server_cfg (Workload.Sales.catalog ()) in
  let shrink_events = ref 0 in
  let shrink_freed = ref 0 in
  let emit ev =
    if Obs.Trace.enabled trace then
      Obs.Trace.emit trace ~time:(Sim.Engine.now eng) ~qid:"" ev
  in
  let cache =
    match cfg.k_mode with
    | Cache_off -> None
    | Cache_fixed | Cache_brokered ->
        let clerk =
          Dbmem.Manager.create_clerk (Dbms.manager dbms) "midcache"
        in
        let cache =
          Midcache.Cache.create
            ~charge:(fun n ->
              match Dbmem.Manager.alloc clerk n with
              | Ok () -> true
              | Error `Out_of_memory -> false)
            ~release:(fun n -> Dbmem.Manager.free clerk n)
            ~budget:cfg.k_cache_bytes
            { Midcache.Cache.default_config with ttl = cfg.k_ttl }
        in
        (if cfg.k_mode = Cache_brokered then
           let shrink wanted =
             let freed = Midcache.Cache.shrink cache wanted in
             if freed > 0 then begin
               incr shrink_events;
               shrink_freed := !shrink_freed + freed;
               emit (Obs.Event.Midcache_shrink { wanted; freed })
             end;
             freed
           in
           let shrink_to target =
             let target = max cache_floor target in
             let r = Midcache.Cache.resident cache in
             if r > target then ignore (shrink (r - target));
             Midcache.Cache.set_budget cache target
           in
           ignore
             (Qcore.Broker.register (Dbms.broker dbms) ~name:"midcache"
                ~clerk ~weight:2.0 ~min_bytes:cache_floor
                ~demand:(fun () -> Midcache.Cache.demand_hint cache)
                ~notify:(fun (n : Qcore.Broker.notification) ->
                  match n.verdict with
                  | Qcore.Broker.Must_shrink -> shrink_to n.target
                  | Qcore.Broker.Can_grow ->
                      Midcache.Cache.set_budget cache cfg.k_cache_bytes
                  | Qcore.Broker.Hold_rate -> ())
                ()));
        Some cache
  in
  Dbms.start dbms;
  ignore (Dbms.install_faults dbms);
  let frontend =
    Midcache.Frontend.create ~trace ~hit_latency:cfg.k_hit_latency eng ~cache
      ~submit:(fun q -> Dbms.submit_catch dbms q)
      ()
  in
  let series = Sim.Series.create ~name:"cached" () in
  let lat = Obs.Hist.create () in
  let submit =
    Workload.Client.counting eng series (fun q ->
        let t0 = Sim.Engine.now eng in
        let r = Midcache.Frontend.submit frontend q in
        let now = Sim.Engine.now eng in
        if Result.is_ok r && now >= cfg.k_warmup then
          Obs.Hist.add lat (int_of_float (Float.round ((now -. t0) *. 1e6)));
        r)
  in
  (* Periodic cache counters for the Chrome trace plus the resident
     watermark the outcome reports. *)
  let resident_peak = ref 0 in
  (match cache with
  | None -> ()
  | Some c ->
      ignore
        (Sim.Engine.every eng ~interval:5.0 (fun () ->
             let resident = Midcache.Cache.resident c in
             if resident > !resident_peak then resident_peak := resident;
             emit
               (Obs.Event.Midcache_sample
                  {
                    resident;
                    mc_budget = Midcache.Cache.budget c;
                    mc_entries = Midcache.Cache.entries c;
                    hit_rate_pct =
                      int_of_float
                        (Float.round (100. *. Midcache.Cache.hit_rate c));
                  }))));
  let templates =
    Workload.Mix.mixed_templates ~ratio:cfg.k_ratio ~variants:cfg.k_variants
      ()
  in
  let stats = Workload.Client.make_stats () in
  let ids = ref 0 in
  Workload.Client.spawn_fleet eng ~seed:cfg.k_seed ~label:"client"
    ~clients:cfg.k_clients ~templates
    ~submit:(fun _ -> submit)
    ~config:
      {
        Workload.Client.default_config with
        Workload.Client.think_mean = cfg.k_think;
      }
    ~stats ~ids ~until:stop
    ~think_of:(Workload.Mix.think_of ?diurnal:cfg.k_diurnal ~base:cfg.k_think ());
  List.iter
    (fun f ->
      Workload.Mix.spawn_flash eng ~seed:cfg.k_seed ~label:"flash" ~templates
        ~submit ~stats ~ids f)
    cfg.k_flash;
  let writes = ref 0 in
  for i = 1 to cfg.k_writers do
    let wname = Printf.sprintf "writer-%d" i in
    let rng = Sim.Rng.create (cfg.k_seed lxor Hashtbl.hash wname) in
    Sim.Engine.spawn eng ~name:wname (fun () ->
        while Sim.Engine.now eng < stop do
          Sim.Engine.sleep (Sim.Rng.exponential rng ~mean:cfg.k_write_think);
          if Sim.Engine.now eng < stop then begin
            let rel =
              if Sim.Rng.float rng 1.0 < 0.05 then Workload.Sales.fact_table
              else
                List.nth writer_targets
                  (Sim.Rng.int rng (List.length writer_targets))
            in
            incr writes;
            Midcache.Frontend.write frontend ~rels:[ rel ]
          end
        done)
  done;
  Sim.Engine.run eng ~until:stop;
  (* Drain: clients have stopped; give in-flight queries a grace window
     to come home before the books are read. *)
  Sim.Engine.run eng ~until:(stop +. 300.);
  let w =
    Workload.Client.window series ~start:cfg.k_warmup ~stop ~slice:cfg.k_slice
  in
  let monitors = Qcore.Compile_gov.monitors (Dbms.governor dbms) in
  let gw_acquires =
    Array.fold_left (fun a m -> a + Qcore.Monitor.acquires m) 0 monitors
  in
  let gw_timeouts =
    Array.fold_left (fun a m -> a + Qcore.Monitor.timeouts m) 0 monitors
  in
  let gw_wait_mean_s =
    let n = ref 0 and sum = ref 0. in
    Array.iter
      (fun m ->
        let s = Qcore.Monitor.wait_stats m in
        n := !n + Sim.Stats.Online.count s;
        sum := !sum +. Sim.Stats.Online.total s)
      monitors;
    if !n = 0 then 0. else !sum /. float_of_int !n
  in
  let metrics = Dbms.metrics dbms in
  let peak = Metrics.compile_peak metrics in
  {
    o_config = cfg;
    slices = w.slices;
    mean_per_slice = w.mean_per_slice;
    completed = w.completed;
    requests = Midcache.Frontend.requests frontend;
    hits = Midcache.Frontend.hits frontend;
    misses = Midcache.Frontend.misses frontend;
    bypasses = Midcache.Frontend.bypasses frontend;
    stores =
      (match cache with None -> 0 | Some c -> Midcache.Cache.stores c);
    refused =
      (match cache with None -> 0 | Some c -> Midcache.Cache.refused c);
    evictions =
      (match cache with None -> 0 | Some c -> Midcache.Cache.evictions c);
    expired =
      (match cache with None -> 0 | Some c -> Midcache.Cache.expired c);
    invalidated =
      (match cache with None -> 0 | Some c -> Midcache.Cache.invalidated c);
    cache_hit_rate =
      (match cache with None -> 0. | Some c -> Midcache.Cache.hit_rate c);
    shrink_events = !shrink_events;
    shrink_freed = !shrink_freed;
    resident_end =
      (match cache with None -> 0 | Some c -> Midcache.Cache.resident c);
    resident_peak = !resident_peak;
    budget_end =
      (match cache with None -> 0 | Some c -> Midcache.Cache.budget c);
    gw_acquires;
    gw_timeouts;
    gw_wait_mean_s;
    compiles = Metrics.total_completions metrics ();
    plan_hits = Metrics.cache_hits metrics;
    compile_peak_max =
      (if Sim.Stats.Online.count peak = 0 then 0.
       else Sim.Stats.Online.max peak);
    compile_peak_mean =
      (if Sim.Stats.Online.count peak = 0 then 0.
       else Sim.Stats.Online.mean peak);
    ooms = Dbmem.Manager.oom_count (Dbms.manager dbms);
    p50_ms = Obs.Hist.percentile_ms lat 50.;
    p99_ms = Obs.Hist.percentile_ms lat 99.;
    cl_submitted = stats.Workload.Client.submitted;
    cl_succeeded = stats.Workload.Client.succeeded;
    cl_abandoned = stats.Workload.Client.abandoned;
    writes = !writes;
    inv_entries = Midcache.Frontend.invalidated_entries frontend;
  }

let uplift o ~over =
  if over.mean_per_slice <= 0. then 0.
  else o.mean_per_slice /. over.mean_per_slice
