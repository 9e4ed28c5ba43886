(* The benchmark's three workloads, each a closed loop of simulated
   clients that wait for their reply and then think for an exponentially
   distributed time. A cell is one seeded run of a workload; [run] returns
   what a user of the system sees (a pure function of the seed) together
   with the layer counters the traced run reports. *)

type t = Sales_adhoc | Shard_storm | Midcache_rw

let all = [ Sales_adhoc; Shard_storm; Midcache_rw ]

let name = function
  | Sales_adhoc -> "sales_adhoc"
  | Shard_storm -> "shard_storm"
  | Midcache_rw -> "midcache_rw"

let of_name s = List.find_opt (fun w -> name w = s) all

type cell = {
  sim_s : float;  (** simulated seconds the engine advanced, drain included *)
  window_s : float;  (** length of the measured window *)
  window_completed : int;  (** successful queries completed in the window *)
  submitted : int;  (** distinct client queries *)
  succeeded : int;
  abandoned : int;  (** client queries that gave up: the failed ones *)
  in_flight : int;  (** client queries neither succeeded nor abandoned *)
  latencies : float array;
      (** exact submit-to-completion times in the window, seconds, when the
          benchmark owns the clients (sales_adhoc); empty otherwise *)
  p50_s : float;
  p99_s : float;
  counters : (string * float) list;
      (** layer counters read from the outcome or the components *)
  checks : (string * bool) list;  (** per-cell conservation checks *)
  fingerprint : string;
      (** every simulated output, marshalled: equal strings mean a
          bit-identical run *)
}

let exact_percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let rank = int_of_float (Float.ceil (q /. 100. *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* ------------------------------------------------------------------ *)
(* sales_adhoc: the paper's Figure 3 cell, driven from here *)

let sales_clients = 30
let sales_warmup = 300.
let sales_measure = 1800.
let sales_config seed = { (Server.Config.default ()) with Server.Config.seed }

(* Builds the cell up to its first simulated event and returns the
   closure that runs it. Mirrors [Server.Experiment.run] step for step
   (the equivalence gate holds it to that); the clients' [submit] is
   wrapped to stamp each query's latency and outcome, which consumes no
   randomness and no simulated time. *)
let sales_prepare ?trace seed =
  let cfg = sales_config seed in
  let catalog = Workload.Sales.catalog () in
  let templates = Workload.Sales.templates () in
  let eng = Sim.Engine.create ~seed () in
  let dbms = Server.Dbms.create ?trace eng cfg catalog in
  Server.Dbms.start dbms;
  let stats = Workload.Client.make_stats () in
  let ids = ref 0 in
  let stop = sales_warmup +. sales_measure in
  let client_config = Workload.Client.default_config in
  (* qid -> (first submit time, failed attempts so far) *)
  let open_queries = Hashtbl.create 64 in
  let ok = ref 0 and failed = ref 0 and lat = ref [] in
  let submit q =
    let qid = q.Optimizer.Query.qid in
    let t0, fails =
      match Hashtbl.find_opt open_queries qid with
      | Some v -> v
      | None ->
          let v = (Sim.Engine.now eng, 0) in
          Hashtbl.add open_queries qid v;
          v
    in
    let r = Server.Dbms.submit_catch dbms q in
    (match r with
    | Ok () ->
        Hashtbl.remove open_queries qid;
        incr ok;
        let now = Sim.Engine.now eng in
        if now >= sales_warmup then lat := (now -. t0) :: !lat
    | Error _ when fails + 1 >= client_config.Workload.Client.max_attempts ->
        Hashtbl.remove open_queries qid;
        incr failed
    | Error _ -> Hashtbl.replace open_queries qid (t0, fails + 1));
    r
  in
  let client_rng = Sim.Rng.split (Sim.Engine.rng eng) in
  for i = 1 to sales_clients do
    Workload.Client.spawn eng client_rng
      ~name:(Printf.sprintf "client-%d" i)
      ~templates ~submit ~config:client_config ~stats ~ids ~until:stop
  done;
  fun () ->
    Sim.Engine.run eng ~until:stop;
    let metrics = Server.Dbms.metrics dbms in
    let latencies = Array.of_list (List.rev !lat) in
    let s = sorted latencies in
    let sf = Server.Dbms.singleflight dbms in
    let pool = Server.Dbms.pool dbms in
    let submitted = stats.Workload.Client.submitted in
    let in_flight = Hashtbl.length open_queries in
    let window_completed =
      Server.Metrics.total_completions metrics ~since:sales_warmup ()
    in
    let total_errors = Server.Metrics.total_errors metrics in
    {
      sim_s = Sim.Engine.now eng;
      window_s = sales_measure;
      window_completed;
      submitted;
      succeeded = stats.Workload.Client.succeeded;
      abandoned = stats.Workload.Client.abandoned;
      in_flight;
      latencies;
      p50_s = exact_percentile s 50.;
      p99_s = exact_percentile s 99.;
      counters =
        [
          ("sim.events", float_of_int (Sim.Engine.events_executed eng));
          ("bufpool.hits", float_of_int (Bufpool.Pool.hits pool));
          ("bufpool.misses", float_of_int (Bufpool.Pool.misses pool));
          ( "plancache.dup_compiles",
            float_of_int
              (Plancache.Singleflight.duplicates sf
              - Plancache.Singleflight.coalesced sf) );
          ("plancache.coalesced", float_of_int (Plancache.Singleflight.coalesced sf));
          ("server.attempts", float_of_int stats.Workload.Client.attempts);
          ("server.errors", float_of_int total_errors);
        ];
      checks =
        [
          ( "client conservation",
            submitted = stats.Workload.Client.succeeded
                        + stats.Workload.Client.abandoned + in_flight );
          ("wrapper saw every success", !ok = stats.Workload.Client.succeeded);
          ("wrapper saw every abandon", !failed = stats.Workload.Client.abandoned);
          ("at most one query per client", in_flight <= sales_clients);
          ("no engine failures", Sim.Engine.failures eng = []);
        ];
      fingerprint =
        Marshal.to_string
          ( window_completed,
            total_errors,
            ( submitted,
              stats.Workload.Client.attempts,
              stats.Workload.Client.succeeded,
              stats.Workload.Client.abandoned ),
            latencies,
            Sim.Engine.now eng )
          [ Marshal.No_sharing ];
    }

(* The library's own runner for the same cell: the reference the
   equivalence gate compares [sales_prepare] against. *)
let sales_reference seed =
  let r =
    Server.Experiment.run ~config:(sales_config seed) ~clients:sales_clients
      ~warmup:sales_warmup ~measure:sales_measure ~slice:60. ()
  in
  let cs = r.Server.Experiment.client_stats in
  ( r.Server.Experiment.total_completed,
    r.Server.Experiment.total_errors,
    ( cs.Workload.Client.submitted,
      cs.Workload.Client.attempts,
      cs.Workload.Client.succeeded,
      cs.Workload.Client.abandoned ) )

let sales_summary c =
  let get k = int_of_float (List.assoc k c.counters) in
  ( c.window_completed,
    get "server.errors",
    (c.submitted, get "server.attempts", c.succeeded, c.abandoned) )

(* ------------------------------------------------------------------ *)
(* shard_storm: Server.Storms, three shards and a mass invalidation *)

let storm_config seed = { Server.Storms.default_config with s_seed = seed }

let storm_cell (o : Server.Storms.outcome) =
  let cfg = o.Server.Storms.o_config in
  let window_completed =
    Array.fold_left (fun a (_, v) -> a + int_of_float v) 0 o.Server.Storms.slices
  in
  let in_flight =
    o.Server.Storms.cl_submitted - o.Server.Storms.cl_succeeded
    - o.Server.Storms.cl_abandoned
  in
  {
    sim_s = cfg.Server.Storms.s_warmup +. cfg.Server.Storms.s_measure +. 600.;
    window_s = cfg.Server.Storms.s_measure;
    window_completed;
    submitted = o.Server.Storms.cl_submitted;
    succeeded = o.Server.Storms.cl_succeeded;
    abandoned = o.Server.Storms.cl_abandoned;
    in_flight;
    latencies = [||];
    p50_s = o.Server.Storms.p50_ms /. 1000.;
    p99_s = o.Server.Storms.p99_ms /. 1000.;
    counters =
      [
        ("server.retry_amp", o.Server.Storms.retry_amp);
        ("router.retries", float_of_int o.Server.Storms.retries);
        ("server.attempts", float_of_int o.Server.Storms.submitted);
        ("plancache.dup_compiles", float_of_int o.Server.Storms.dup_compiles);
        ("plancache.coalesced", float_of_int o.Server.Storms.coalesced);
      ];
    checks =
      [
        (* The runner reports no in-flight count of its own, so client
           conservation reduces to a bound on the derived one. *)
        ("client queries in flight are non-negative", in_flight >= 0);
        ("at most one query per client", in_flight <= cfg.Server.Storms.s_clients);
        ( "router conservation",
          o.Server.Storms.submitted
          = o.Server.Storms.ok + o.Server.Storms.failed
            + o.Server.Storms.in_flight_at_stop );
        ("router successes reach clients", o.Server.Storms.ok = o.Server.Storms.cl_succeeded);
      ];
    fingerprint = Marshal.to_string o [ Marshal.No_sharing ];
  }

(* ------------------------------------------------------------------ *)
(* midcache_rw: Server.Cached in brokered mode, with writers *)

(* Seven and a half times the default window, so every cell holds over a
   thousand completions and its p99 has ten samples beyond it. *)
let cached_config seed =
  {
    Server.Cached.default_config with
    k_mode = Server.Cached.Cache_brokered;
    k_measure = 6000.;
    k_seed = seed;
  }

let cached_cell (o : Server.Cached.outcome) =
  let cfg = o.Server.Cached.o_config in
  let in_flight =
    o.Server.Cached.cl_submitted - o.Server.Cached.cl_succeeded
    - o.Server.Cached.cl_abandoned
  in
  {
    sim_s = cfg.Server.Cached.k_warmup +. cfg.Server.Cached.k_measure +. 300.;
    window_s = cfg.Server.Cached.k_measure;
    window_completed = o.Server.Cached.completed;
    submitted = o.Server.Cached.cl_submitted;
    succeeded = o.Server.Cached.cl_succeeded;
    abandoned = o.Server.Cached.cl_abandoned;
    in_flight;
    latencies = [||];
    p50_s = o.Server.Cached.p50_ms /. 1000.;
    p99_s = o.Server.Cached.p99_ms /. 1000.;
    counters =
      [
        ("server.attempts", float_of_int o.Server.Cached.requests);
        ("midcache.writes", float_of_int o.Server.Cached.writes);
        ("midcache.invalidated", float_of_int o.Server.Cached.invalidated);
      ];
    checks =
      [
        ("client queries in flight are non-negative", in_flight >= 0);
        ("at most one query per client", in_flight <= cfg.Server.Cached.k_clients);
        ( "every request is a hit, miss or bypass",
          o.Server.Cached.requests
          = o.Server.Cached.hits + o.Server.Cached.misses + o.Server.Cached.bypasses );
        ( "writes invalidate only stored entries",
          o.Server.Cached.invalidated <= o.Server.Cached.stores );
      ];
    fingerprint = Marshal.to_string o [ Marshal.No_sharing ];
  }

(* ------------------------------------------------------------------ *)

(* One cell. Engine failures surface as exceptions from the library
   runners; the benchmark reports them as a failed check. *)
let run ?trace w seed =
  match w with
  | Sales_adhoc -> sales_prepare ?trace seed ()
  | Shard_storm -> storm_cell (Server.Storms.run ?trace (storm_config seed))
  | Midcache_rw -> cached_cell (Server.Cached.run ?trace (cached_config seed))

(* Set-up: the inputs and an idle server, everything a cell builds before
   its first simulated event. sales_adhoc times its own preparation.
   [Server.Storms.run] and [Server.Cached.run] build everything inside
   themselves, so for those two the set-up is a replica of their code up
   to [Sim.Engine.run]: the same configs field for field, the same
   components, timers and client spawns. A replica can drift from the
   runner it copies; each one names the runner lines it follows. *)

(* [Server.Storms.run], from [validate] to the client spawns. *)
let storm_setup seed =
  let open Server in
  let cfg = storm_config seed in
  Storms.validate cfg;
  let eng = Sim.Engine.create ~seed:cfg.Storms.s_seed () in
  let stop = cfg.Storms.s_warmup +. cfg.Storms.s_measure in
  let n = cfg.Storms.s_shards in
  let budget = cfg.Storms.s_total / n in
  let base = Config.default () in
  let defense = Storms.defense_of cfg in
  let shard_cfg =
    {
      base with
      Config.memory_bytes = budget;
      seed = cfg.Storms.s_seed;
      throttle_enabled = true;
      disk_spindles = 64;
      disk_throughput = 320. *. 1024. *. 1024.;
      optimizer_params =
        {
          base.Config.optimizer_params with
          Optimizer.Cascades.task_cpu =
            3.0 *. base.Config.optimizer_params.Optimizer.Cascades.task_cpu;
        };
      throttle =
        {
          base.Config.throttle with
          Qcore.Throttle_config.levels =
            List.mapi
              (fun i l ->
                let patience = match i with 0 -> 30. | 1 -> 45. | _ -> 90. in
                { l with Qcore.Throttle_config.timeout = patience })
              base.Config.throttle.Qcore.Throttle_config.levels;
        };
      defense;
      min_pool_bytes = min base.Config.min_pool_bytes (budget / 8);
      min_workspace_bytes = min base.Config.min_workspace_bytes (budget / 8);
      plan_cache_floor_bytes = min (Dbmem.Units.mib 512) (budget / 8);
    }
  in
  let shards =
    Array.init n (fun i ->
        Shard.create eng ~index:i
          ~name:(Printf.sprintf "shard%d" i)
          shard_cfg (Workload.Sales.catalog ()))
  in
  let router = Router.create eng shards in
  Router.set_measure_from router cfg.Storms.s_warmup;
  (* The benchmark's storm is the default mass invalidation. *)
  assert (cfg.Storms.s_schedule = Storms.Mass_invalidation);
  ignore
    (Sim.Engine.schedule eng ~delay:(Storms.fault_at cfg) (fun () ->
         Array.iter
           (fun sh ->
             let cache = Dbms.plan_cache (Shard.dbms sh) in
             ignore (Plancache.Cache.shrink cache (Plancache.Cache.bytes cache)))
           shards));
  ignore (Sim.Engine.every eng ~interval:5.0 (fun () -> Array.iter Shard.sample shards));
  let templates =
    Workload.Sales.parameterized_templates ~variants:cfg.Storms.s_variants ()
  in
  let series = Sim.Series.create ~name:"storms" () in
  let stats = Workload.Client.make_stats () in
  let ids = ref 0 in
  for i = 1 to cfg.Storms.s_clients do
    let cname = Printf.sprintf "client-%d" i in
    let budget =
      match defense.Config.d_budget with
      | Some bcfg when cfg.Storms.s_defenses -> Some (Resilience.Budget.create bcfg)
      | _ -> None
    in
    let submit q =
      let r = Router.submit_catch ?budget router q in
      (match r with
      | Ok () -> Sim.Series.add series ~time:(Sim.Engine.now eng) 1.
      | Error _ -> ());
      r
    in
    let start =
      float_of_int (i - 1)
      *. (0.5 *. cfg.Storms.s_warmup /. float_of_int cfg.Storms.s_clients)
    in
    Workload.Client.spawn eng ~start
      (Sim.Rng.create (cfg.Storms.s_seed lxor Hashtbl.hash cname))
      ~name:cname ~templates ~submit
      ~config:
        { Workload.Client.default_config with Workload.Client.think_mean = cfg.Storms.s_think }
      ~stats ~ids ~until:stop
  done

(* [Cached.writer_targets]: every dimension but the three each query
   joins. One write in twenty reloads the fact table instead. *)
let writer_targets =
  List.filter
    (fun d -> not (List.mem d [ "customer"; "product"; "date_dim" ]))
    Workload.Sales.dimensions

(* [Server.Cached.run] in brokered mode, from [validate] to the writer
   spawns. *)
let cached_setup seed =
  let open Server in
  let cfg = cached_config seed in
  Cached.validate cfg;
  (* No ballast and no flash crowds: [Cached.faults_of] is empty and no
     flash client is spawned. *)
  assert (cfg.Cached.k_ballast_gib = 0. && cfg.Cached.k_flash = []);
  let eng = Sim.Engine.create ~seed:cfg.Cached.k_seed () in
  let stop = cfg.Cached.k_warmup +. cfg.Cached.k_measure in
  let base = Config.default () in
  let server_cfg =
    {
      base with
      Config.memory_bytes = cfg.Cached.k_memory;
      seed = cfg.Cached.k_seed;
      min_pool_bytes = min base.Config.min_pool_bytes (cfg.Cached.k_memory / 8);
      min_workspace_bytes = min base.Config.min_workspace_bytes (cfg.Cached.k_memory / 8);
      plan_cache_floor_bytes = min (Dbmem.Units.mib 64) (cfg.Cached.k_memory / 16);
      faults = [];
    }
  in
  let dbms = Dbms.create eng server_cfg (Workload.Sales.catalog ()) in
  (* [Cached.cache_floor]. *)
  let cache_floor = Dbmem.Units.mib 16 in
  let clerk = Dbmem.Manager.create_clerk (Dbms.manager dbms) "midcache" in
  let cache =
    Midcache.Cache.create
      ~charge:(fun n ->
        match Dbmem.Manager.alloc clerk n with
        | Ok () -> true
        | Error `Out_of_memory -> false)
      ~release:(fun n -> Dbmem.Manager.free clerk n)
      ~budget:cfg.Cached.k_cache_bytes
      { Midcache.Cache.default_config with ttl = cfg.Cached.k_ttl }
  in
  let shrink_to target =
    let target = max cache_floor target in
    if Midcache.Cache.resident cache > target then
      ignore (Midcache.Cache.shrink cache (Midcache.Cache.resident cache - target));
    Midcache.Cache.set_budget cache target
  in
  ignore
    (Qcore.Broker.register (Dbms.broker dbms) ~name:"midcache" ~clerk ~weight:2.0
       ~min_bytes:cache_floor
       ~demand:(fun () -> Midcache.Cache.demand_hint cache)
       ~notify:(fun (n : Qcore.Broker.notification) ->
         match n.verdict with
         | Qcore.Broker.Must_shrink -> shrink_to n.target
         | Qcore.Broker.Can_grow -> Midcache.Cache.set_budget cache cfg.Cached.k_cache_bytes
         | Qcore.Broker.Hold_rate -> ())
       ~reclaim:(fun wanted -> Midcache.Cache.shrink cache wanted)
       ());
  Dbms.start dbms;
  ignore (Dbms.install_faults dbms);
  let frontend =
    Midcache.Frontend.create ~hit_latency:cfg.Cached.k_hit_latency eng
      ~cache:(Some cache)
      ~submit:(fun q -> Dbms.submit_catch dbms q)
      ()
  in
  let series = Sim.Series.create ~name:"cached" () in
  let lat = Obs.Hist.create () in
  let submit q =
    let t0 = Sim.Engine.now eng in
    let r = Midcache.Frontend.submit frontend q in
    (match r with
    | Ok () ->
        let now = Sim.Engine.now eng in
        Sim.Series.add series ~time:now 1.;
        if now >= cfg.Cached.k_warmup then
          Obs.Hist.add lat (int_of_float (Float.round ((now -. t0) *. 1e6)))
    | Error _ -> ());
    r
  in
  let resident_peak = ref 0 in
  ignore
    (Sim.Engine.every eng ~interval:5.0 (fun () ->
         let resident = Midcache.Cache.resident cache in
         if resident > !resident_peak then resident_peak := resident));
  let templates =
    Workload.Mix.mixed_templates ~ratio:cfg.Cached.k_ratio ~variants:cfg.Cached.k_variants ()
  in
  let stats = Workload.Client.make_stats () in
  let ids = ref 0 in
  let think_of = Workload.Mix.think_of ?diurnal:cfg.Cached.k_diurnal ~base:cfg.Cached.k_think () in
  for i = 1 to cfg.Cached.k_clients do
    let cname = Printf.sprintf "client-%d" i in
    Workload.Client.spawn eng
      (Sim.Rng.create (cfg.Cached.k_seed lxor Hashtbl.hash cname))
      ~name:cname ~templates ~submit
      ~config:{ Workload.Client.default_config with Workload.Client.think_mean = cfg.Cached.k_think }
      ~stats ~ids ~until:stop ~think_of
  done;
  let writes = ref 0 in
  for i = 1 to cfg.Cached.k_writers do
    let wname = Printf.sprintf "writer-%d" i in
    let rng = Sim.Rng.create (cfg.Cached.k_seed lxor Hashtbl.hash wname) in
    Sim.Engine.spawn eng ~name:wname (fun () ->
        while Sim.Engine.now eng < stop do
          Sim.Engine.sleep (Sim.Rng.exponential rng ~mean:cfg.Cached.k_write_think);
          if Sim.Engine.now eng < stop then begin
            let rel =
              if Sim.Rng.float rng 1.0 < 0.05 then Workload.Sales.fact_table
              else
                List.nth writer_targets (Sim.Rng.int rng (List.length writer_targets))
            in
            incr writes;
            Midcache.Frontend.write frontend ~rels:[ rel ]
          end
        done)
  done

let setup w seed =
  match w with
  | Sales_adhoc ->
      let (_run : unit -> cell) = sales_prepare seed in
      ()
  | Shard_storm -> storm_setup seed
  | Midcache_rw -> cached_setup seed
