type t = {
  eng : Sim.Engine.t;
  trace : Obs.Trace.t;
  cfg : Config.t;
  cat : Optimizer.Catalog.t;
  manager : Dbmem.Manager.t;
  broker : Qcore.Broker.t;
  gov : Qcore.Compile_gov.t;
  pool : Bufpool.Pool.t;
  disk : Bufpool.Disk.t;
  cache : Plancache.Cache.t;
  grants : Execsim.Grant.t;
  cpu : Execsim.Cpu.t;
  metrics : Metrics.t;
  exec_resources : Execsim.Runner.resources;
  clerk_list : (string * Dbmem.Manager.clerk) list;
  ballast : Dbmem.Manager.clerk option;
      (* phantom external consumer, present only when faults are scheduled *)
  retry_rng : Sim.Rng.t option;
      (* jitter stream, split only when resilience is on so the disabled
         configuration replays the seed byte for byte *)
  sflight : Plancache.Singleflight.t;
      (* always present: Observe mode costs nothing and blocks nobody, it
         only counts the duplicate compiles coalescing would have saved,
         so a defenses-off run can report its duplication factor *)
  storm : Health.Storm.t;
  mutable in_flight : int;
      (* queries inside [submit] that have not settled; one still counted
         once the run has drained is stuck *)
  replay : Optimizer.Cascades.replay_memo;
      (* each join graph's search, recorded once and replayed by every
         compile of it, and the arenas of the searches that run live;
         per server, because grids run cells on parallel domains *)
}

(* Queries are named "<template>#<serial>"; the router places by the
   template so every serial of one shape lands on the same shard. *)
let template_of_qid qid =
  match String.index_opt qid '#' with
  | Some i -> String.sub qid 0 i
  | None -> qid

(* Fraction of the server's memory that execution grants share. *)
let workspace_frac = 0.45

(* Largest share of the grant workspace one query may hold. *)
let grant_max_query_frac = 0.08

(* Period of the per-clerk memory samples, seconds. *)
let metrics_interval = 5.0

(* How long a coalesced compile follower waits for its singleflight
   leader before giving up and compiling solo, seconds. *)
let sf_wait_s = 120.

let create ?(trace = Obs.Trace.null) eng cfg cat =
  let manager = Dbmem.Manager.create ~total:cfg.Config.memory_bytes () in
  if Obs.Trace.enabled trace then
    Dbmem.Manager.set_trace manager ~now:(fun () -> Sim.Engine.now eng) trace;
  let pool_clerk = Dbmem.Manager.create_clerk manager "bufpool" in
  let cache_clerk = Dbmem.Manager.create_clerk manager "plancache" in
  let compile_clerk = Dbmem.Manager.create_clerk manager "compile" in
  let exec_clerk = Dbmem.Manager.create_clerk manager "execution" in
  let disk =
    Bufpool.Disk.create eng ~spindles:cfg.Config.disk_spindles
      ~seek_s:Config.disk_seek_s
      ~throughput_bytes_per_s:cfg.Config.disk_throughput
  in
  let pool =
    Bufpool.Pool.create ~clerk:pool_clerk ~disk
      ~page_bytes:Config.page_bytes ~policy:cfg.Config.pool_policy
  in
  let cache = Plancache.Cache.create ~clerk:cache_clerk in
  let workspace =
    int_of_float (workspace_frac *. float_of_int cfg.Config.memory_bytes)
  in
  let grants =
    Execsim.Grant.create eng manager ~trace ~clerk:exec_clerk ~total:workspace
      ~max_query_frac:grant_max_query_frac
      ~timeout:cfg.Config.grant_timeout ()
  in
  let cpu = Execsim.Cpu.create eng ~cores:cfg.Config.cpus () in
  let gov =
    Qcore.Compile_gov.create eng manager ~trace ~clerk:compile_clerk
      ~cpus:cfg.Config.cpus ~config:cfg.Config.throttle
      ~enabled:cfg.Config.throttle_enabled ()
  in
  (* Caches donate under manager pressure: plan cache first, pool second.
     The configured floor shields a small warm set from the donor walk —
     with the default floor of 0 the cache donates everything, exactly the
     original behaviour. *)
  let cache_floor = cfg.Config.plan_cache_floor_bytes in
  Dbmem.Manager.register_donor manager ~clerk:cache_clerk ~priority:0
    ~shrink:(fun n ->
      let spare = max 0 (Plancache.Cache.bytes cache - cache_floor) in
      if spare = 0 then 0 else Plancache.Cache.shrink cache (min n spare));
  Dbmem.Manager.register_donor manager ~clerk:pool_clerk ~priority:1
    ~shrink:(fun n -> Bufpool.Pool.shrink pool n);
  (* Broker components and their reactions to verdicts. *)
  let broker = Qcore.Broker.create ~trace eng manager in
  let _pool_comp =
    Qcore.Broker.register broker ~name:"bufpool" ~clerk:pool_clerk ~weight:1.5
      ~min_bytes:cfg.Config.min_pool_bytes
      ~demand:(fun () -> Bufpool.Pool.demand_hint pool)
      ~notify:(fun n ->
        match n.Qcore.Broker.verdict with
        | Qcore.Broker.Must_shrink ->
            ignore (Bufpool.Pool.shrink_to pool n.Qcore.Broker.target)
        | Qcore.Broker.Hold_rate | Qcore.Broker.Can_grow -> ())
      ()
  in
  let _cache_comp =
    (* With a protected floor the cache also reports real demand (resident
       plus eviction churn) so the broker's split sees the warm set; at
       floor 0 the registration is identical to the seed's. *)
    Qcore.Broker.register broker ~name:"plancache" ~clerk:cache_clerk ~weight:0.3
      ~min_bytes:cache_floor
      ?demand:
        (if cache_floor > 0 then
           Some (fun () -> Plancache.Cache.demand_hint cache)
         else None)
      ~notify:(fun n ->
        match n.Qcore.Broker.verdict with
        | Qcore.Broker.Must_shrink ->
            let keep = max n.Qcore.Broker.target cache_floor in
            let excess = Plancache.Cache.bytes cache - keep in
            if excess > 0 then ignore (Plancache.Cache.shrink cache excess)
        | Qcore.Broker.Hold_rate | Qcore.Broker.Can_grow -> ())
      ()
  in
  let _compile_comp =
    Qcore.Broker.register broker ~name:"compile" ~clerk:compile_clerk ~weight:0.6
      ~min_bytes:(Dbmem.Units.mib 512)
      ~notify:(fun n -> Qcore.Compile_gov.on_notification gov n)
      ()
  in
  (* Execution memory is registered for accounting and target computation,
     but the resource semaphore keeps its static size: shrinking it under a
     queued large request would strand the queue head (grants are trimmed
     per query and spill instead). *)
  let _exec_comp =
    Qcore.Broker.register broker ~name:"execution" ~clerk:exec_clerk ~weight:1.2
      ~min_bytes:cfg.Config.min_workspace_bytes ()
  in
  let metrics = Metrics.create eng in
  let exec_resources =
    {
      Execsim.Runner.eng;
      cpu;
      pool;
      disk;
      grants;
      rng = Sim.Rng.split (Sim.Engine.rng eng);
    }
  in
  (* The ballast clerk models an external memory consumer (faultsim's
     phantom process). It is registered with the broker so the spike shows
     up in predictions and squeezes everyone else's target — but it
     ignores its verdicts, exactly like a process outside the DBMS. Only
     created when a fault schedule exists, so benign configurations keep
     the seed's broker arithmetic untouched. *)
  let ballast =
    match cfg.Config.faults with
    | [] -> None
    | _ :: _ ->
        let clerk = Dbmem.Manager.create_clerk manager "ballast" in
        ignore
          (Qcore.Broker.register broker ~name:"ballast" ~clerk ~weight:1.0 ());
        Some clerk
  in
  (* Split whenever resilience OR faults are configured — not just
     resilience — so a chaos A/B pair (same faults, resilience on vs off)
     consumes the engine's rng stream identically and sees the very same
     client workload. The plain seed config (no faults, no resilience)
     splits nothing, preserving seed behaviour exactly. *)
  let retry_rng =
    if cfg.Config.resilience || cfg.Config.faults <> []
    then Some (Sim.Rng.split (Sim.Engine.rng eng))
    else None
  in
  let defended = Config.defense_on cfg.Config.defense in
  let sflight =
    Plancache.Singleflight.create
      ~mode:
        (if defended then Plancache.Singleflight.Coalesce
         else Plancache.Singleflight.Observe)
      eng
  in
  (if Obs.Trace.enabled trace then
     Plancache.Singleflight.set_on_coalesce sflight (fun q ~waiters ->
         let template = Optimizer.Query.template q in
         Obs.Trace.emit trace ~time:(Sim.Engine.now eng) ~qid:template
           (Obs.Event.Singleflight_coalesce { template; waiters })));
  let storm = Health.Storm.create ~trace eng ~enabled:defended in
  Qcore.Compile_gov.set_adaptive_lifo gov defended;
  {
    eng;
    trace;
    cfg;
    cat;
    manager;
    broker;
    gov;
    pool;
    disk;
    cache;
    grants;
    cpu;
    metrics;
    exec_resources;
    clerk_list =
      ([
         ("bufpool", pool_clerk);
         ("plancache", cache_clerk);
         ("compile", compile_clerk);
         ("execution", exec_clerk);
       ]
      @ match ballast with Some c -> [ ("ballast", c) ] | None -> []);
    ballast;
    retry_rng;
    sflight;
    storm;
    in_flight = 0;
    replay = Optimizer.Cascades.create_replay_memo ();
  }

let start t =
  Qcore.Broker.start t.broker;
  Metrics.watch_memory ~trace:t.trace t.metrics
    ~interval:metrics_interval t.clerk_list

let emit t ~qid ev =
  if Obs.Trace.enabled t.trace then
    Obs.Trace.emit t.trace ~time:(Sim.Engine.now t.eng) ~qid ev

(* One query's way through [submit], shared by every stage. [degraded]
   sticks once the ladder is entered. *)
type job = {
  query : Optimizer.Query.t;
  qid : string;
  mutable degraded : bool;
}

(* What a completed query books in [settle]. *)
type completion = { compile_s : float; exec_s : float; cut_down : bool }

(* Every compilation, full or greedy, runs inside one governor session:
   begin it, run [f], then book the session's peak and end it however
   [f] left. Returns [f]'s result with the simulated seconds it took. *)
let governed t ~qid f =
  let session = Qcore.Compile_gov.begin_compile ~qid t.gov in
  let started = Sim.Engine.now t.eng in
  Fun.protect
    ~finally:(fun () ->
      Metrics.record_compile_peak t.metrics (Qcore.Compile_gov.peak session);
      Qcore.Compile_gov.end_compile session)
    (fun () -> f session)
  |> Result.map (fun r -> (r, Sim.Engine.now t.eng -. started))

(* The Cascades environment of a governed compile: allocations report to
   the governor (which may block at gateways or fail), CPU is burnt on
   the shared pool, and the search stops early when the broker predicts
   compile-memory exhaustion. The credit is the governor's. *)
let compile_env t session =
  {
    Optimizer.Env.alloc =
      (fun n ->
        match Qcore.Compile_gov.alloc session n with
        | Ok () -> Qcore.Compile_gov.credit session
        | Error { Health.Error.code = Health.Error.Memory_wait_timeout; detail } ->
            raise (Optimizer.Env.Aborted (Optimizer.Env.Gateway_timeout detail))
        | Error _ -> raise (Optimizer.Env.Aborted Optimizer.Env.Out_of_memory));
    cpu = (fun s -> Execsim.Cpu.busy t.cpu s);
    should_stop = (fun () -> Qcore.Compile_gov.should_stop_early t.gov);
  }

let abort_error = function
  | Optimizer.Env.Out_of_memory ->
      Health.Error.make ~detail:"compile" Health.Error.Insufficient_memory
  | Optimizer.Env.Gateway_timeout m ->
      Health.Error.make ~detail:m Health.Error.Memory_wait_timeout

(* The full Cascades search, inserted into the plan cache on success. *)
let compile_full t job =
  let params = t.cfg.Config.optimizer_params in
  match
    governed t ~qid:job.qid (fun session ->
        Optimizer.Cascades.optimize ~params ~replay:t.replay
          ~env:(compile_env t session) t.cfg.Config.cost_model t.cat job.query)
  with
  | Ok (r, elapsed) ->
      let compile_cost =
        float_of_int r.Optimizer.Cascades.stats.Optimizer.Cascades.tasks
        *. params.Optimizer.Cascades.task_cpu
      in
      Plancache.Cache.insert t.cache ~key:job.qid
        ~plan:r.Optimizer.Cascades.plan ~compile_cost;
      Ok (r.Optimizer.Cascades.plan, elapsed, false)
  | Error reason -> Error (abort_error reason)

(* Bottom rung of the degradation ladder: skip the memo search entirely and
   emit the greedy left-deep plan. Still governed — the (tiny) footprint is
   metered so accounting stays honest — but it passes under the first
   gateway threshold and cannot meaningfully contribute to compile-memory
   pressure. *)
let compile_greedy t job =
  emit t ~qid:job.qid (Obs.Event.Degrade { rung = "greedy" });
  let params = t.cfg.Config.optimizer_params in
  let n = Optimizer.Query.n_rels job.query in
  match
    governed t ~qid:job.qid (fun session ->
        match
          Qcore.Compile_gov.alloc session (Optimizer.Cascades.phys_bytes * n)
        with
        | Error e -> Error e
        | Ok () ->
            (* Greedy is ~n^2 candidate evaluations. *)
            Execsim.Cpu.busy t.cpu
              (params.Optimizer.Cascades.task_cpu *. float_of_int (n * n));
            let card = Optimizer.Card.create t.cat job.query in
            Ok (Optimizer.Greedy.plan t.cfg.Config.cost_model card))
  with
  | Ok (plan, elapsed) -> Ok (plan, elapsed, true)
  | Error e -> Error e

(* One compile, on the job's rung. Cached plans bypass everything: they
   cost no compile memory. Degraded plans are *not* cached — a repeat of
   the same query in calmer weather deserves the real optimizer. Full
   compiles go through singleflight, keyed on the query's statement (so
   parameterized replays of one template share a flight): the first miss
   leads and compiles, concurrent misses of the same statement coalesce
   onto it and re-probe the cache when it lands — a cold cache costs one
   compile per template, not one per client. [sf_depth] bounds the re-probe recursion: a follower woken by
   a failed (or evicted) leader re-enters at most twice, then compiles
   solo rather than chasing races. *)
let rec plan_for t ?(sf_depth = 0) job =
  match Plancache.Cache.lookup t.cache job.qid with
  | Some plan ->
      Metrics.record_cache_hit t.metrics;
      emit t ~qid:job.qid Obs.Event.Cache_hit;
      Ok (plan, 0., false)
  | None -> (
      Health.Storm.note_compile t.storm;
      if job.degraded then compile_greedy t job
      else
        match
          Plancache.Singleflight.enter t.sflight job.query ~max_wait:sf_wait_s ()
        with
        | `Leader tok ->
            Fun.protect
              ~finally:(fun () -> Plancache.Singleflight.exit t.sflight tok)
              (fun () -> compile_full t job)
        | `Coalesced when sf_depth < 2 ->
            (* The leader finished (or failed); the shared plan, if any, is
               in the cache under this query's own qid-aliased key. *)
            plan_for t ~sf_depth:(sf_depth + 1) job
        | `Duplicate (* Observe mode: counted, nobody blocks *)
        | `Coalesced | `Timed_out ->
            compile_full t job)

(* Stage 1, plan. Under any broker pressure the full search would queue
   at shrunken gateways (and likely OOM), so go straight to the cheap
   rung instead of burning a long gateway wait first. If the full search
   could not get memory, fall down the ladder at once: the greedy plan
   needs almost none, and the fall burns no retry. *)
let plan t job =
  let ladder = t.cfg.Config.resilience in
  if ladder && Qcore.Compile_gov.pressure t.gov <> Qcore.Compile_gov.Calm then
    job.degraded <- true;
  match plan_for t job with
  | Error { Health.Error.code = Health.Error.Insufficient_memory; _ }
    when ladder && not job.degraded ->
      job.degraded <- true;
      plan_for t job
  | r -> r

(* Stage 2, exec, with the ladder's exec rung: when the plan's ideal
   workspace is not physically available, rerun at once asking for the
   grant floor and spill the shortfall to disk — slower, but it
   completes while the full-size run cannot. Returns the run and whether
   its grant was cut down. *)
let exec t job plan =
  let run ?grant_cap () =
    Execsim.Runner.run ?grant_cap ~qid:job.qid t.exec_resources plan
  in
  match run () with
  | Error { Health.Error.code = Health.Error.Low_memory_condition; _ }
    when t.cfg.Config.resilience ->
      run ~grant_cap:(Execsim.Grant.min_grant t.grants) ()
      |> Result.map (fun o -> (o, true))
  | r -> Result.map (fun o -> (o, false)) r

(* One attempt: plan, then exec. A memory-wait timeout at a gateway and
   any execution failure (grant timeouts, low-memory grants — symptoms of
   a passing memory or load transient) are worth a retry; every other
   failure is final. *)
let attempt t job =
  match plan t job with
  | Error ({ Health.Error.code = Health.Error.Memory_wait_timeout; _ } as e) ->
      Error (`Retry e)
  | Error e -> Error (`Final e)
  | Ok (p, compile_s, greedy) -> (
      match exec t job p with
      | Ok (outcome, reduced) ->
          Ok
            {
              compile_s;
              exec_s = outcome.Execsim.Runner.duration;
              cut_down = greedy || reduced;
            }
      | Error e -> Error (`Retry e))

(* Stage 3, back off before attempt [n + 1]; [false] (give up) when
   resilience is off or the retries are spent. *)
let back_off t job ~n (e : Health.Error.t) =
  match t.retry_rng with
  | Some rng when t.cfg.Config.resilience && n <= Resilience.max_retries ->
      let pause = Resilience.backoff Resilience.server_backoff ~attempt:n ~rng in
      Metrics.record_retry t.metrics;
      emit t ~qid:job.qid
        (Obs.Event.Retry
           { attempt = n; pause_s = pause;
             kind = Health.Error.code_name e.Health.Error.code });
      Sim.Engine.sleep pause;
      true
  | _ -> false

let rec attempts t job n =
  match attempt t job with
  | Ok c -> Ok c
  | Error (`Final e) -> Error e
  | Error (`Retry e) ->
      if back_off t job ~n e then attempts t job (n + 1) else Error e

(* Stage 4, settle: book the query's one terminal outcome. *)
let settle t ~qid outcome =
  t.in_flight <- t.in_flight - 1;
  match outcome with
  | Ok c ->
      Metrics.record_completion t.metrics ~compile_s:c.compile_s ~exec_s:c.exec_s;
      if c.cut_down then Metrics.record_degraded t.metrics;
      Ok ()
  | Error (e : Health.Error.t) ->
      Metrics.record_error t.metrics e.Health.Error.code;
      emit t ~qid
        (Obs.Event.Query_error { kind = Health.Error.code_name e.Health.Error.code });
      Error e

let submit t q =
  t.in_flight <- t.in_flight + 1;
  let qid = q.Optimizer.Query.qid in
  settle t ~qid (attempts t { query = q; qid; degraded = false } 1)

let submit_catch t q =
  match submit t q with
  | Ok () -> Ok ()
  | Error e -> Error (Health.Error.to_string e)

(* Wire the configured fault schedule into this server's attack surface.
   [spawn_burst] is supplied by whoever owns the workload (Experiment, the
   chaos driver); without it, Client_burst specs are inert. *)
let install_faults ?spawn_burst t =
  match t.cfg.Config.faults with
  | [] -> None
  | specs ->
      let ballast_clerk =
        match t.ballast with
        | Some c -> c
        | None -> assert false (* created whenever faults <> [] *)
      in
      let hooks =
        {
          Faultsim.Injector.ballast_grab =
            (fun n ->
              match Dbmem.Manager.alloc ballast_clerk n with
              | Ok () -> true
              | Error `Out_of_memory -> false);
          ballast_release =
            (fun n ->
              Dbmem.Manager.free ballast_clerk
                (min n (Dbmem.Manager.clerk_used ballast_clerk)));
          disk_set =
            (fun ~throughput_factor ~extra_seek_s ->
              Bufpool.Disk.set_degradation t.disk ~throughput_factor
                ~extra_seek_s);
          disk_clear = (fun () -> Bufpool.Disk.clear_degradation t.disk);
          alloc_fault_set =
            (fun f -> Dbmem.Manager.set_alloc_fault t.manager (Some f));
          alloc_fault_clear =
            (fun () -> Dbmem.Manager.set_alloc_fault t.manager None);
          burst_clients =
            (match spawn_burst with
            | Some f -> f
            | None -> fun ~clients:_ ~think_mean:_ ~until:_ -> ());
          (* Shard faults only mean something one level up, where a router
             owns several engines; a single server has no shard to kill. *)
          shard_crash = (fun ~shard:_ ~restart_delay:_ -> ());
          shard_stall = (fun ~shard:_ ~duration:_ ~slow_factor:_ -> ());
        }
      in
      Some
        (Faultsim.Injector.install t.eng
           ~rng:(Sim.Rng.split (Sim.Engine.rng t.eng))
           ~hooks specs)

(* [demand] frees until [available >= goal]; aiming at current available
   plus [n] frees ~[n] bytes even while the manager is over-committed
   (available negative) after an arbiter budget cut. *)
let reclaim t n =
  if n <= 0 then 0
  else
    Dbmem.Manager.demand t.manager (Dbmem.Manager.available t.manager + n)

let join_arbiter t arb ~name ~weight ~min_share ~max_share ~budget =
  Qcore.Arbiter.register arb ~name ~weight ~min_share ~max_share ~budget
    ~used:(fun () -> Dbmem.Manager.used t.manager)
    ~demand:(fun () ->
      int_of_float
        (float_of_int (Qcore.Broker.predicted_total t.broker)
        /. (1. -. Qcore.Broker.reserved_fraction)))
    ~set_budget:(Dbmem.Manager.set_total t.manager)
    ~reclaim:(reclaim t) ()

let health_report t ?(since = 0.) () =
  {
    Health.Report.duration_s = Sim.Engine.now t.eng -. since;
    completed = Metrics.total_completions t.metrics ~since ();
    errors = Metrics.errors t.metrics;
    in_flight = t.in_flight;
  }

let engine t = t.eng
let trace t = t.trace
let config t = t.cfg
let metrics t = t.metrics
let manager t = t.manager
let broker t = t.broker
let governor t = t.gov
let pool t = t.pool
let disk t = t.disk
let plan_cache t = t.cache
let grants t = t.grants
let cpu t = t.cpu
let clerks t = t.clerk_list
let ballast_clerk t = t.ballast
let singleflight t = t.sflight
let storm_detector t = t.storm
