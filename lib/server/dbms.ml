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
  super : Health.Supervise.t;
      (* always built; inert unless [Config.supervision] is on *)
  sflight : Plancache.Singleflight.t;
      (* always present: Observe mode costs nothing and blocks nobody, it
         only counts the duplicate compiles coalescing would have saved,
         so a defenses-off run can report its duplication factor *)
  storm : Health.Storm.t;
  prime_reps : (string, Optimizer.Query.t) Hashtbl.t;
      (* one representative query per template, for warm-priming *)
  template_counts : (string, int) Hashtbl.t;
      (* submissions per template: the popularity order priming follows *)
  mutable primed : int;
  mutable arenas : Optimizer.Cascades.arena list;
      (* free pool of memo arenas, one per concurrent compile: compiles
         suspend at governor gateways, so in-flight searches cannot share
         storage. Steady state settles at the compile-concurrency
         high-water mark and every compile reuses grown memo structures *)
}

let acquire_arena t =
  match t.arenas with
  | a :: rest ->
      t.arenas <- rest;
      a
  | [] -> Optimizer.Cascades.create_arena ()

let release_arena t a = t.arenas <- a :: t.arenas

(* Queries are named "<template>#<serial>"; the breaker keys on the
   template so a poison shape trips without condemning its siblings. *)
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
  let cache = Plancache.Cache.create manager ~clerk:cache_clerk in
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
  (* Broker components and their reactions to verdicts. With supervision
     on, the broker also insists: a component that ignores
     [Health.Supervise.insist_after] consecutive shrink verdicts is shrunk
     by force through its reclaim hook — the paper's "broker insists". *)
  let broker =
    Qcore.Broker.create ~trace
      ~insist_after:
        (if cfg.Config.supervision then Health.Supervise.insist_after else 0)
      eng manager
  in
  let _pool_comp =
    Qcore.Broker.register broker ~name:"bufpool" ~clerk:pool_clerk ~weight:1.5
      ~min_bytes:cfg.Config.min_pool_bytes
      ~demand:(fun () -> Bufpool.Pool.demand_hint pool)
      ~notify:(fun n ->
        match n.Qcore.Broker.verdict with
        | Qcore.Broker.Must_shrink ->
            ignore (Bufpool.Pool.shrink_to pool n.Qcore.Broker.target)
        | Qcore.Broker.Hold_rate | Qcore.Broker.Can_grow -> ())
      ~reclaim:(fun n -> Bufpool.Pool.shrink pool n)
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
      ~reclaim:(fun n -> Plancache.Cache.shrink cache n)
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
  let super =
    Health.Supervise.create ~trace eng ~enabled:cfg.Config.supervision
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
     Plancache.Singleflight.set_on_coalesce sflight (fun ~key ~waiters ->
         let template =
           match String.index_opt key '|' with
           | Some i -> String.sub key 0 i
           | None -> key
         in
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
    super;
    sflight;
    storm;
    prime_reps = Hashtbl.create 16;
    template_counts = Hashtbl.create 16;
    primed = 0;
    arenas = [];
  }

let start t =
  Qcore.Broker.start t.broker;
  Metrics.watch_memory ~trace:t.trace t.metrics
    ~interval:metrics_interval t.clerk_list;
  Health.Supervise.start t.super

let emit t ~qid ev =
  if Obs.Trace.enabled t.trace then
    Obs.Trace.emit t.trace ~time:(Sim.Engine.now t.eng) ~qid ev

(* One query's way through [submit], made at admission and shared by
   every stage after it. [degraded] sticks once the ladder is entered. *)
type job = {
  query : Optimizer.Query.t;
  qid : string;
  watch : Health.Watchdog.session option;
  mutable degraded : bool;
}

let new_job ?watch q =
  { query = q; qid = q.Optimizer.Query.qid; watch; degraded = false }

(* What a completed query books in [settle]. *)
type completion = { compile_s : float; exec_s : float; cut_down : bool }

let beat job = Option.iter Health.Watchdog.beat job.watch

let cancelled job =
  Option.fold ~none:false ~some:Health.Watchdog.cancel_requested job.watch

let softened job = Option.fold ~none:false ~some:Health.Watchdog.softened job.watch

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
   compile-memory exhaustion. Every allocation beats the query's
   watchdog session; a softened session forces best-plan-so-far, and a
   cancel request aborts at the next allocation rather than holding
   gateways for work that can no longer matter. The credit is the
   governor's, or 0 once the watchdog has softened or cancelled the job
   during the call: the next allocation must then reach here, to beat
   (which clears a soften) or to raise. *)
let compile_env t job session =
  {
    Optimizer.Env.alloc =
      (fun n ->
        beat job;
        if cancelled job then
          raise (Optimizer.Env.Aborted Optimizer.Env.Cancelled);
        match Qcore.Compile_gov.alloc session n with
        | Ok () ->
            if cancelled job || softened job then 0
            else Qcore.Compile_gov.credit session
        | Error { Health.Error.code = Health.Error.Memory_wait_timeout; detail } ->
            raise (Optimizer.Env.Aborted (Optimizer.Env.Gateway_timeout detail))
        | Error _ -> raise (Optimizer.Env.Aborted Optimizer.Env.Out_of_memory));
    cpu = (fun s -> Execsim.Cpu.busy t.cpu s);
    should_stop =
      (fun () -> Qcore.Compile_gov.should_stop_early t.gov || softened job);
  }

(* Only the watchdog cancels a compile, so [Cancelled] is its cancel. *)
let abort_error = function
  | Optimizer.Env.Out_of_memory ->
      Health.Error.make ~detail:"compile" Health.Error.Insufficient_memory
  | Optimizer.Env.Gateway_timeout m ->
      Health.Error.make ~detail:m Health.Error.Memory_wait_timeout
  | Optimizer.Env.Cancelled ->
      Health.Error.make ~detail:"compile" Health.Error.Watchdog_cancelled

(* The full Cascades search, inserted into the plan cache on success. *)
let compile_full t job =
  let params = t.cfg.Config.optimizer_params in
  match
    governed t ~qid:job.qid (fun session ->
        let arena = acquire_arena t in
        Fun.protect
          ~finally:(fun () -> release_arena t arena)
          (fun () ->
            Optimizer.Cascades.optimize ~params ~arena
              ~env:(compile_env t job session) t.cfg.Config.cost_model t.cat
              job.query))
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
   compiles go through singleflight, keyed on the canonical statement
   (Midcache.Frontend keying, so parameterized replays of one template
   share a key): the first miss leads and compiles, concurrent misses of
   the same statement coalesce onto it and re-probe the cache when it
   lands — a cold cache costs one compile per template, not one per
   client. [sf_depth] bounds the re-probe recursion: a follower woken by
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
          Plancache.Singleflight.enter t.sflight
            ~key:(Midcache.Frontend.key_of_query job.query)
            ~max_wait:sf_wait_s ()
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

(* Admission control: with [in_flight] compilations already holding or
   chasing compile memory and each expected to peak near the observed
   mean, admitting another would push predicted demand past
   [shed_factor * broker target]. Only engages under broker pressure,
   so a benign system never sheds. *)
let should_shed t =
  t.cfg.Config.resilience
  && Qcore.Compile_gov.pressure t.gov <> Qcore.Compile_gov.Calm
  &&
  let target = Qcore.Compile_gov.broker_target t.gov in
  target > 0
  &&
  let peaks = Metrics.compile_peak t.metrics in
  let predicted_per_query =
    if Sim.Stats.Online.count peaks > 0 then Sim.Stats.Online.mean peaks
    else float_of_int (Dbmem.Units.mib 32)
  in
  let in_flight = Qcore.Compile_gov.active_sessions t.gov + 1 in
  float_of_int in_flight *. predicted_per_query
  > Resilience.shed_factor *. float_of_int target

(* Stage 1, admit. The breaker goes first — the cheapest gate: a poison
   template is refused before it can burn a gateway slot or a grant
   wait. Then admission control; an admitted query gets its watchdog
   session. *)
let admit t q ~template =
  let qid = q.Optimizer.Query.qid in
  (* Popularity book for warm-priming: which templates this server is
     asked for, and one representative query per template to prime from.
     Only kept when the defense stack is on, so other runs stay lean. *)
  if Config.defense_on t.cfg.Config.defense then begin
    Hashtbl.replace t.template_counts template
      (1 + Option.value ~default:0 (Hashtbl.find_opt t.template_counts template));
    if not (Hashtbl.mem t.prime_reps template) then
      Hashtbl.add t.prime_reps template q
  end;
  match Health.Supervise.admit t.super ~template with
  | Error e -> Error e
  | Ok () when should_shed t ->
      emit t ~qid Obs.Event.Shed;
      (* If this arrival was a half-open breaker's probe, hand the probe
         slot back: the shed is our own back-pressure, not evidence about
         the template, and a phantom in-flight probe would wedge the
         breaker half-open. *)
      Health.Supervise.release_probe t.super ~template;
      Error (Health.Error.make ~detail:"admission" Health.Error.Admission_shed)
  | Ok () ->
      Ok (new_job ?watch:(Health.Supervise.watch t.super ~qid) q)

(* Stage 2, plan. Under any broker pressure the full search would queue
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

(* Stage 3, exec, with the ladder's exec rung: when the plan's ideal
   workspace is not physically available, rerun at once asking for the
   grant floor and spill the shortfall to disk — slower, but it
   completes while the full-size run cannot. Returns the run and whether
   its grant was cut down. *)
let exec t job plan =
  beat job;
  let run ?grant_cap () =
    Execsim.Runner.run ?grant_cap ~qid:job.qid t.exec_resources plan
  in
  let r =
    match run () with
    | Error { Health.Error.code = Health.Error.Low_memory_condition; _ }
      when t.cfg.Config.resilience ->
        run ~grant_cap:(Execsim.Grant.min_grant t.grants) ()
        |> Result.map (fun o -> (o, true))
    | r -> Result.map (fun o -> (o, false)) r
  in
  if Result.is_ok r then beat job;
  r

(* One attempt: plan, then exec. A memory-wait timeout at a gateway and
   any execution failure (grant timeouts, low-memory grants — symptoms of
   a passing memory or load transient) are worth a retry; every other
   failure is final. *)
let attempt t job =
  match plan t job with
  | Error ({ Health.Error.code = Health.Error.Memory_wait_timeout; _ } as e) ->
      Error (`Retry e)
  | Error e -> Error (`Final e)
  | Ok _ when cancelled job ->
      Error (`Final (Health.Error.make ~detail:"exec" Health.Error.Watchdog_cancelled))
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

(* The backoff sleep. Unwatched in calm weather it is one plain sleep.
   Otherwise it is sliced so a watched query's heartbeat stays fresh (a
   parked query is waiting, not stuck): 15 s slices while calm, 5 s under
   broker pressure. Under pressure the failure is storm-induced, so the
   nap is cut short (after a minimum base pause) as soon as the broker
   calms: queries stranded behind a spike retry at the release instead of
   a full exponential later. *)
let nap t job pause =
  let pressed () = Qcore.Compile_gov.pressure t.gov <> Qcore.Compile_gov.Calm in
  let parked = pressed () in
  if (not parked) && Option.is_none job.watch then Sim.Engine.sleep pause
  else begin
    let slice = if parked then 5.0 else 15.0 in
    let minimum = Float.min pause Resilience.server_backoff.Resilience.base_s in
    let rec go slept =
      if slept < pause then begin
        let step = Float.min slice (pause -. slept) in
        Sim.Engine.sleep step;
        beat job;
        let slept = slept +. step in
        if (not parked) || slept < minimum || pressed () then go slept
      end
    in
    go 0.
  end

(* Stage 4, back off before attempt [n + 1], or give up with [e] when
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
      nap t job pause;
      if cancelled job then
        Error (Health.Error.make ~detail:"retry" Health.Error.Watchdog_cancelled)
      else Ok ()
  | _ -> Error e

let rec attempts t job n =
  match attempt t job with
  | Ok c -> Ok c
  | Error (`Final e) -> Error e
  | Error (`Retry e) -> (
      match back_off t job ~n e with
      | Ok () -> attempts t job (n + 1)
      | Error e -> Error e)

(* Stage 5, settle: book the query's one terminal outcome. Hard failures
   feed the template's breaker; back-pressure results (sheds, breaker
   refusals) must not, or an open breaker would keep itself open with
   its own rejections. *)
let settle t ~qid ~template = function
  | Ok c ->
      Metrics.record_completion t.metrics ~compile_s:c.compile_s ~exec_s:c.exec_s;
      if c.cut_down then Metrics.record_degraded t.metrics;
      Health.Supervise.record_success t.super ~template;
      Ok ()
  | Error (e : Health.Error.t) ->
      Metrics.record_error t.metrics e.Health.Error.code;
      emit t ~qid
        (Obs.Event.Query_error { kind = Health.Error.code_name e.Health.Error.code });
      if Metrics.is_hard_error e.Health.Error.code then
        Health.Supervise.record_failure t.super ~template;
      Error e

let submit t q =
  let qid = q.Optimizer.Query.qid in
  let template = template_of_qid qid in
  settle t ~qid ~template
    (match admit t q ~template with
    | Error e -> Error e
    | Ok job ->
        Fun.protect
          ~finally:(fun () -> Health.Supervise.unwatch t.super job.watch)
          (fun () -> attempts t job 1))

let submit_catch t q =
  match submit t q with
  | Ok () -> Ok ()
  | Error e -> Error (Health.Error.to_string e)

(* Compile [q] into the plan cache without executing it — the warm-prime
   path. Goes through [plan_for], so a priming compile takes the gateways
   like any other and, with singleflight on, becomes the leader that
   storming clients coalesce onto: the prime pays the compile once and
   the whole queue shares it. *)
let prime t q =
  let job = new_job q in
  match plan_for t job with
  | Ok (_plan, elapsed, _) ->
      if elapsed > 0. then t.primed <- t.primed + 1;
      Ok ()
  | Error e -> Error e

(* Templates a warm-prime recompiles: the hottest 4. *)
let warm_prime_templates = 4

(* Prime the hottest templates by observed submission count (ties broken
   by name, so the order is deterministic). Runs in the caller's process
   and blocks at the gateways; spawn it. With the defenses off [admit]
   books no template, so there is nothing to prime. *)
let warm_prime t =
  Hashtbl.fold (fun tpl count acc -> (tpl, count) :: acc) t.template_counts []
  |> List.sort (fun (ta, ca) (tb, cb) ->
         if ca <> cb then compare cb ca else compare ta tb)
  |> List.filteri (fun i _ -> i < warm_prime_templates)
  |> List.iter (fun (tpl, _) ->
         match Hashtbl.find_opt t.prime_reps tpl with
         | Some q -> ignore (prime t q)
         | None -> ())

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

(* Snapshot of what the supervision layer saw and did. Meaningful for an
   unsupervised server too: the error budget and completion counts come
   from the metrics, with all supervision counters at zero. *)
let health_report t ?(since = 0.) () =
  let { Health.Supervise.watchdog; breakers; _ } = t.super in
  {
    Health.Report.duration_s = Sim.Engine.now t.eng -. since;
    completed = Metrics.total_completions t.metrics ~since ();
    errors = Metrics.errors t.metrics;
    watchdog_watched = Health.Watchdog.watched watchdog;
    watchdog_stale = Health.Watchdog.stale_total watchdog;
    watchdog_cancels = Health.Watchdog.cancel_total watchdog;
    breaker_opens = Health.Breaker.opened_total breakers;
    breaker_reopens = Health.Breaker.reopened_total breakers;
    breaker_closes = Health.Breaker.closed_total breakers;
    breakers_open = Health.Breaker.states breakers;
    forced_reclaims = Qcore.Broker.forced_reclaims t.broker;
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
let primed_total t = t.primed
