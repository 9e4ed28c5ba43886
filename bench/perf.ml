(* Wall-clock + allocation microbenchmark suite: the repo's perf
   trajectory. Writes BENCH_perf.json (BENCH_perf_quick.json with --quick;
   CI uploads it as an artifact per commit) and exits non-zero if the
   parallel and sequential runs of the experiment grid disagree — the
   determinism gate for the domain fan-out. Two committed baselines:
   BENCH_perf.json (full suite) and BENCH_perf_quick.json (--quick, the
   one CI's ratchet diffs against — quick mode shrinks the per-op
   workloads, so the two are not cross-comparable and bench/ratchet.ml
   refuses to try). A row's time per op is processor time, the tenth
   of its iterations over ten passes of the suite, and the JSON's
   [calib_ns] is a fixed kernel's time in the same process: the ratchet
   compares times in units of it.

     dune exec bench/perf.exe                       # full suite
     dune exec bench/perf.exe -- --quick            # CI smoke variant
     dune exec bench/perf.exe -- --jobs 4 --out BENCH_perf.json

   Suites: optimizer compile (Cascades and its greedy seed on SALES
   shapes), the sim-engine event loop, CPU slice hand-off, a process's
   block and resume, buffer-pool access, governed compile-memory
   allocation, the paper's mechanism overhead (broker tick, clerk,
   gateway, full ladder, trend), a full experiment cell, and the
   parallel grid speedup with a byte-identity check. *)

let quick = ref false
let jobs = ref 0 (* 0 = auto; clamped to the core count after parsing *)
let jobs_requested = ref 0
let out_path = ref "" (* "" = the baseline of the mode that ran *)

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* ------------------------------------------------------------------ *)
(* Calibration *)

(* A fixed slice of integer and float arithmetic. It allocates nothing,
   so it never runs the collector: its time measures the machine alone,
   and the ratchet compares each row's time per op in units of it. *)
let kernel () =
  let acc = ref 1 and x = ref 1. in
  for i = 1 to 100_000 do
    acc := ((!acc * 1_103_515_245) + i) land 0x3fff_ffff;
    x := (!x *. 0.999_999) +. 1e-6
  done;
  !acc + int_of_float !x

(* Eight runs of the kernel, in seconds of processor time each. *)
let kernel_runs () =
  Array.init 8 (fun _ ->
      let t = Sys.time () in
      ignore (Sys.opaque_identity (kernel ()));
      Sys.time () -. t)

type bench = {
  name : string;
  iters : int;
  wall_s : float;
  iter_ns : float array;  (** each timed iteration's processor time, per op *)
  alloc_bytes_per_op : float;
}

(* The sample a tenth of the way up from the least: a spell that slows
   the machine must overlap nine samples in ten to move it, and one lucky
   sample cannot. *)
let tenth xs =
  let xs = Array.copy xs in
  Array.sort compare xs;
  xs.(Array.length xs / 10)

let per_op_ns b = tenth b.iter_ns

(* Each iteration is timed on its own, in processor time ([Sys.time]).
   On a machine running more threads than it has cores, the wall clock
   also counts the slices the scheduler gave other processes, which no
   kernel timed in this process can measure; contention for the core and
   its caches slows processor time too, but in spells, which {!tenth}
   looks past. [wall_s] is the window's wall clock, for reading. *)
let time_bench ~name ~iters f =
  (* One warm-up call keeps first-use effects (catalog build, heap
     growth) out of the measurement. *)
  ignore (f ());
  let iter_ns = Array.make iters 0. in
  (* Empty the minor heap at both ends of the window: on OCaml 5.1,
     [Gc.allocated_bytes] read between collections is off by an amount
     that depends on where the last collection fell, so a small op's
     figure moved with whatever ran before it. After a collection it is
     exact. *)
  Gc.minor ();
  let a0 = Gc.allocated_bytes () in
  let t0 = Unix.gettimeofday () in
  let last = ref (Sys.time ()) in
  for i = 0 to iters - 1 do
    ignore (f ());
    let t = Sys.time () in
    iter_ns.(i) <- (t -. !last) *. 1e9;
    last := t
  done;
  let wall_s = Unix.gettimeofday () -. t0 in
  Gc.minor ();
  let alloc = Gc.allocated_bytes () -. a0 in
  { name; iters; wall_s; iter_ns; alloc_bytes_per_op = alloc /. float_of_int iters }

(* A row whose every iteration ran [ops] operations, per operation. *)
let per_op ops b =
  {
    b with
    iters = b.iters * ops;
    iter_ns = Array.map (fun t -> t /. float_of_int ops) b.iter_ns;
    alloc_bytes_per_op = b.alloc_bytes_per_op /. float_of_int ops;
  }

(* ------------------------------------------------------------------ *)
(* Optimizer compile *)

let optimizer_benches () =
  let cat = Workload.Sales.catalog () in
  let templates = Workload.Sales.templates () in
  let rng = Sim.Rng.create 7 in
  let q = Workload.Template.instance rng (List.hd templates) ~id:1 in
  let casc_iters = if !quick then 25 else 200 in
  [
    time_bench ~name:"cascades_optimize_sales" ~iters:casc_iters (fun () ->
        match
          Optimizer.Cascades.optimize ~env:Optimizer.Env.null
            Optimizer.Cost.default cat q
        with
        | Ok r -> ignore r.Optimizer.Cascades.plan
        | Error _ -> failwith "cascades aborted in benchmark");
  ]

(* Steady-state compile stream, the shape the server actually runs: a
   long mixed-template workload through one Cascades memo arena reused
   across queries, against the same stream paying a fresh memo per query.
   The pair prices exactly what the arena buys — memo columns reused at
   high-water capacity — on realistic SALES instances. *)
let steady_state_benches () =
  let cat = Workload.Sales.catalog () in
  let templates = Array.of_list (Workload.Sales.templates ()) in
  let n_queries = if !quick then 50 else 200 in
  let rng = Sim.Rng.create 11 in
  let queries =
    Array.init n_queries (fun i ->
        Workload.Template.instance rng
          templates.(i mod Array.length templates)
          ~id:(1000 + i))
  in
  let iters = if !quick then 4 else 5 in
  let run ?arena ?replay ?(env = Optimizer.Env.null) () =
    Array.iter
      (fun q ->
        match
          Optimizer.Cascades.optimize ?arena ?replay ~env
            Optimizer.Cost.default cat q
        with
        | Ok r -> ignore r.Optimizer.Cascades.plan
        | Error _ -> failwith "cascades aborted in steady-state bench")
      queries
  in
  let arena = Optimizer.Cascades.create_arena () in
  let reused =
    time_bench ~name:"optimizer_steady_state" ~iters (fun () -> run ~arena ())
  in
  let fresh =
    time_bench ~name:"optimizer_steady_state_fresh" ~iters (fun () -> run ())
  in
  (* The same stream through one replay memo, as a server compiles it.
     The warm-up pass records each join graph's search; the timed passes
     replay them, so the row prices a replayed compile: the greedy seed
     plus the replay loop. [Env.null] grants every allocation, so the
     replay advances over every window after its first allocation. *)
  let replay = Optimizer.Cascades.create_replay_memo () in
  (* A replayed pass takes a few milliseconds, and the ratchet's low
     quantile needs more of them than of the slower passes above to stay
     within its tolerance. *)
  let replay_iters = if !quick then 10 else iters in
  let replayed =
    time_bench ~name:"optimizer_replay_stream" ~iters:replay_iters (fun () ->
        run ~arena ~replay ())
  in
  (* The replays again, through an env that grants three groups' bytes
     at a time, as the governor caps its credit by free memory: a window
     whose rest does not fit is replayed task by task until it does. *)
  let capped =
    {
      Optimizer.Env.null with
      Optimizer.Env.alloc = (fun _ -> 12 * Optimizer.Cascades.phys_bytes);
    }
  in
  let replayed_capped =
    time_bench ~name:"optimizer_replay_capped" ~iters:replay_iters (fun () ->
        run ~arena ~replay ~env:capped ())
  in
  (* Normalise run-of-N to per-query numbers. *)
  List.map (per_op n_queries) [ reused; fresh; replayed; replayed_capped ]

(* The greedy seed alone, over the same SALES shapes as the stream
   above: the plan every compile builds before its search starts, and
   the plan a SALES compile returns. Cardinality set-up is outside the
   window; per-query numbers. *)
let greedy_bench () =
  let cat = Workload.Sales.catalog () in
  let templates = Array.of_list (Workload.Sales.templates ()) in
  let n_queries = if !quick then 50 else 200 in
  let rng = Sim.Rng.create 11 in
  let cards =
    Array.init n_queries (fun i ->
        Optimizer.Card.create cat
          (Workload.Template.instance rng
             templates.(i mod Array.length templates)
             ~id:(1000 + i)))
  in
  let iters = if !quick then 4 else 20 in
  let b =
    time_bench ~name:"greedy_seed" ~iters (fun () ->
        Array.iter
          (fun card ->
            ignore (Optimizer.Greedy.plan Optimizer.Cost.default card))
          cards)
  in
  per_op n_queries b

(* ------------------------------------------------------------------ *)
(* Sim-engine event loop *)

let engine_bench () =
  let n_timers = 64 and horizon = if !quick then 2_000. else 20_000. in
  let iters = if !quick then 3 else 5 in
  time_bench ~name:"sim_engine_event_loop" ~iters (fun () ->
      let eng = Sim.Engine.create ~seed:1 () in
      for i = 1 to n_timers do
        (* Staggered periodic timers keep the heap near its working size,
           like the client/monitor population of a real run. *)
        ignore
          (Sim.Engine.every eng
             ~start:(0.1 *. float_of_int i)
             ~interval:(1.0 +. (0.01 *. float_of_int i))
             (fun () -> ()))
      done;
      Sim.Engine.run eng ~until:horizon;
      Sim.Engine.events_executed eng)

(* ------------------------------------------------------------------ *)
(* CPU hand-off *)

(* Sixteen processes round-robin on a two-core [Cpu]: every slice end
   hands its core to the head of the run queue. One engine and pool serve
   every run, so the row prices the slices (the per-job set-up is spread
   over them); per-slice numbers. *)
let cpu_handoff_bench () =
  let procs = 16 and slices = if !quick then 20_000 else 200_000 in
  let iters = if !quick then 3 else 5 in
  let eng = Sim.Engine.create ~seed:1 () in
  let cpu = Execsim.Cpu.create eng ~cores:2 () in
  let demand = 0.25 *. float_of_int (slices / procs) in
  let b =
    time_bench ~name:"cpu_handoff" ~iters (fun () ->
        for _ = 1 to procs do
          Sim.Engine.spawn eng (fun () -> Execsim.Cpu.busy cpu demand)
        done;
        Sim.Engine.run_all eng)
  in
  per_op slices b

(* ------------------------------------------------------------------ *)
(* Blocking and resuming a process *)

(* The sim kernel's price of one block: a sleep, a two-slice
   [Cpu.busy] on a held core and a queued [Disk.read], in equal numbers.
   Two processes of each kind keep the core and the disk contended. One
   engine, pool and disk serve every run, so the row prices the blocks
   (the spawns are spread over them); per block. *)
let block_resume_bench () =
  let rounds = if !quick then 5_000 else 50_000 in
  let iters = if !quick then 3 else 5 in
  let eng = Sim.Engine.create ~seed:1 () in
  let cpu = Execsim.Cpu.create eng ~cores:1 () in
  let disk =
    Bufpool.Disk.create eng ~spindles:1 ~seek_s:0.001
      ~throughput_bytes_per_s:1e9
  in
  let repeat f () =
    for _ = 1 to rounds do
      f ()
    done
  in
  let b =
    time_bench ~name:"block_resume" ~iters (fun () ->
        for _ = 1 to 2 do
          Sim.Engine.spawn eng (repeat (fun () -> Sim.Engine.sleep 1.0));
          Sim.Engine.spawn eng (repeat (fun () -> Execsim.Cpu.busy cpu 0.5));
          Sim.Engine.spawn eng
            (repeat (fun () -> Bufpool.Disk.read disk ~bytes:4096))
        done;
        Sim.Engine.run_all eng)
  in
  per_op (6 * rounds) b

(* ------------------------------------------------------------------ *)
(* Mid-tier cache ops *)

(* Steady-state churn on a full cache: every put evicts from the LRU
   tail, every fourth op is a lookup over a hot key, every 64th an
   invalidation by relation. This is the per-request price the mid-tier
   pays on the hot path, intrusive-list bookkeeping included. *)
let midcache_bench () =
  let ops = if !quick then 20_000 else 200_000 in
  let iters = if !quick then 3 else 5 in
  let budget = 64 * 1024 * 1024 in
  let cache =
    Midcache.Cache.create ~budget
      { Midcache.Cache.default_config with ttl = 1e9 }
  in
  let rels = [| "customer"; "product"; "store"; "promo" |] in
  let b =
    time_bench ~name:"midcache_ops" ~iters (fun () ->
        for i = 0 to ops - 1 do
          let key = Printf.sprintf "q%d" (i land 4095) in
          if i land 3 = 0 then
            ignore (Midcache.Cache.get cache ~now:0. key)
          else if i land 63 = 1 then
            ignore (Midcache.Cache.invalidate cache rels.(i land 3))
          else
            ignore
              (Midcache.Cache.put cache ~now:0. ~key ~bytes:(32 * 1024)
                 ~rels:[ rels.(i land 3) ])
        done)
  in
  per_op ops b

(* The request stream of a midcache_rw cell, for [midcache_statement_bench]:
   4,000 instances of the cell's traffic mix, and beside each the
   relation a writer reloads after it, if any. Writes come at the cell's
   rate (103 writes over 1,352 requests at seed 42), and one in twenty
   reloads the fact table, as in [Server.Cached]. *)
let midcache_stream () =
  let c = Server.Cached.default_config in
  let templates =
    Workload.Mix.mixed_templates ~ratio:c.Server.Cached.k_ratio
      ~variants:c.Server.Cached.k_variants ()
  in
  let targets =
    Array.of_list
      (List.filter
         (fun d -> not (List.mem d [ "customer"; "product"; "date_dim" ]))
         Workload.Sales.dimensions)
  in
  let rng = Sim.Rng.create 42 in
  let queries =
    Array.init 4000 (fun i ->
        Workload.Template.instance rng (Workload.Template.pick rng templates)
          ~id:(i + 1))
  in
  let writes =
    Array.map
      (fun _ ->
        if Sim.Rng.float rng 1.0 >= 103. /. 1352. then None
        else if Sim.Rng.float rng 1.0 < 0.05 then Some Workload.Sales.fact_table
        else Some targets.(Sim.Rng.int rng (Array.length targets)))
      queries
  in
  (queries, writes)

(* The front end's statement path over that stream, per cache op: each
   request is a [lookup] (the statement's int, then a get), a miss is
   followed by a [store] (a put with the statement's relations), and a
   write by an invalidation, on a fresh cache at the cell's budget and
   TTL, two simulated seconds per request. Each pass clears the
   instances' statement-hash memos first, so an instance pays for its
   identity once per pass, as a fresh one does in the cell. *)
let midcache_statement_bench () =
  let iters = if !quick then 6 else 5 in
  let c = Server.Cached.default_config in
  let queries, writes = midcache_stream () in
  let eng = Sim.Engine.create ~seed:1 () in
  let ops = ref 0 in
  let b =
    time_bench ~name:"midcache_statement_ops" ~iters (fun () ->
        Array.iter (fun q -> q.Optimizer.Query.stmt_hash <- -1) queries;
        let cache =
          Midcache.Cache.create ~budget:c.Server.Cached.k_cache_bytes
            { Midcache.Cache.default_config with ttl = c.Server.Cached.k_ttl }
        in
        let fe =
          Midcache.Frontend.create eng ~cache:(Some cache)
            ~submit:(fun _ -> Ok ())
            ()
        in
        Array.iteri
          (fun i q ->
            let now = 2. *. float_of_int i in
            incr ops;
            if Midcache.Frontend.lookup fe ~now q = None then begin
              incr ops;
              Midcache.Frontend.store fe ~now q
            end;
            match writes.(i) with
            | Some rel ->
                incr ops;
                Midcache.Frontend.write fe ~rels:[ rel ]
            | None -> ())
          queries)
  in
  per_op (!ops / (iters + 1)) b

(* ------------------------------------------------------------------ *)
(* Buffer-pool access *)

(* The pool's hot path under a storm-like mix: a resident LRU-2 pool at a
   full machine, seven hits at random in a hot set (an allocation-free
   xorshift; a strict cycle would sink the heap's root on every hit) for
   each miss on a fresh page. Each miss finds no free memory, so the
   manager's donor walk shrinks the pool by one granule before the page is
   admitted. The hits alone are timed too: that path must read 0 B/op. *)
let bufpool_bench () =
  let ops = if !quick then 20_000 else 200_000 in
  let iters = if !quick then 3 else 5 in
  let page_bytes = 1 lsl 20 and resident = 1024 and hot = 512 in
  let eng = Sim.Engine.create ~seed:1 () in
  let manager = Dbmem.Manager.create ~total:(resident * page_bytes) () in
  let clerk = Dbmem.Manager.create_clerk manager "bufpool" in
  let disk =
    Bufpool.Disk.create eng ~spindles:1 ~seek_s:0.
      ~throughput_bytes_per_s:1e12
  in
  let pool =
    Bufpool.Pool.create ~clerk ~disk ~page_bytes ~policy:Bufpool.Policy.Lru2
  in
  Dbmem.Manager.register_donor manager ~clerk ~priority:0
    ~shrink:(Bufpool.Pool.shrink pool);
  let table = Bufpool.Pool.table_id pool "fact" in
  let fresh = ref resident in
  let in_process f =
    Sim.Engine.spawn eng f;
    Sim.Engine.run_all eng
  in
  in_process (fun () ->
      Bufpool.Pool.read_range pool ~table ~first:0 ~count:resident);
  let state = ref 0x2545F491 in
  let hit () =
    let x = !state in
    let x = x lxor (x lsl 13) in
    let x = x lxor (x lsr 7) in
    state := x lxor (x lsl 17);
    Bufpool.Pool.read pool ~table ~page:(!state land (hot - 1))
  in
  let mixed =
    time_bench ~name:"bufpool_access" ~iters (fun () ->
        in_process (fun () ->
            for i = 0 to ops - 1 do
              if i land 7 = 7 then begin
                Bufpool.Pool.read pool ~table ~page:!fresh;
                incr fresh
              end
              else hit ()
            done))
  in
  let hits =
    time_bench ~name:"bufpool_access_hits" ~iters (fun () ->
        for _ = 1 to ops do
          hit ()
        done)
  in
  (per_op ops mixed, per_op ops hits)

(* ------------------------------------------------------------------ *)
(* Governed allocation *)

(* The optimizer meters its memo allocations through
   [Compile_gov.alloc], batched within the governor's credit but still
   hundreds of calls per compile. This is its fast path as
   a compile past the small gate takes it: a dynamic ladder with a
   broker target, so each call evaluates the medium gate's
   [target * F / S] threshold, then charges the clerk. Tracing is off,
   and each run frees what it metered, so the session stays below the
   medium gate. It must read 0 B/op. *)
let governed_alloc_bench () =
  let ops = if !quick then 20_000 else 200_000 in
  let iters = if !quick then 3 else 5 in
  let mib = Dbmem.Units.mib in
  let eng = Sim.Engine.create ~seed:1 () in
  let manager = Dbmem.Manager.create ~total:(mib 4096) () in
  let clerk = Dbmem.Manager.create_clerk manager "compile" in
  let gov =
    Qcore.Compile_gov.create eng manager ~clerk ~cpus:8
      ~config:(Qcore.Throttle_config.default ()) ~enabled:true ()
  in
  Qcore.Compile_gov.on_notification gov
    {
      Qcore.Broker.verdict = Qcore.Broker.Hold_rate;
      target = mib 640;
      predicted = mib 640;
      pressure = true;
    };
  let result = ref None in
  Sim.Engine.spawn eng (fun () ->
      let s = Qcore.Compile_gov.begin_compile gov in
      ignore (Qcore.Compile_gov.alloc s (mib 4));
      result :=
        Some
          (time_bench ~name:"governed_alloc" ~iters (fun () ->
               for _ = 1 to ops do
                 match Qcore.Compile_gov.alloc s 64 with
                 | Ok () -> ()
                 | Error _ -> failwith "governed alloc refused in benchmark"
               done;
               Qcore.Compile_gov.free s (64 * ops)));
      Qcore.Compile_gov.end_compile s);
  Sim.Engine.run_all eng;
  let b = Option.get !result in
  per_op ops b

(* ------------------------------------------------------------------ *)
(* Storm-defense hot paths *)

(* Uncontended singleflight enter/exit — the bookkeeping every compile
   now pays even when no storm is in progress (statement probe, flight
   record, waitq allocation). The keys rotate over 128 parameterized
   SALES statements, built before the clock starts. *)
let singleflight_bench () =
  let ops = if !quick then 20_000 else 200_000 in
  let iters = if !quick then 3 else 5 in
  let eng = Sim.Engine.create ~seed:1 () in
  let sf = Plancache.Singleflight.create eng in
  let rng = Sim.Rng.create 1 in
  let stmts =
    Array.of_list
      (List.map
         (fun t -> Workload.Template.instance rng t ~id:0)
         (Workload.Sales.parameterized_templates ~variants:128 ()))
  in
  let b =
    time_bench ~name:"singleflight_ops" ~iters (fun () ->
        for i = 0 to ops - 1 do
          match Plancache.Singleflight.enter sf stmts.(i land 127) () with
          | `Leader tok -> Plancache.Singleflight.exit sf tok
          | _ -> assert false
        done)
  in
  per_op ops b

(* Retry-budget token bucket: the per-retry spend / per-success earn the
   router pays on every outcome. *)
let retry_budget_bench () =
  let ops = if !quick then 50_000 else 500_000 in
  let iters = if !quick then 3 else 5 in
  let budget =
    Server.Resilience.Budget.create Server.Resilience.Budget.default_config
  in
  let b =
    time_bench ~name:"retry_budget_ops" ~iters (fun () ->
        for i = 0 to ops - 1 do
          if i land 1 = 0 then Server.Resilience.Budget.earn budget
          else ignore (Server.Resilience.Budget.try_spend budget)
        done)
  in
  per_op ops b

(* ------------------------------------------------------------------ *)
(* Mechanism overhead: the paper's "extremely small" (T4). The
   governor's allocation below the ladder is [governed_alloc] above. *)

let overhead_ops () = if !quick then 20_000 else 200_000
let overhead_iters () = if !quick then 3 else 5

(* A timed loop of [overhead_ops] calls of [op], per call. *)
let overhead_bench ~name op =
  let ops = overhead_ops () in
  per_op ops
    (time_bench ~name ~iters:(overhead_iters ()) (fun () ->
         for _ = 1 to ops do
           op ()
         done))

let overhead_benches () =
  let mib = Dbmem.Units.mib and gib = Dbmem.Units.gib in
  (* The broker's periodic tick over four registered components, each
     holding [used] bytes with the given [min_bytes] floor. *)
  let broker_tick comps =
    let eng = Sim.Engine.create ~seed:1 () in
    let m = Dbmem.Manager.create ~total:(gib 4) () in
    let broker = Qcore.Broker.create eng m in
    List.iter
      (fun (name, used, min_bytes) ->
        let clerk = Dbmem.Manager.create_clerk m name in
        Dbmem.Manager.alloc_exn clerk used;
        ignore (Qcore.Broker.register broker ~name ~clerk ~min_bytes ()))
      comps;
    fun () -> Qcore.Broker.tick broker
  in
  (* A clerk allocation round trip. *)
  let clerk_alloc_free =
    let m = Dbmem.Manager.create ~total:(gib 4) () in
    let clerk = Dbmem.Manager.create_clerk m "bench" in
    fun () ->
      Dbmem.Manager.alloc_exn clerk 4096;
      Dbmem.Manager.free clerk 4096
  in
  (* A gateway's uncontended acquire and release. *)
  let gateway =
    let eng = Sim.Engine.create ~seed:1 () in
    let monitor =
      Qcore.Monitor.create eng ~name:"bench" ~slots:8 ~timeout:100. ()
    in
    fun () ->
      (match Qcore.Monitor.acquire monitor () with
      | Ok () -> ()
      | Error `Timeout -> failwith "gateway timed out in benchmark");
      Qcore.Monitor.release monitor
  in
  (* A governed compilation that crosses the whole ladder. *)
  let full_ladder =
    let eng = Sim.Engine.create ~seed:1 () in
    let m = Dbmem.Manager.create ~total:(gib 16) () in
    let clerk = Dbmem.Manager.create_clerk m "compile" in
    let gov =
      Qcore.Compile_gov.create eng m ~clerk ~cpus:8
        ~config:(Qcore.Throttle_config.default ()) ~enabled:true ()
    in
    fun () ->
      let s = Qcore.Compile_gov.begin_compile gov in
      (match Qcore.Compile_gov.alloc s (mib 600) with
      | Ok () -> ()
      | Error _ -> failwith "ladder compile refused in benchmark");
      Qcore.Compile_gov.end_compile s
  in
  (* The broker's trend: one observation and one prediction. *)
  let trend =
    let t = Qcore.Trend.create ~window:10 () in
    let clock = ref 0. in
    fun () ->
      clock := !clock +. 1.;
      Qcore.Trend.observe t ~time:!clock 42.;
      ignore (Qcore.Trend.predict t ~horizon:5.)
  in
  [
    overhead_bench ~name:"broker_tick"
      (broker_tick
         (List.map
            (fun name -> (name, mib 100, 0))
            [ "bufpool"; "plancache"; "compile"; "execution" ]));
    (* Under pressure: 4000 MiB used against a 3891 MiB budget, so the
       split runs, and its floors pin the two small components. *)
    overhead_bench ~name:"broker_tick_pressure"
      (broker_tick
         [
           ("bufpool", mib 2400, 0);
           ("plancache", mib 300, mib 600);
           ("compile", mib 200, mib 500);
           ("execution", mib 1100, 0);
         ]);
    overhead_bench ~name:"clerk_alloc_free" clerk_alloc_free;
    overhead_bench ~name:"gateway_acquire_release" gateway;
    overhead_bench ~name:"full_ladder_compile" full_ladder;
    overhead_bench ~name:"trend_observe_predict" trend;
  ]

(* ------------------------------------------------------------------ *)
(* Experiment cells and the parallel grid *)

let cell_measure () = if !quick then 180. else 600.

let experiment_bench () =
  let iters = 3 in
  time_bench ~name:"experiment_cell" ~iters (fun () ->
      Server.Experiment.run
        ~config:{ (Server.Config.default ()) with Server.Config.seed = 42 }
        ~clients:10 ~warmup:30. ~measure:(cell_measure ()) ~slice:60. ())

(* A full brokered mid-tier cache cell: clients, writers, cache,
   broker registration and gateway accounting end to end. *)
let cached_cell_bench () =
  let iters = 3 in
  time_bench ~name:"cached_cell_brokered" ~iters (fun () ->
      Server.Cached.run
        {
          Server.Cached.default_config with
          Server.Cached.k_clients = 10;
          k_variants = 24;
          k_warmup = 30.;
          k_measure = cell_measure ();
          k_seed = 42;
        })

type grid_outcome = {
  cells : int;
  grid_jobs : int;  (* effective: requested clamped to the core count *)
  grid_jobs_requested : int;
  cores : int;
  seq_s : float;
  par_s : float;
  speedup : float;
  expected_speedup : float;
  fingerprint_s : float;  (* cost of the Marshal identity gate itself *)
  gate_ran : bool;
  identical : bool;
}

let grid_bench () =
  (* The paper's grid shape in miniature: throttling on/off at three
     client counts, one seed — six independent cells. *)
  let run (config, clients) =
    Server.Experiment.run ~config ~clients ~warmup:30.
      ~measure:(cell_measure ()) ~slice:60. ()
  in
  let cells =
    List.concat_map
      (fun clients ->
        [
          ({ (Server.Config.default ()) with Server.Config.seed = 42 }, clients);
          ({ (Server.Config.unthrottled ()) with Server.Config.seed = 42 }, clients);
        ])
      [ 10; 12; 14 ]
  in
  let n_cells = List.length cells in
  let cores = Domain.recommended_domain_count () in
  (* Ideal scaling is bounded by whichever is scarcest: cells to run,
     domains, or physical cores. Jobs are clamped to the core count
     before this point, so on a 1-core box the grid runs inline (jobs=1)
     instead of reporting a meaningless sub-1x "speedup" from domains
     that can only add overhead. *)
  let expected_speedup = float_of_int (min n_cells (min !jobs cores)) in
  let seq_results, seq_s =
    wall (fun () -> Parallel.Pool.run ~jobs:1 run cells)
  in
  if !jobs = 1 then
    (* jobs=1 runs inline on the calling domain: a second grid run would
       re-measure the sequential path, and the identity gate would compare
       a value with itself. Skip both. *)
    {
      cells = n_cells;
      grid_jobs = 1;
      grid_jobs_requested = !jobs_requested;
      cores;
      seq_s;
      par_s = seq_s;
      speedup = 1.0;
      expected_speedup;
      fingerprint_s = 0.;
      gate_ran = false;
      identical = true;
    }
  else begin
    let par_results, par_s =
      wall (fun () -> Parallel.Pool.run ~jobs:!jobs run cells)
    in
    let fingerprint results =
      (* Full structural equality: every series sample, stat and counter. *)
      Marshal.to_string results [ Marshal.No_sharing ]
    in
    let identical, fingerprint_s =
      wall (fun () ->
          String.equal (fingerprint seq_results) (fingerprint par_results))
    in
    {
      cells = n_cells;
      grid_jobs = !jobs;
      grid_jobs_requested = !jobs_requested;
      cores;
      seq_s;
      par_s;
      speedup = (if par_s > 0. then seq_s /. par_s else nan);
      expected_speedup;
      fingerprint_s;
      gate_ran = true;
      identical;
    }
  end

(* ------------------------------------------------------------------ *)
(* Passes *)

(* One pass of the suite: every row once, with the buffer pool's
   hits-only row last. *)
let suite () =
  let bufpool, bufpool_hits = bufpool_bench () in
  optimizer_benches ()
  @ steady_state_benches ()
  @ [
      engine_bench ();
      cpu_handoff_bench ();
      block_resume_bench ();
      midcache_bench ();
      midcache_statement_bench ();
      bufpool;
      governed_alloc_bench ();
      singleflight_bench ();
      retry_budget_bench ();
      experiment_bench ();
      cached_cell_bench ();
      greedy_bench ();
    ]
  @ overhead_benches ()
  @ [ bufpool_hits ]

(* The suite runs [passes] times, and a row's time is the tenth of its
   iterations over all of them; allocation is the first pass's, counted
   as a fresh process runs it. The kernel runs before the first pass and
   after each, and its time is the tenth of its runs. *)
let passes = 10

(* Every row over all passes, and the kernel's time in ns. *)
let calibrated_suite () =
  let kernel = ref [ kernel_runs () ] in
  let rows =
    List.init passes (fun _ ->
        let rows = suite () in
        kernel := kernel_runs () :: !kernel;
        rows)
  in
  let pool b c = { b with iter_ns = Array.append b.iter_ns c.iter_ns } in
  ( List.fold_left (List.map2 pool) (List.hd rows) (List.tl rows),
    tenth (Array.concat !kernel) *. 1e9 )

(* ------------------------------------------------------------------ *)
(* JSON output (hand-rolled: no JSON dependency in the image) *)

let write_json ~benches ~calib_ns ~grid path =
  let oc = open_out path in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"schema\": \"dbsim-perf/1\",\n";
  p "  \"quick\": %b,\n" !quick;
  p "  \"cores\": %d,\n" (Domain.recommended_domain_count ());
  p "  \"calib_ns\": %.1f,\n" calib_ns;
  p "  \"benchmarks\": [\n";
  List.iteri
    (fun i b ->
      p
        "    {\"name\": \"%s\", \"iters\": %d, \"wall_s\": %.6f, \
         \"per_op_ns\": %.1f, \"alloc_bytes_per_op\": %.1f}%s\n"
        (Obs.Export.json_escape b.name) b.iters b.wall_s (per_op_ns b)
        b.alloc_bytes_per_op
        (if i = List.length benches - 1 then "" else ","))
    benches;
  p "  ],\n";
  p "  \"grid\": {\n";
  p "    \"cells\": %d,\n" grid.cells;
  p "    \"jobs\": %d,\n" grid.grid_jobs;
  p "    \"jobs_requested\": %d,\n" grid.grid_jobs_requested;
  p "    \"cores\": %d,\n" grid.cores;
  p "    \"sequential_s\": %.3f,\n" grid.seq_s;
  p "    \"parallel_s\": %.3f,\n" grid.par_s;
  p "    \"speedup\": %.3f,\n" grid.speedup;
  p "    \"expected_speedup\": %.1f,\n" grid.expected_speedup;
  p "    \"fingerprint_s\": %.4f,\n" grid.fingerprint_s;
  p "    \"identity_gate\": \"%s\",\n"
    (if grid.gate_ran then "run" else "skipped");
  p "    \"identical_output\": %b\n" grid.identical;
  p "  }\n";
  p "}\n";
  close_out oc

(* ------------------------------------------------------------------ *)

let () =
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
        quick := true;
        parse rest
    | ("--jobs" | "-j") :: n :: rest -> (
        match int_of_string_opt n with
        | Some j when j >= 1 ->
            jobs := j;
            parse rest
        | _ ->
            prerr_endline "perf: --jobs expects a positive integer";
            exit 2)
    | ("--out" | "-o") :: path :: rest ->
        out_path := path;
        parse rest
    | a :: _ ->
        Printf.eprintf "perf: unknown argument %S\n" a;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !jobs = 0 then jobs := max 2 (Parallel.Pool.default_jobs ());
  (* Clamp to the machine: domains past the core count cannot
     speed the grid up, only thrash it, and on a 1-core box they turn
     the speedup report into a fake regression. The requested value is
     still recorded so a clamped run is visible in the JSON. *)
  jobs_requested := !jobs;
  let cores = Domain.recommended_domain_count () in
  jobs := max 1 (min !jobs cores);
  Printf.printf "dbsim perf suite (%s, grid jobs %d%s)\n"
    (if !quick then "quick" else "full")
    !jobs
    (if !jobs <> !jobs_requested then
       Printf.sprintf ", clamped from %d to %d cores" !jobs_requested cores
     else "");
  let rows, calib_ns = calibrated_suite () in
  let benches, bufpool_hits =
    match List.rev rows with
    | hits :: rest -> (List.rev rest, hits)
    | [] -> assert false
  in
  (* Each row's time in the unit that fits it: rows span 10 ns to 100 ms. *)
  let per_op ns =
    if ns < 1e3 then Printf.sprintf "%7.1f ns/op" ns
    else if ns < 1e6 then Printf.sprintf "%7.1f µs/op" (ns /. 1e3)
    else Printf.sprintf "%7.1f ms/op" (ns /. 1e6)
  in
  List.iter
    (fun b ->
      Printf.printf "  %-28s %s  %10.0f bytes/op  (%d iters)\n" b.name
        (per_op (per_op_ns b)) b.alloc_bytes_per_op b.iters)
    benches;
  Printf.printf "  %-28s %s  %10.1f bytes/op  (hits only)\n" bufpool_hits.name
    (per_op (per_op_ns bufpool_hits)) bufpool_hits.alloc_bytes_per_op;
  Printf.printf "  %-28s %s  (tenth of its runs, between passes)\n"
    "calibration_kernel" (per_op calib_ns);
  let grid = grid_bench () in
  Printf.printf
    "  grid: %d cells  sequential %.2fs  parallel(%d) %.2fs  speedup %.2fx \
     (expected <=%.0fx on %d cores)  gate %s (%.3fs)  output %s\n"
    grid.cells grid.seq_s grid.grid_jobs grid.par_s grid.speedup
    grid.expected_speedup grid.cores
    (if grid.gate_ran then "run" else "skipped")
    grid.fingerprint_s
    (if grid.identical then "identical" else "DIVERGED");
  if grid.grid_jobs <> grid.grid_jobs_requested then
    Printf.printf
      "  note: requested %d jobs clamped to %d (%d cores) — extra domains \
       cannot speed the grid up, so they are not started\n"
      grid.grid_jobs_requested grid.grid_jobs grid.cores;
  if !out_path = "" then
    out_path := if !quick then "BENCH_perf_quick.json" else "BENCH_perf.json";
  write_json ~benches ~calib_ns ~grid !out_path;
  Printf.printf "wrote %s\n" !out_path;
  if grid.gate_ran && not grid.identical then begin
    prerr_endline
      "perf: parallel grid output differs from sequential run (determinism \
       violation)";
    exit 1
  end
