(* Wall-clock + allocation microbenchmark suite: the repo's perf
   trajectory. Writes BENCH_perf.json (BENCH_perf_quick.json with --quick;
   CI uploads it as an artifact per commit) and exits non-zero if the
   parallel and sequential runs of the experiment grid disagree — the
   determinism gate for the domain fan-out. Two committed baselines:
   BENCH_perf.json (full suite) and BENCH_perf_quick.json (--quick, the
   one CI's ratchet diffs against — quick mode shrinks the per-op
   workloads, so the two are not cross-comparable and bench/ratchet.ml
   refuses to try).

     dune exec bench/perf.exe                       # full suite
     dune exec bench/perf.exe -- --quick            # CI smoke variant
     dune exec bench/perf.exe -- --jobs 4 --out BENCH_perf.json

   Suites: optimizer compile (Cascades and its greedy seed on SALES
   shapes), the sim-engine event loop, CPU slice hand-off, buffer-pool
   access, governed compile-memory allocation, the paper's mechanism
   overhead (broker tick, clerk, gateway, full ladder, trend), a full
   experiment cell, and the parallel grid speedup with a byte-identity
   check. *)

let quick = ref false
let jobs = ref 0 (* 0 = auto; clamped to the core count after parsing *)
let jobs_requested = ref 0
let out_path = ref "" (* "" = the baseline of the mode that ran *)

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

type bench = {
  name : string;
  iters : int;
  wall_s : float;
  per_op_ns : float;
  alloc_bytes_per_op : float;
}

let time_bench ~name ~iters f =
  (* One warm-up call keeps first-use effects (catalog build, heap
     growth) out of the measurement. *)
  ignore (f ());
  (* Empty the minor heap at both ends of the window: on OCaml 5.1,
     [Gc.allocated_bytes] read between collections is off by an amount
     that depends on where the last collection fell, so a small op's
     figure moved with whatever ran before it. After a collection it is
     exact. *)
  Gc.minor ();
  let a0 = Gc.allocated_bytes () in
  let (), wall_s = wall (fun () -> for _ = 1 to iters do ignore (f ()) done) in
  Gc.minor ();
  let alloc = Gc.allocated_bytes () -. a0 in
  {
    name;
    iters;
    wall_s;
    per_op_ns = wall_s *. 1e9 /. float_of_int iters;
    alloc_bytes_per_op = alloc /. float_of_int iters;
  }

(* A row whose every iteration ran [ops] operations, per operation. *)
let per_op ops b =
  {
    b with
    iters = b.iters * ops;
    per_op_ns = b.per_op_ns /. float_of_int ops;
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
  let iters = if !quick then 2 else 5 in
  let run ?arena ?replay () =
    Array.iter
      (fun q ->
        match
          Optimizer.Cascades.optimize ?arena ?replay ~env:Optimizer.Env.null
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
     plus the replay loop. *)
  let replay = Optimizer.Cascades.create_replay_memo () in
  let replayed =
    time_bench ~name:"optimizer_replay_stream" ~iters (fun () ->
        run ~arena ~replay ())
  in
  (* Normalise run-of-N to per-query numbers. *)
  List.map (per_op n_queries) [ reused; fresh; replayed ]

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
   now pays even when no storm is in progress (hash probe, flight
   record, waitq allocation). Rotating keys keeps the table realistic. *)
let singleflight_bench () =
  let ops = if !quick then 20_000 else 200_000 in
  let iters = if !quick then 3 else 5 in
  let eng = Sim.Engine.create ~seed:1 () in
  let sf = Plancache.Singleflight.create eng in
  let b =
    time_bench ~name:"singleflight_ops" ~iters (fun () ->
        for i = 0 to ops - 1 do
          let key = Printf.sprintf "p%03d" (i land 127) in
          match Plancache.Singleflight.enter sf ~key () with
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
  (* The broker's periodic tick over four registered components. *)
  let broker_tick =
    let eng = Sim.Engine.create ~seed:1 () in
    let m = Dbmem.Manager.create ~total:(gib 4) () in
    let broker = Qcore.Broker.create eng m in
    List.iter
      (fun name ->
        let clerk = Dbmem.Manager.create_clerk m name in
        Dbmem.Manager.alloc_exn clerk (mib 100);
        ignore (Qcore.Broker.register broker ~name ~clerk ()))
      [ "bufpool"; "plancache"; "compile"; "execution" ];
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
    overhead_bench ~name:"broker_tick" broker_tick;
    overhead_bench ~name:"clerk_alloc_free" clerk_alloc_free;
    overhead_bench ~name:"gateway_acquire_release" gateway;
    overhead_bench ~name:"full_ladder_compile" full_ladder;
    overhead_bench ~name:"trend_observe_predict" trend;
  ]

(* ------------------------------------------------------------------ *)
(* Experiment cells and the parallel grid *)

let cell_measure () = if !quick then 180. else 600.

let experiment_bench () =
  let iters = if !quick then 1 else 2 in
  time_bench ~name:"experiment_cell" ~iters (fun () ->
      Server.Experiment.run
        ~config:{ (Server.Config.default ()) with Server.Config.seed = 42 }
        ~clients:10 ~warmup:30. ~measure:(cell_measure ()) ~slice:60. ())

(* A full brokered mid-tier cache cell: clients, writers, cache,
   broker registration and gateway accounting end to end. *)
let cached_cell_bench () =
  let iters = if !quick then 1 else 2 in
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
  let mk config clients () =
    Server.Experiment.run ~config ~clients ~warmup:30.
      ~measure:(cell_measure ()) ~slice:60. ()
  in
  let cells =
    List.concat_map
      (fun clients ->
        [
          mk { (Server.Config.default ()) with Server.Config.seed = 42 } clients;
          mk { (Server.Config.unthrottled ()) with Server.Config.seed = 42 } clients;
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
    wall (fun () -> Server.Experiment.run_grid ~jobs:1 cells)
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
      wall (fun () -> Server.Experiment.run_grid ~jobs:!jobs cells)
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
(* JSON output (hand-rolled: no JSON dependency in the image) *)

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let write_json ~benches ~grid path =
  let oc = open_out path in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"schema\": \"dbsim-perf/1\",\n";
  p "  \"quick\": %b,\n" !quick;
  p "  \"cores\": %d,\n" (Domain.recommended_domain_count ());
  p "  \"benchmarks\": [\n";
  List.iteri
    (fun i b ->
      p
        "    {\"name\": \"%s\", \"iters\": %d, \"wall_s\": %.6f, \
         \"per_op_ns\": %.1f, \"alloc_bytes_per_op\": %.1f}%s\n"
        (json_escape b.name) b.iters b.wall_s b.per_op_ns b.alloc_bytes_per_op
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
  let bufpool, bufpool_hits = bufpool_bench () in
  let benches =
    optimizer_benches ()
    @ steady_state_benches ()
    @ [
        engine_bench ();
        cpu_handoff_bench ();
        midcache_bench ();
        bufpool;
        governed_alloc_bench ();
        singleflight_bench ();
        retry_budget_bench ();
        experiment_bench ();
        cached_cell_bench ();
        greedy_bench ();
      ]
    @ overhead_benches ()
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
        (per_op b.per_op_ns) b.alloc_bytes_per_op b.iters)
    benches;
  Printf.printf "  %-28s %s  %10.1f bytes/op  (hits only)\n" bufpool_hits.name
    (per_op bufpool_hits.per_op_ns) bufpool_hits.alloc_bytes_per_op;
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
  write_json ~benches ~grid !out_path;
  Printf.printf "wrote %s\n" !out_path;
  if grid.gate_ran && not grid.identical then begin
    prerr_endline
      "perf: parallel grid output differs from sequential run (determinism \
       violation)";
    exit 1
  end
