(* Per-layer numbers for the traced run. Most come from the trace
   records of a cell (an [Obs.Trace] ring passed through the public
   [?trace] argument); the rest come from the cell's own counters or from
   replays, which time a layer's public functions on inputs drawn from the
   workload's templates. Layer names are the [lib/] library names. *)

(* Totals and samples gathered over every traced cell of a run. *)
type acc = {
  counts : (string, float) Hashtbl.t;
  samples : (string, float list) Hashtbl.t;
}

let create () = { counts = Hashtbl.create 32; samples = Hashtbl.create 8 }
let count acc k = Option.value ~default:0. (Hashtbl.find_opt acc.counts k)
let add acc k v = Hashtbl.replace acc.counts k (count acc k +. v)
let set_max acc k v = Hashtbl.replace acc.counts k (Float.max (count acc k) v)

let sample acc k v =
  Hashtbl.replace acc.samples k
    (v :: Option.value ~default:[] (Hashtbl.find_opt acc.samples k))

let percentile acc k q =
  let a = Array.of_list (Option.value ~default:[] (Hashtbl.find_opt acc.samples k)) in
  Array.sort Float.compare a;
  Workloads.exact_percentile a q

let mb n = float_of_int n /. 1048576.

(* Span durations sampled under [key]: [start qid time] opens one,
   [stop qid time] closes the oldest span open for [qid]. Every replay of
   a parameterized statement carries the same qid (["p017#0"]) and the
   records name nothing finer, so concurrent spans of one qid are paired
   first-in first-out: an approximation wherever they overlap. *)
let spans acc key =
  let open_at = Hashtbl.create 256 in
  ( (fun qid time ->
      let q =
        match Hashtbl.find_opt open_at qid with
        | Some q -> q
        | None ->
            let q = Queue.create () in
            Hashtbl.add open_at qid q;
            q
      in
      Queue.push time q),
    fun ?(keep = true) qid time ->
      match Hashtbl.find_opt open_at qid with
      | Some q when not (Queue.is_empty q) ->
          let t0 = Queue.pop q in
          if keep then sample acc key (time -. t0)
      | _ -> () )

(* One traced cell's records. *)
let analyze acc (records : Obs.Trace.record array) =
  add acc "obs.records" (float_of_int (Array.length records));
  let compile_open, compile_close = spans acc "compile_s" in
  let grant_open, grant_close = spans acc "grant_wait_s" in
  let exec_open, exec_close = spans acc "exec_s" in
  let gate_open, gate_close = spans acc "gateway_wait_s" in
  Array.iter
    (fun { Obs.Trace.time; qid; event } ->
      match (event : Obs.Event.t) with
      | Compile_begin -> compile_open qid time
      | Compile_alloc _ -> add acc "memo_allocs" 1.
      | Compile_end { peak } ->
          add acc "compiles" 1.;
          sample acc "compile_peak_mb" (mb peak);
          compile_close qid time
      | Gateway { gate; phase = Wait; _ } -> gate_open (gate ^ "|" ^ qid) time
      | Gateway { gate; phase = Acquired; _ } -> gate_close (gate ^ "|" ^ qid) time
      | Gateway { gate; phase = Timeout; _ } ->
          add acc "gateway_timeouts" 1.;
          gate_close ~keep:false (gate ^ "|" ^ qid) time
      | Broker_tick { components; _ } ->
          List.iter
            (fun (c : Obs.Event.component_sample) ->
              if c.verdict = Obs.Event.Shrink then add acc "shrink_verdicts" 1.)
            components
      | Reclaim { freed; _ } ->
          add acc "reclaims" 1.;
          add acc "reclaimed_mb" (mb freed)
      | Oom _ -> add acc "ooms" 1.
      | Grant { phase = Wait; _ } -> grant_open qid time
      | Grant { phase = Acquired; _ } -> grant_close qid time
      | Grant { phase = Timeout; _ } -> grant_close ~keep:false qid time
      | Exec_begin -> exec_open qid time
      | Exec_end { pages; spilled; _ } ->
          add acc "pages" (float_of_int pages);
          if spilled then add acc "spills" 1.;
          exec_close qid time
      | Cache_hit -> add acc "plan_hits" 1.
      | Singleflight_coalesce _ -> add acc "coalesced" 1.
      | Retry _ -> add acc "retries" 1.
      | Route { spill; _ } -> if spill then add acc "route_spills" 1.
      | Midcache_lookup { hit; _ } ->
          add acc "mc_lookups" 1.;
          if hit then add acc "mc_hits" 1.
      | Midcache_store { resident; _ } -> set_max acc "mc_resident_mb" (mb resident)
      | Midcache_sample { resident; _ } -> set_max acc "mc_resident_mb" (mb resident)
      | Midcache_invalidate { entries; _ } ->
          add acc "mc_writes" 1.;
          add acc "mc_invalidated" (float_of_int entries)
      | Midcache_shrink _ -> add acc "mc_shrinks" 1.
      | _ -> ())
    records

(* ------------------------------------------------------------------ *)
(* Replays *)

let workload_templates = function
  | Workloads.Sales_adhoc -> Workload.Sales.templates ()
  | Workloads.Shard_storm ->
      Workload.Sales.parameterized_templates
        ~variants:Server.Storms.default_config.Server.Storms.s_variants ()
  | Workloads.Midcache_rw ->
      let c = Workloads.cached_config 0 in
      Workload.Mix.mixed_templates ~ratio:c.Server.Cached.k_ratio
        ~variants:c.Server.Cached.k_variants ()

let draw_queries w ~seed n =
  let templates = workload_templates w in
  let rng = Sim.Rng.create seed in
  Array.init n (fun i ->
      Workload.Template.instance rng (Workload.Template.pick rng templates) ~id:(i + 1))

(* Normalised wall seconds and bytes allocated by [f ()]. *)
let timed f =
  let a = Calib.stamp () in
  f ();
  let b = Calib.stamp () in
  (Calib.seconds a b, Calib.allocated a b)

type optimizer_replay = {
  us_per_compile : float;
  kb_per_compile : float;
  allocs_per_compile : float;  (** metered memo allocations *)
}

(* Full searches with one reused memo arena, the way the server compiles;
   one warm-up pass keeps first-use costs out. *)
let replay_optimizer w ~seed =
  let cfg = Server.Config.default () in
  let catalog = Workload.Sales.catalog () in
  let queries = draw_queries w ~seed 24 in
  let arena = Optimizer.Cascades.create_arena () in
  let calls = ref 0 in
  let bytes = ref 0 and cpu_seconds = ref 0. in
  let counting = Optimizer.Env.counting ~bytes ~cpu_seconds in
  let env =
    { counting with Optimizer.Env.alloc = (fun n -> incr calls; counting.alloc n) }
  in
  let pass () =
    Array.iter
      (fun q ->
        match
          Optimizer.Cascades.optimize ~params:cfg.Server.Config.optimizer_params
            ~arena ~env cfg.Server.Config.cost_model catalog q
        with
        | Ok _ -> ()
        | Error _ -> failwith "replay compile aborted")
      queries
  in
  pass ();
  calls := 0;
  let wall, alloc = timed pass in
  let n = float_of_int (Array.length queries) in
  {
    us_per_compile = wall *. 1e6 /. n;
    kb_per_compile = alloc /. 1024. /. n;
    allocs_per_compile = float_of_int !calls /. n;
  }

(* Cache.get / put / invalidate over the workload's key and relation
   stream: a get per request, a put per miss, and an invalidation of a
   written relation at the cell's observed write-per-request rate. As in
   [Server.Cached], one write in twenty reloads the fact table, which
   every entry joins. *)
let replay_midcache ~seed ~write_rate =
  let c = Workloads.cached_config seed in
  let queries = draw_queries Workloads.Midcache_rw ~seed 4000 in
  let keys = Array.map Midcache.Frontend.key_of_query queries in
  let rels = Array.map Midcache.Frontend.rels_of_query queries in
  let payload = Array.map Midcache.Frontend.payload_bytes queries in
  let targets = Array.of_list Workloads.writer_targets in
  let rng = Sim.Rng.create seed in
  let writes =
    Array.map
      (fun _ ->
        if Sim.Rng.float rng 1.0 >= write_rate then None
        else if Sim.Rng.float rng 1.0 < 0.05 then Some Workload.Sales.fact_table
        else Some targets.(Sim.Rng.int rng (Array.length targets)))
      queries
  in
  let ops = ref 0 in
  let pass () =
    let cache =
      Midcache.Cache.create ~budget:c.Server.Cached.k_cache_bytes
        { Midcache.Cache.default_config with ttl = c.Server.Cached.k_ttl }
    in
    Array.iteri
      (fun i key ->
        let now = 2. *. float_of_int i in
        incr ops;
        (match Midcache.Cache.get cache ~now key with
        | Some _ -> ()
        | None ->
            incr ops;
            ignore
              (Midcache.Cache.put cache ~now ~key ~bytes:payload.(i) ~rels:rels.(i)));
        match writes.(i) with
        | Some rel ->
            incr ops;
            ignore (Midcache.Cache.invalidate cache rel)
        | None -> ())
      keys
  in
  pass ();
  ops := 0;
  let wall, _ = timed (fun () -> for _ = 1 to 5 do pass () done) in
  (* ns per op, and ops per request *)
  ( wall *. 1e9 /. float_of_int !ops,
    float_of_int !ops /. 5. /. float_of_int (Array.length queries) )

(* ------------------------------------------------------------------ *)

(* [acc] holds the records of the traced [cells]; [untraced_wall] and
   [traced_wall] are those cells' wall seconds without and with the
   trace. *)
let metrics w ~seed ~acc ~(cells : Workloads.cell list) ~untraced_wall
    ~traced_wall =
  let c k = count acc k in
  let sum f = List.fold_left (fun a cell -> a +. f cell) 0. cells in
  let ctr k =
    sum (fun cell ->
        Option.value ~default:0. (List.assoc_opt k cell.Workloads.counters))
  in
  let completed = sum (fun cell -> float_of_int cell.Workloads.succeeded) in
  let ratio a b = if b = 0. then 0. else a /. b in
  let per_query v = ratio v completed in
  let per_cell v = v /. float_of_int (List.length cells) in
  let opt = replay_optimizer w ~seed in
  let in_sim_allocs_per_compile = ratio (c "memo_allocs") (c "compiles") in
  (* In-sim compiles can stop early on best-plan-so-far, so the replay's
     full-search wall is scaled by the memo-allocation ratio. *)
  let optimizer_wall =
    opt.us_per_compile /. 1e6 *. c "compiles"
    *. ratio in_sim_allocs_per_compile opt.allocs_per_compile
  in
  let midcache_ns, midcache_wall =
    match w with
    | Workloads.Midcache_rw ->
        let requests = ctr "server.attempts" in
        let ns, ops_per_request =
          replay_midcache ~seed ~write_rate:(ratio (ctr "midcache.writes") requests)
        in
        (ns, ns /. 1e9 *. ops_per_request *. requests)
    | _ -> (0., 0.)
  in
  let retry_amp =
    match w with
    | Workloads.Shard_storm -> per_cell (ctr "server.retry_amp")
    | _ ->
        ratio (ctr "server.attempts")
          (sum (fun cell -> float_of_int cell.Workloads.submitted))
  in
  [
    ("optimizer.compiles_per_query", "ratio", per_query (c "compiles"));
    ("optimizer.memo_allocs_per_compile", "count", in_sim_allocs_per_compile);
    ("optimizer.compile_p50_s", "s", percentile acc "compile_s" 50.);
    ("optimizer.compile_peak_mb_p50", "MB", percentile acc "compile_peak_mb" 50.);
    ("optimizer.replay_compile_us", "us", opt.us_per_compile);
    ("optimizer.replay_alloc_kb", "KB", opt.kb_per_compile);
    ("optimizer.wall_share_est", "ratio", ratio optimizer_wall untraced_wall);
    ("qcore.gateway_wait_p50_s", "s", percentile acc "gateway_wait_s" 50.);
    ("qcore.gateway_wait_p99_s", "s", percentile acc "gateway_wait_s" 99.);
    ("qcore.gateway_timeouts", "count", per_cell (c "gateway_timeouts"));
    ("qcore.broker_shrink_verdicts", "count", per_cell (c "shrink_verdicts"));
    ("dbmem.reclaims_per_query", "ratio", per_query (c "reclaims"));
    ("dbmem.reclaimed_mb_per_query", "MB", per_query (c "reclaimed_mb"));
    ("dbmem.ooms", "count", per_cell (c "ooms"));
    ( "bufpool.hit_rate",
      "ratio",
      ratio (ctr "bufpool.hits") (ctr "bufpool.hits" +. ctr "bufpool.misses") );
    ("bufpool.pages_per_query", "ratio", per_query (c "pages"));
    ("execsim.grant_wait_p50_s", "s", percentile acc "grant_wait_s" 50.);
    ("execsim.grant_wait_p99_s", "s", percentile acc "grant_wait_s" 99.);
    ("execsim.exec_p50_s", "s", percentile acc "exec_s" 50.);
    ("execsim.spills_per_query", "ratio", per_query (c "spills"));
    ("plancache.hit_rate", "ratio", ratio (c "plan_hits") (c "plan_hits" +. c "compiles"));
    ("plancache.coalesced", "count", per_cell (c "coalesced"));
    ("plancache.dup_compiles", "count", per_cell (ctr "plancache.dup_compiles"));
    ("midcache.hit_rate", "ratio", ratio (c "mc_hits") (c "mc_lookups"));
    ("midcache.invalidated_per_write", "ratio", ratio (c "mc_invalidated") (c "mc_writes"));
    ("midcache.shrinks", "count", per_cell (c "mc_shrinks"));
    ("midcache.resident_peak_mb", "MB", c "mc_resident_mb");
    ("midcache.replay_op_ns", "ns", midcache_ns);
    ("server.retry_amp", "ratio", retry_amp);
    ("server.retries", "count", per_cell (c "retries" +. ctr "router.retries"));
    ("server.spills", "count", per_cell (c "route_spills"));
    ("sim.events_per_query", "ratio", per_query (ctr "sim.events"));
    ("obs.records_per_query", "ratio", per_query (c "obs.records"));
    ("obs.trace_overhead", "ratio", ratio traced_wall untraced_wall);
    ( "unattributed_wall_share",
      "ratio",
      1. -. ratio (optimizer_wall +. midcache_wall) untraced_wall );
  ]
