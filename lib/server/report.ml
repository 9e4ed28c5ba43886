let table ~header rows =
  let all = header :: rows in
  let cols = List.length header in
  let widths = Array.make cols 0 in
  List.iter
    (fun row ->
      List.iteri
        (fun i cell ->
          if i < cols then widths.(i) <- max widths.(i) (String.length cell))
        row)
    all;
  let print_row row =
    let cells =
      List.mapi
        (fun i cell ->
          let pad = widths.(i) - String.length cell in
          cell ^ String.make (max 0 pad) ' ')
        row
    in
    print_endline ("  " ^ String.concat "  " cells)
  in
  print_row header;
  print_row (List.map (fun w -> String.make w '-') (Array.to_list widths));
  List.iter print_row rows

let spark_chars = [| " "; "\xe2\x96\x81"; "\xe2\x96\x82"; "\xe2\x96\x83";
                     "\xe2\x96\x84"; "\xe2\x96\x85"; "\xe2\x96\x86";
                     "\xe2\x96\x87"; "\xe2\x96\x88" |]

let sparkline values =
  if Array.length values = 0 then ""
  else begin
    let hi = Array.fold_left Float.max 0. values in
    let hi = if hi <= 0. then 1. else hi in
    let buf = Buffer.create (Array.length values * 3) in
    Array.iter
      (fun v ->
        let level =
          int_of_float (Float.min 8. (Float.max 0. (v /. hi *. 8.)))
        in
        Buffer.add_string buf spark_chars.(level))
      values;
    Buffer.contents buf
  end

let figure_series ~title ~throttled ~unthrottled =
  Printf.printf "\n%s\n" title;
  let n = min (Array.length throttled) (Array.length unthrottled) in
  let rows =
    List.init n (fun i ->
        let t, v_on = throttled.(i) in
        let _, v_off = unthrottled.(i) in
        [
          Printf.sprintf "%.0f" t;
          Printf.sprintf "%.0f" v_on;
          Printf.sprintf "%.0f" v_off;
        ])
  in
  table ~header:[ "slice start (s)"; "throttled"; "unthrottled" ] rows;
  let values a = Array.map snd a in
  Printf.printf "  throttled   %s\n" (sparkline (values throttled));
  Printf.printf "  unthrottled %s\n" (sparkline (values unthrottled));
  let m_on = Workload.Client.slice_mean throttled
  and m_off = Workload.Client.slice_mean unthrottled in
  Printf.printf
    "  mean completions/slice: throttled %.1f, unthrottled %.1f (uplift %+.0f%%)\n"
    m_on m_off
    (* 0., not nan, when the baseline produced nothing: "nan%" in a
       report reads as a bug and breaks golden-file diffs. *)
    (if m_off > 0. then 100. *. (m_on -. m_off) /. m_off else 0.)

let result_header =
  [ "clients"; "throttle"; "compl/slice"; "total"; "errors"; "compile s";
    "exec s"; "peak mem"; "pool hit"; "cpu" ]

let result_row (r : Experiment.result) =
  [
    string_of_int r.Experiment.clients;
    (if r.Experiment.throttled then "on" else "off");
    Printf.sprintf "%.1f" r.Experiment.mean_per_slice;
    string_of_int r.Experiment.total_completed;
    string_of_int r.Experiment.total_errors;
    Printf.sprintf "%.0f" r.Experiment.compile_mean_s;
    Printf.sprintf "%.0f" r.Experiment.exec_mean_s;
    Dbmem.Units.bytes_to_string (int_of_float r.Experiment.compile_peak_mean);
    Printf.sprintf "%.0f%%" (100. *. r.Experiment.pool_hit_rate);
    Printf.sprintf "%.2f" r.Experiment.cpu_utilization;
  ]

let resilience_header =
  [ "resilience"; "completed"; "hard errors"; "retries"; "degraded";
    "client abandoned" ]

let resilience_row (r : Experiment.result) =
  [
    (if r.Experiment.resilient then "on" else "off");
    string_of_int r.Experiment.total_completed;
    string_of_int r.Experiment.total_errors;
    string_of_int r.Experiment.retries;
    string_of_int r.Experiment.degraded;
    string_of_int r.Experiment.client_stats.Workload.Client.abandoned;
  ]

(* --- Multi-tenant reports --------------------------------------- *)

let tenant_header =
  [ "pool"; "workload"; "clients"; "compl/slice"; "total"; "budget";
    "floor"; "pool hit"; "cache hit"; "errors"; "abandoned" ]

let tenant_row (r : Tenants.tenant_result) =
  [
    r.Tenants.rname;
    Tenants.workload_name r.Tenants.rworkload;
    string_of_int r.Tenants.rclients;
    Printf.sprintf "%.1f" r.Tenants.mean_per_slice;
    string_of_int r.Tenants.completed;
    Printf.sprintf "%s->%s"
      (Dbmem.Units.bytes_to_string r.Tenants.budget_start)
      (Dbmem.Units.bytes_to_string r.Tenants.budget_end);
    Dbmem.Units.bytes_to_string r.Tenants.floor;
    Printf.sprintf "%.0f%%" (100. *. r.Tenants.pool_hit_rate);
    Printf.sprintf "%.0f%%" (100. *. r.Tenants.cache_hit_rate);
    string_of_int r.Tenants.errors;
    string_of_int r.Tenants.abandoned;
  ]

let tenants_section (o : Tenants.outcome) =
  Printf.printf "\n[%s] seed %d, machine %s, %.0fs warmup + %.0fs measure\n"
    (Tenants.mode_name o.Tenants.omode)
    o.Tenants.oseed
    (Dbmem.Units.bytes_to_string o.Tenants.ototal)
    o.Tenants.owarmup o.Tenants.omeasure;
  table ~header:tenant_header (List.map tenant_row o.Tenants.tenants);
  List.iter
    (fun (r : Tenants.tenant_result) ->
      Printf.printf "  %-8s %s\n" r.Tenants.rname
        (sparkline (Array.map snd r.Tenants.slices)))
    o.Tenants.tenants;
  if o.Tenants.omode <> Tenants.Static then
    Printf.printf
      "  arbiter: %d ticks, %d rebalances, %s granted, %s reclaimed%s\n"
      o.Tenants.arb_ticks o.Tenants.arb_rebalances
      (Dbmem.Units.bytes_to_string o.Tenants.arb_moved)
      (Dbmem.Units.bytes_to_string o.Tenants.arb_reclaimed)
      (if o.Tenants.arb_scarce then " [scarce]" else "")

(* --- Sharded reports --------------------------------------------- *)

let shard_header =
  [ "shard"; "state"; "crashes"; "accepted"; "finished"; "lost"; "refused";
    "recompiles"; "cache hit"; "budget end" ]

let shard_row (r : Shards.shard_result) =
  [
    r.Shards.sh_name;
    r.Shards.sh_final_state;
    string_of_int r.Shards.sh_crashes;
    string_of_int r.Shards.sh_accepted;
    string_of_int r.Shards.sh_finished;
    string_of_int r.Shards.sh_lost;
    string_of_int r.Shards.sh_refused;
    string_of_int r.Shards.sh_recompiles;
    Printf.sprintf "%.0f%%" (100. *. r.Shards.sh_cache_hit_rate);
    Dbmem.Units.bytes_to_string r.Shards.sh_budget_end;
  ]

let shards_section ?baseline (o : Shards.outcome) =
  let cfg = o.Shards.o_config in
  Printf.printf
    "\n[%s] gateways %s%s, seed %d: %d shards, %d clients, machine %s\n"
    (Shards.schedule_name cfg.Shards.c_schedule)
    (if cfg.Shards.c_gateways then "on" else "off")
    (if cfg.Shards.c_hedge then ", hedged" else "")
    cfg.Shards.c_seed cfg.Shards.c_shards cfg.Shards.c_clients
    (Dbmem.Units.bytes_to_string cfg.Shards.c_total);
  table ~header:shard_header (List.map shard_row o.Shards.shard_results);
  Printf.printf "  completions %s\n" (sparkline (Array.map snd o.Shards.slices));
  Printf.printf
    "  %.1f compl/slice, %d completed; router: %d submitted, %d ok, %d \
     failed (%d rejected), %d spills, %d retries"
    o.Shards.mean_per_slice o.Shards.completed o.Shards.submitted o.Shards.ok
    o.Shards.failed o.Shards.rejected o.Shards.spills o.Shards.retries;
  if o.Shards.hedges > 0 then
    Printf.printf ", %d hedges (%d won)" o.Shards.hedges o.Shards.hedge_wins;
  Printf.printf "\n  latency p50 %.0f ms, p99 %.0f ms; clients: %d submitted, \
                 %d succeeded, %d abandoned\n"
    o.Shards.p50_ms o.Shards.p99_ms o.Shards.cl_submitted
    o.Shards.cl_succeeded o.Shards.cl_abandoned;
  Printf.printf
    "  arbiter: %d ticks, %d rebalances, %s granted, %s reclaimed; peak \
     budget sum %s of %s\n"
    o.Shards.arb_ticks o.Shards.arb_rebalances
    (Dbmem.Units.bytes_to_string o.Shards.arb_moved)
    (Dbmem.Units.bytes_to_string o.Shards.arb_reclaimed)
    (Dbmem.Units.bytes_to_string o.Shards.max_budget_sum)
    (Dbmem.Units.bytes_to_string cfg.Shards.c_total);
  match baseline with
  | None -> ()
  | Some b ->
      Printf.printf "  throughput retained vs no-fault: %.0f%%\n"
        (100. *. Shards.retention ~fault:o ~no_fault:b)

(* --- Storm (metastable failure) reports --------------------------- *)

let storm_shard_header =
  [ "shard"; "state"; "crashes"; "recompiles"; "cache hit"; "storms";
    "sf led"; "coalesced"; "dup compiles" ]

let storm_shard_row (r : Storms.shard_report) =
  [
    r.Storms.sr_name;
    r.Storms.sr_state;
    string_of_int r.Storms.sr_crashes;
    string_of_int r.Storms.sr_recompiles;
    Printf.sprintf "%.0f%%" (100. *. r.Storms.sr_cache_hit);
    string_of_int r.Storms.sr_storms;
    string_of_int r.Storms.sr_sf_led;
    string_of_int r.Storms.sr_sf_coalesced;
    string_of_int r.Storms.sr_sf_dup;
  ]

let storms_section (o : Storms.outcome) =
  let cfg = o.Storms.o_config in
  Printf.printf
    "\n[%s] defenses %s, seed %d: %d shards, %d clients, %d variants, \
     machine %s\n"
    (Storms.schedule_name cfg.Storms.s_schedule)
    (if cfg.Storms.s_defenses then "ON" else "off")
    cfg.Storms.s_seed cfg.Storms.s_shards cfg.Storms.s_clients
    cfg.Storms.s_variants
    (Dbmem.Units.bytes_to_string cfg.Storms.s_total);
  table ~header:storm_shard_header
    (List.map storm_shard_row o.Storms.shard_reports);
  Printf.printf "  completions %s  (trigger at %.0fs)\n"
    (sparkline (Array.map snd o.Storms.slices))
    (Storms.fault_at cfg);
  Printf.printf
    "  rate: %.1f/slice before, %.1f after; recovery to 90%%: %s\n"
    o.Storms.pre_rate o.Storms.post_rate
    (if o.Storms.recovered then Printf.sprintf "%.0f s" o.Storms.recovery_s
     else "never (still collapsed at window end)");
  Printf.printf
    "  storm: retry amplification %.2fx, %d duplicate compiles (%d \
     coalesced away), %d episodes detected\n"
    o.Storms.retry_amp o.Storms.dup_compiles o.Storms.coalesced
    o.Storms.storms_detected;
  Printf.printf
    "  defenses: %d LIFO shifts, %d budget denials\n"
    o.Storms.lifo_shifts o.Storms.budget_denials;
  Printf.printf
    "  router: %d submitted, %d ok, %d failed (%d rejected), %d retries; \
     latency p50 %.0f ms, p99 %.0f ms\n"
    o.Storms.submitted o.Storms.ok o.Storms.failed o.Storms.rejected
    o.Storms.retries o.Storms.p50_ms o.Storms.p99_ms;
  Printf.printf "  clients: %d submitted, %d succeeded, %d abandoned\n"
    o.Storms.cl_submitted o.Storms.cl_succeeded o.Storms.cl_abandoned

(* Head-to-head verdict, the run's last word: the defended arm must come
   back faster (or come back at all when the other arm never does). *)
let storms_verdict ~defended ~undefended =
  let show o =
    if o.Storms.recovered then Printf.sprintf "%.0f s" o.Storms.recovery_s
    else "never"
  in
  Printf.printf
    "\n  recovery: defenses on %s, off %s -> %s; retry amplification \
     %.2fx vs %.2fx; duplicate compiles %d vs %d\n"
    (show defended) (show undefended)
    (if Storms.faster_recovery ~defended ~undefended then
       "defenses recover faster"
     else "NO DEFENSE WIN")
    defended.Storms.retry_amp undefended.Storms.retry_amp
    defended.Storms.dup_compiles undefended.Storms.dup_compiles

let cached_section ?baseline (o : Cached.outcome) =
  let cfg = o.Cached.o_config in
  Printf.printf
    "\n[%s] seed %d: %d clients (%.0f%% parameterized, %d variants), %d \
     writers, machine %s%s\n"
    (Cached.mode_name cfg.Cached.k_mode)
    cfg.Cached.k_seed cfg.Cached.k_clients
    (100. *. cfg.Cached.k_ratio)
    cfg.Cached.k_variants cfg.Cached.k_writers
    (Dbmem.Units.bytes_to_string cfg.Cached.k_memory)
    (if cfg.Cached.k_ballast_gib > 0. then
       Printf.sprintf ", %.1f GiB ballast" cfg.Cached.k_ballast_gib
     else "");
  Printf.printf "  completions %s\n"
    (sparkline (Array.map snd o.Cached.slices));
  Printf.printf
    "  %.1f compl/slice, %d completed; %d requests = %d hits + %d misses + \
     %d bypasses (hit rate %.0f%%)\n"
    o.Cached.mean_per_slice o.Cached.completed o.Cached.requests
    o.Cached.hits o.Cached.misses o.Cached.bypasses
    (100. *. o.Cached.cache_hit_rate);
  if cfg.Cached.k_mode <> Cached.Cache_off then begin
    Printf.printf
      "  cache: %s resident (peak %s) of %s; %d stores, %d refused, %d \
       evicted, %d expired, %d invalidated (%d writes)\n"
      (Dbmem.Units.bytes_to_string o.Cached.resident_end)
      (Dbmem.Units.bytes_to_string o.Cached.resident_peak)
      (Dbmem.Units.bytes_to_string o.Cached.budget_end)
      o.Cached.stores o.Cached.refused o.Cached.evictions o.Cached.expired
      o.Cached.invalidated o.Cached.writes;
    if o.Cached.shrink_events > 0 then
      Printf.printf "  broker squeezed the cache %d times, reclaiming %s\n"
        o.Cached.shrink_events
        (Dbmem.Units.bytes_to_string o.Cached.shrink_freed)
  end;
  Printf.printf
    "  engine: %d compiles (%d plan-cache hits), gateways %d acquires / %d \
     timeouts (mean wait %.2f s), compile peak %s, %d OOMs\n"
    o.Cached.compiles o.Cached.plan_hits o.Cached.gw_acquires
    o.Cached.gw_timeouts o.Cached.gw_wait_mean_s
    (Dbmem.Units.bytes_to_string (int_of_float o.Cached.compile_peak_max))
    o.Cached.ooms;
  Printf.printf
    "  latency p50 %.0f ms, p99 %.0f ms; clients: %d submitted, %d \
     succeeded, %d abandoned\n"
    o.Cached.p50_ms o.Cached.p99_ms o.Cached.cl_submitted
    o.Cached.cl_succeeded o.Cached.cl_abandoned;
  match baseline with
  | None -> ()
  | Some b ->
      Printf.printf "  throughput vs cache-off: %.2fx, gateway admissions \
                     %d -> %d\n"
        (Cached.uplift o ~over:b) b.Cached.gw_acquires o.Cached.gw_acquires

let cached_comparison (outcomes : Cached.outcome list) =
  print_newline ();
  table
    ~header:
      [
        "mode";
        "compl/slice";
        "hit%";
        "gw acq";
        "gw wait s";
        "compile peak";
        "shrinks";
        "p99 ms";
      ]
    (List.map
       (fun (o : Cached.outcome) ->
         [
           Cached.mode_name o.Cached.o_config.Cached.k_mode;
           Printf.sprintf "%.1f" o.Cached.mean_per_slice;
           Printf.sprintf "%.0f" (100. *. o.Cached.cache_hit_rate);
           string_of_int o.Cached.gw_acquires;
           Printf.sprintf "%.2f" o.Cached.gw_wait_mean_s;
           Dbmem.Units.bytes_to_string
             (int_of_float o.Cached.compile_peak_max);
           string_of_int o.Cached.shrink_events;
           Printf.sprintf "%.0f" o.Cached.p99_ms;
         ])
       outcomes);
  let find m =
    List.find_opt
      (fun (o : Cached.outcome) -> o.Cached.o_config.Cached.k_mode = m)
      outcomes
  in
  match (find Cached.Cache_off, find Cached.Cache_brokered) with
  | Some off, Some brokered ->
      Printf.printf
        "  brokered vs off: %.2fx throughput, gateway admissions %d -> %d\n"
        (Cached.uplift brokered ~over:off)
        off.Cached.gw_acquires brokered.Cached.gw_acquires
  | _ -> ()

(* The resilience section of a report: per-error-kind tallies plus the
   retry/degrade counters, one block per result. *)
let resilience_section results =
  print_newline ();
  table ~header:resilience_header (List.map resilience_row results);
  List.iter
    (fun (r : Experiment.result) ->
      let nonzero = List.filter (fun (_, n) -> n > 0) r.Experiment.errors in
      if nonzero <> [] then begin
        Printf.printf "  errors (resilience %s): %s\n"
          (if r.Experiment.resilient then "on" else "off")
          (String.concat ", "
             (List.map (fun (k, n) -> Printf.sprintf "%s=%d" k n) nonzero))
      end)
    results
