type workload = Sales | Tpch | Snowflake | Light

let workload_name = function
  | Sales -> "sales"
  | Tpch -> "tpch"
  | Snowflake -> "snowflake"
  | Light -> "light"

type spec = {
  tname : string;
  tweight : float;
  tmin_share : float;
  tmax_share : float;
  tclients : int;
  tthink_mean : float;
  tworkload : workload;
}

(* The noisy tenant runs the ad-hoc SALES mix with many impatient
   clients (compile-memory hungry, nothing cacheable); the victim runs
   steady TPC-H; the light tenant hammers one templated diagnostic that
   is all plan-cache hits after warmup. Floors sum to 0.6, leaving 40%
   of the machine as lendable surplus. *)
let default_specs () =
  [
    {
      tname = "noisy";
      tweight = 1.0;
      tmin_share = 0.2;
      tmax_share = 0.65;
      tclients = 24;
      tthink_mean = 40.;
      tworkload = Sales;
    };
    {
      tname = "victim";
      tweight = 1.0;
      tmin_share = 0.3;
      tmax_share = 0.65;
      tclients = 12;
      (* Short think time keeps the victim execution-bound: its
         throughput tracks query latency, so losing buffer-pool memory
         to a neighbour shows up in completions rather than vanishing
         into client idle time. *)
      tthink_mean = 10.;
      tworkload = Tpch;
    };
    {
      tname = "light";
      tweight = 0.5;
      tmin_share = 0.1;
      tmax_share = 0.3;
      tclients = 8;
      tthink_mean = 30.;
      tworkload = Light;
    };
  ]

type mode = Isolated | Free_for_all | Static

let mode_name = function
  | Isolated -> "isolated"
  | Free_for_all -> "free-for-all"
  | Static -> "static"

(* Free_for_all drops the guarantees but keeps the same demand-driven
   arbitration — the delta against Isolated is purely the floors/caps.
   The token 2% floor keeps an idle pool alive (one quantum, as a real
   resource governor would) without protecting it from a noisy
   neighbour in any meaningful way. *)
let shares_of ~mode s =
  match mode with
  | Free_for_all -> (0.02, 1.)
  | Isolated | Static -> (s.tmin_share, s.tmax_share)

let claims_of ~mode specs =
  List.map
    (fun s ->
      let min_share, max_share = shares_of ~mode s in
      { Qcore.Arbiter.weight = s.tweight; min_share; max_share; predicted = 0 })
    specs

let initial_budgets ~mode ~total specs =
  Qcore.Arbiter.plan ~total (claims_of ~mode specs)

(* The victim runs TPC-H at scale factor 1, not the paper-scale 100: a
   36 GB lineitem can never fit a GiB-scale pool, so sf-100 executions
   take tens of simulated minutes and no window would measure a
   throughput baseline. At sf 1 the hot set (~1 GB) fits the victim's
   isolated budget and stops fitting when a noisy neighbour strips it —
   exactly the effect the experiment isolates. *)
let tpch_sf = 1.

let catalog_of = function
  | Sales | Light -> Workload.Sales.catalog ()
  | Tpch -> Workload.Tpch.catalog ~sf:tpch_sf ()
  | Snowflake -> Workload.Snowflake.catalog ()

let templates_of = function
  | Sales -> Workload.Sales.templates ()
  | Tpch -> Workload.Tpch.templates ~sf:tpch_sf ()
  | Snowflake -> Workload.Snowflake.templates ()
  | Light -> [ Workload.Sales.diagnostic_template () ]

type tenant_result = {
  rname : string;
  rworkload : workload;
  rclients : int;
  slices : (float * float) array;
  mean_per_slice : float;
  completed : int;
  submitted : int;
  succeeded : int;
  abandoned : int;
  errors : int;
  budget_start : int;
  budget_end : int;
  floor : int;
  pool_hit_rate : float;
  cache_hit_rate : float;
}

type outcome = {
  omode : mode;
  oseed : int;
  ototal : int;
  owarmup : float;
  omeasure : float;
  oslice : float;
  tenants : tenant_result list;
  arb_ticks : int;
  arb_rebalances : int;
  arb_moved : int;
  arb_reclaimed : int;
  arb_scarce : bool;
}

(* One live pool: the tenant's server plus its measurement plumbing. *)
type live = {
  l_spec : spec;
  l_dbms : Dbms.t;
  l_templates : Workload.Template.t list;
  l_series : Sim.Series.t;
  l_stats : Workload.Client.stats;
  l_errors : int ref;
  l_budget0 : int;
  l_floor : int;
  l_pool : Qcore.Arbiter.pool option;
}

let run ?(specs = []) ?budgets ?trace ~mode ~total_bytes ~seed ~warmup ~measure
    ~slice () =
  let specs = if specs = [] then default_specs () else specs in
  let budgets =
    match budgets with
    | Some bs ->
        if List.length bs <> List.length specs then
          invalid_arg "Tenants.run: budgets/specs length mismatch";
        bs
    | None -> initial_budgets ~mode ~total:total_bytes specs
  in
  let eng = Sim.Engine.create ~seed () in
  let arbiter =
    match mode with
    | Static -> None
    | Isolated | Free_for_all ->
        Some
          (Qcore.Arbiter.create ?trace eng ~total:total_bytes)
  in
  let stop = warmup +. measure in
  let lives =
    List.map2
      (fun s budget ->
        let dbms =
          Dbms.create ?trace eng (Config.for_pool ~seed budget)
            (catalog_of s.tworkload)
        in
        Dbms.start dbms;
        let min_share, max_share = shares_of ~mode s in
        {
          l_spec = s;
          l_dbms = dbms;
          l_templates = templates_of s.tworkload;
          l_series = Sim.Series.create ~name:s.tname ();
          l_stats = Workload.Client.make_stats ();
          l_errors = ref 0;
          l_budget0 = budget;
          l_floor = int_of_float (min_share *. float_of_int total_bytes);
          l_pool =
            Option.map
              (fun arb ->
                Dbms.join_arbiter dbms arb ~name:s.tname ~weight:s.tweight
                  ~min_share ~max_share ~budget)
              arbiter;
        })
      specs budgets
  in
  Option.iter Qcore.Arbiter.start arbiter;
  (* One id counter across every tenant: qids stay globally unique, so a
     run with fewer tenants leaves the survivors' qids unchanged. *)
  let ids = ref 0 in
  List.iter
    (fun l ->
      let s = l.l_spec in
      (* Client randomness is keyed by (seed, tenant name), not by split
         order, so a tenant's query stream is identical whether it runs
         solo or with neighbours. *)
      let rng = Sim.Rng.create (seed lxor Hashtbl.hash s.tname) in
      let submit =
        Workload.Client.counting eng l.l_series (fun q ->
            let r = Dbms.submit_catch l.l_dbms q in
            if Result.is_error r then incr l.l_errors;
            r)
      in
      for i = 1 to s.tclients do
        Workload.Client.spawn eng rng
          ~name:(Printf.sprintf "%s-%d" s.tname i)
          ~templates:l.l_templates ~submit
          ~config:
            {
              Workload.Client.default_config with
              Workload.Client.think_mean = s.tthink_mean;
            }
          ~stats:l.l_stats ~ids ~until:stop
      done)
    lives;
  Sim.Engine.run eng ~until:stop;
  Sim.Engine.check_failures ~what:"tenant" eng;
  let tenants =
    List.map
      (fun l ->
        let w = Workload.Client.window l.l_series ~start:warmup ~stop ~slice in
        {
          rname = l.l_spec.tname;
          rworkload = l.l_spec.tworkload;
          rclients = l.l_spec.tclients;
          slices = w.slices;
          mean_per_slice = w.mean_per_slice;
          completed = w.completed;
          submitted = l.l_stats.Workload.Client.submitted;
          succeeded = l.l_stats.Workload.Client.succeeded;
          abandoned = l.l_stats.Workload.Client.abandoned;
          errors = !(l.l_errors);
          budget_start = l.l_budget0;
          budget_end =
            (match l.l_pool with
            | Some p -> Qcore.Arbiter.budget p
            | None -> l.l_budget0);
          floor = l.l_floor;
          pool_hit_rate = Bufpool.Pool.hit_rate (Dbms.pool l.l_dbms);
          cache_hit_rate = Plancache.Cache.hit_rate (Dbms.plan_cache l.l_dbms);
        })
      lives
  in
  let arb f default = Option.fold ~none:default ~some:f arbiter in
  {
    omode = mode;
    oseed = seed;
    ototal = total_bytes;
    owarmup = warmup;
    omeasure = measure;
    oslice = slice;
    tenants;
    arb_ticks = arb Qcore.Arbiter.ticks 0;
    arb_rebalances = arb Qcore.Arbiter.rebalances 0;
    arb_moved = arb Qcore.Arbiter.moved_bytes 0;
    arb_reclaimed = arb Qcore.Arbiter.reclaimed_bytes 0;
    arb_scarce = arb Qcore.Arbiter.scarce false;
  }

let solo ?(specs = []) ?trace ~victim ~total_bytes ~seed ~warmup ~measure ~slice
    () =
  let specs = if specs = [] then default_specs () else specs in
  let v =
    try List.find (fun s -> s.tname = victim) specs
    with Not_found -> invalid_arg ("Tenants.solo: no tenant named " ^ victim)
  in
  (* The solo budget is what the tenant would start with among the full
     cast — same pool size, no neighbours. *)
  let budget =
    List.fold_left2
      (fun acc s b -> if s.tname = victim then b else acc)
      0 specs
      (initial_budgets ~mode:Isolated ~total:total_bytes specs)
  in
  run ~specs:[ v ] ~budgets:[ budget ] ?trace ~mode:Static ~total_bytes ~seed
    ~warmup ~measure ~slice ()

let find_tenant o name = List.find (fun r -> r.rname = name) o.tenants

let retention ~shared ~solo =
  if solo.mean_per_slice <= 0. then 0.
  else shared.mean_per_slice /. solo.mean_per_slice
