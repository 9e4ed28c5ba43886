(* Storm-defense layer (metastable-failure defenses). Off in
   [no_defense] so every pre-existing configuration replays its seed
   byte-for-byte; [defended] is the full stack the storm experiment
   switches on. The stack is one switch: it is on exactly when the retry
   budget is configured. *)
type defense = {
  d_budget : Resilience.Budget.config option;  (* retry token bucket *)
}

let no_defense = { d_budget = None }
let defended = { d_budget = Some Resilience.Budget.default_config }
let defense_on d = Option.is_some d.d_budget

let page_bytes = Dbmem.Units.mib 4
let disk_seek_s = 0.008

type t = {
  cpus : int;
  memory_bytes : int;
  disk_spindles : int;
  disk_throughput : float;
  pool_policy : Bufpool.Policy.kind;
  throttle : Qcore.Throttle_config.t;
  throttle_enabled : bool;
  optimizer_params : Optimizer.Cascades.params;
  cost_model : Optimizer.Cost.model;
  grant_timeout : float;
  min_pool_bytes : int;
  min_workspace_bytes : int;
  plan_cache_floor_bytes : int;
  seed : int;
  resilience : bool;
  defense : defense;
  faults : Faultsim.Fault.spec list;
}

let default () =
  {
    cpus = 8;
    memory_bytes = Dbmem.Units.gib 4;
    disk_spindles = 8;
    (* 8 spindles x 40 MB/s ~ a 2-channel Ultra3 SCSI RAID-0 of the era. *)
    disk_throughput = 40. *. 1024. *. 1024.;
    pool_policy = Bufpool.Policy.Lru2;
    throttle = Qcore.Throttle_config.default ();
    throttle_enabled = true;
    optimizer_params = Optimizer.Cascades.default_params;
    cost_model = Optimizer.Cost.default;
    grant_timeout = 600.;
    min_pool_bytes = Dbmem.Units.mib 256;
    min_workspace_bytes = Dbmem.Units.mib 256;
    (* 0 = unprotected: the plan cache donates everything under manager
       pressure, the seed behaviour. Cache-heavy workloads (the sharded
       parameterized experiment) raise this so the warm set survives
       buffer-pool pressure — per the paper, a cached plan is the most
       valuable byte in the server (compile cost saved per byte). *)
    plan_cache_floor_bytes = 0;
    seed = 42;
    resilience = false;
    defense = no_defense;
    faults = [];
  }

let resilient () = { (default ()) with resilience = true }

let unthrottled () =
  let base = default () in
  {
    base with
    throttle_enabled = false;
    optimizer_params =
      {
        base.optimizer_params with
        Optimizer.Cascades.honor_stop_early = false;
      };
  }

let for_pool ~seed bytes =
  let base = default () in
  {
    base with
    memory_bytes = bytes;
    seed;
    min_pool_bytes = min base.min_pool_bytes (bytes / 8);
    min_workspace_bytes = min base.min_workspace_bytes (bytes / 8);
  }

let pp ppf t =
  Format.fprintf ppf
    "@[<v>server: %d cpus, %a memory, %d spindles @@ %.0f MB/s, pool granule %a@,throttle %s (%s)@,%a@,%a@]"
    t.cpus Dbmem.Units.pp_bytes t.memory_bytes t.disk_spindles
    (t.disk_throughput /. (1024. *. 1024.))
    Dbmem.Units.pp_bytes page_bytes
    (if t.throttle_enabled then "ON" else "OFF")
    (if t.throttle.Qcore.Throttle_config.dynamic then "dynamic thresholds"
     else "static thresholds")
    Qcore.Throttle_config.pp t.throttle Resilience.pp t.resilience;
  if defense_on t.defense then
    Format.fprintf ppf
      "@,storm defense ON: singleflight + retry budget + adaptive queues + \
       storm detector";
  match t.faults with
  | [] -> ()
  | faults ->
      Format.fprintf ppf "@,fault schedule:";
      List.iter (fun f -> Format.fprintf ppf "@,  %a" Faultsim.Fault.pp f)
        faults
