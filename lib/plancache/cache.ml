type entry = {
  plan : Optimizer.Plan.t;
  size : int;
  compile_cost : float;
  mutable uses : int;
  mutable stamp : int; (* recency tiebreak *)
}

type t = {
  clerk : Dbmem.Manager.clerk;
  table : (string, entry) Hashtbl.t;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable evicted_window : int; (* bytes evicted since the last demand_hint *)
}

let create ~clerk =
  {
    clerk;
    table = Hashtbl.create 1024;
    clock = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    evicted_window = 0;
  }

let lookup t key =
  match Hashtbl.find_opt t.table key with
  | Some e ->
      t.hits <- t.hits + 1;
      t.clock <- t.clock + 1;
      e.uses <- e.uses + 1;
      e.stamp <- t.clock;
      Some e.plan
  | None ->
      t.misses <- t.misses + 1;
      None

(* Value of keeping an entry: cost saved per byte, scaled by observed
   reuse. Lowest value (oldest on ties) is evicted first. *)
let value e =
  e.compile_cost *. float_of_int e.uses /. float_of_int (max 1 e.size)

let evict_one t =
  let victim =
    Hashtbl.fold
      (fun key e acc ->
        match acc with
        | Some (_, best) when (value best, best.stamp) <= (value e, e.stamp) ->
            acc
        | _ -> Some (key, e))
      t.table None
  in
  match victim with
  | None -> 0
  | Some (key, e) ->
      Hashtbl.remove t.table key;
      Dbmem.Manager.free t.clerk e.size;
      t.evictions <- t.evictions + 1;
      t.evicted_window <- t.evicted_window + e.size;
      e.size

let remove t key =
  match Hashtbl.find_opt t.table key with
  | None -> ()
  | Some e ->
      Hashtbl.remove t.table key;
      Dbmem.Manager.free t.clerk e.size

let insert t ~key ~plan ~compile_cost =
  remove t key;
  let size = Optimizer.Plan.size_bytes plan in
  let rec ensure attempts =
    match Dbmem.Manager.alloc t.clerk size with
    | Ok () -> true
    | Error `Out_of_memory ->
        if attempts > 0 && evict_one t > 0 then ensure (attempts - 1) else false
  in
  if ensure 32 then begin
    t.clock <- t.clock + 1;
    Hashtbl.replace t.table key
      { plan; size; compile_cost; uses = 1; stamp = t.clock }
  end

let shrink t n =
  let freed = ref 0 in
  let continue = ref true in
  while !freed < n && !continue do
    let got = evict_one t in
    if got = 0 then continue := false else freed := !freed + got
  done;
  !freed

let entries t = Hashtbl.length t.table
let bytes t = Dbmem.Manager.clerk_used t.clerk

(* Demand for the broker: resident bytes plus what was evicted since the
   last ask — evicted-then-wanted-again is exactly unmet demand, the same
   shape as the buffer pool's miss-window hint. *)
let demand_hint t =
  let unmet = t.evicted_window in
  t.evicted_window <- 0;
  bytes t + unmet
let hits t = t.hits
let misses t = t.misses
let evictions t = t.evictions

let hit_rate t =
  let total = t.hits + t.misses in
  (* 0., not nan: a fresh cache has a defined (empty) history, and nan
     would poison every ratio derived from this one downstream. *)
  if total = 0 then 0. else float_of_int t.hits /. float_of_int total

let pp ppf t =
  Format.fprintf ppf "plan cache: %d entries (%a), hit rate %.1f%%, %d evictions"
    (entries t) Dbmem.Units.pp_bytes (bytes t)
    (100. *. hit_rate t) t.evictions
