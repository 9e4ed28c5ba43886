type t = {
  disk : Disk.t;
  clerk : Dbmem.Manager.clerk;
  pbytes : int;
  policy : Policy.t;
  tables : (string, int) Hashtbl.t;
  mutable next_table : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable misses_window : int; (* misses since the last demand_hint call *)
  io_batch_pages : int;
}

let create _eng _manager ~clerk ~disk ~page_bytes ~policy =
  if page_bytes <= 0 then invalid_arg "Pool.create: page_bytes";
  {
    disk;
    clerk;
    pbytes = page_bytes;
    policy = Policy.create policy;
    tables = Hashtbl.create 32;
    next_table = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    misses_window = 0;
    io_batch_pages = 64;
  }

let table_id t name =
  match Hashtbl.find_opt t.tables name with
  | Some id -> id
  | None ->
      let id = t.next_table in
      t.next_table <- id + 1;
      Hashtbl.replace t.tables name id;
      id

(* Make a granule resident. If the manager cannot give us a new granule
   (even after donor reclaim), recycle one of our own via the replacement
   policy; if we own nothing, the page simply is not cached. *)
let admit t page =
  match Dbmem.Manager.alloc t.clerk t.pbytes with
  | Ok () -> Policy.insert t.policy page
  | Error `Out_of_memory -> (
      match Policy.evict t.policy with
      | Some _victim ->
          t.evictions <- t.evictions + 1;
          Policy.insert t.policy page
      | None -> ())

(* Returns true on hit. On miss the page is admitted but NOT yet read --
   the caller batches the physical transfer. *)
let access t page =
  if Policy.mem t.policy page then begin
    Policy.touch t.policy page;
    t.hits <- t.hits + 1;
    true
  end
  else begin
    t.misses <- t.misses + 1;
    t.misses_window <- t.misses_window + 1;
    admit t page;
    false
  end

let read t ~table ~page =
  if not (access t (table, page)) then Disk.read t.disk ~bytes:t.pbytes

let flush_misses t n = if n > 0 then Disk.read t.disk ~bytes:(n * t.pbytes)

let read_range t ~table ~first ~count =
  let pending = ref 0 in
  for page = first to first + count - 1 do
    if not (access t (table, page)) then begin
      incr pending;
      if !pending >= t.io_batch_pages then begin
        flush_misses t !pending;
        pending := 0
      end
    end
  done;
  flush_misses t !pending

let read_random t ~table ~pages ~of_pages ~rng =
  let pending = ref 0 in
  for _ = 1 to pages do
    let page = Sim.Rng.int rng (max 1 of_pages) in
    if not (access t (table, page)) then begin
      incr pending;
      (* Random pages do not coalesce: smaller batches. *)
      if !pending >= 8 then begin
        flush_misses t !pending;
        pending := 0
      end
    end
  done;
  flush_misses t !pending

let shrink t n =
  let freed = ref 0 in
  let continue = ref true in
  while !freed < n && !continue do
    match Policy.evict t.policy with
    | Some _ ->
        t.evictions <- t.evictions + 1;
        Dbmem.Manager.free t.clerk t.pbytes;
        freed := !freed + t.pbytes
    | None -> continue := false
  done;
  !freed

let resident_bytes t = Dbmem.Manager.clerk_used t.clerk

let shrink_to t target =
  let excess = resident_bytes t - target in
  if excess > 0 then shrink t excess else 0

let resident_pages t = Policy.size t.policy
let page_bytes t = t.pbytes
let hits t = t.hits
let misses t = t.misses

let hit_rate t =
  let total = t.hits + t.misses in
  (* 0., not nan: see Plancache.Cache.hit_rate — nan here propagates
     into reports. *)
  if total = 0 then 0. else float_of_int t.hits /. float_of_int total

let evictions t = t.evictions

let demand_hint t =
  let unmet = t.misses_window * t.pbytes in
  t.misses_window <- 0;
  resident_bytes t + unmet

let pp ppf t =
  Format.fprintf ppf
    "buffer pool: %d pages (%a), hit rate %.1f%%, %d evictions"
    (resident_pages t) Dbmem.Units.pp_bytes (resident_bytes t)
    (100. *. hit_rate t) t.evictions
