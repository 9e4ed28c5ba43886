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
}

(* Misses per disk transfer: sequential runs coalesce, random pages do
   not. *)
let io_batch_pages = 64
let random_batch_pages = 8

(* A page's policy key is [table lsl page_bits lor page]. Both fields are
   bounded so that distinct pages never share a key and the key stays a
   non-negative int. *)
let page_bits = 40
let max_tables = 1 lsl 22

let create ~clerk ~disk ~page_bytes ~policy =
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
  }

let check_table fn table =
  if table < 0 || table >= max_tables then invalid_arg (fn ^ ": table id")

let check_page fn page =
  if page < 0 || page >= 1 lsl page_bits then invalid_arg (fn ^ ": page")

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
   policy; if we own nothing, the page simply is not cached. The donor
   reclaim may itself evict through [shrink], so the key is inserted only
   after the allocation returns. *)
let admit t key =
  match Dbmem.Manager.alloc t.clerk t.pbytes with
  | Ok () -> Policy.insert t.policy key
  | Error `Out_of_memory ->
      if Policy.evict t.policy >= 0 then begin
        t.evictions <- t.evictions + 1;
        Policy.insert t.policy key
      end

(* Returns true on hit. On miss the page is admitted but NOT yet read --
   the caller batches the physical transfer. *)
let access t key =
  if Policy.touch t.policy key then begin
    t.hits <- t.hits + 1;
    true
  end
  else begin
    t.misses <- t.misses + 1;
    t.misses_window <- t.misses_window + 1;
    admit t key;
    false
  end

let read t ~table ~page =
  check_table "Pool.read" table;
  check_page "Pool.read" page;
  if not (access t ((table lsl page_bits) lor page)) then
    Disk.read t.disk ~bytes:t.pbytes

let flush_misses t n = if n > 0 then Disk.read t.disk ~bytes:(n * t.pbytes)

let read_range t ~table ~first ~count =
  check_table "Pool.read_range" table;
  if count > 0 then begin
    check_page "Pool.read_range" first;
    check_page "Pool.read_range" (first + count - 1)
  end;
  let base = table lsl page_bits in
  let pending = ref 0 in
  for page = first to first + count - 1 do
    if not (access t (base lor page)) then begin
      incr pending;
      if !pending >= io_batch_pages then begin
        flush_misses t !pending;
        pending := 0
      end
    end
  done;
  flush_misses t !pending

let read_random t ~table ~pages ~of_pages ~rng =
  check_table "Pool.read_random" table;
  let of_pages = max 1 of_pages in
  check_page "Pool.read_random" (of_pages - 1);
  let base = table lsl page_bits in
  let pending = ref 0 in
  for _ = 1 to pages do
    let page = Sim.Rng.int rng of_pages in
    if not (access t (base lor page)) then begin
      incr pending;
      if !pending >= random_batch_pages then begin
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
    if Policy.evict t.policy >= 0 then begin
      t.evictions <- t.evictions + 1;
      Dbmem.Manager.free t.clerk t.pbytes;
      freed := !freed + t.pbytes
    end
    else continue := false
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
