type entry = {
  key : string;
  bytes : int;
  rels : string list;
  expires : float;
  mutable prev : entry option;  (* toward head (MRU) *)
  mutable next : entry option;  (* toward tail (LRU) *)
}

type t = {
  cfg : Midcache.Cache.config;
  trace : Obs.Trace.t;
  release : int -> unit;
  table : (string, entry) Hashtbl.t;
  by_rel : (string, (string, unit) Hashtbl.t) Hashtbl.t;
  mutable head : entry option;
  mutable tail : entry option;
  mutable budget : int;
  mutable resident : int;
  mutable hits : int;
  mutable misses : int;
  mutable stores : int;
  mutable refused : int;
  mutable evictions : int;
  mutable expired : int;
  mutable invalidated : int;
  mutable invalidated_entries : int;
}

let create ?(trace = Obs.Trace.null) ?(release = fun _ -> ()) ~budget cfg =
  {
    cfg;
    trace;
    release;
    table = Hashtbl.create 1024;
    by_rel = Hashtbl.create 64;
    head = None;
    tail = None;
    budget = max 0 budget;
    resident = 0;
    hits = 0;
    misses = 0;
    stores = 0;
    refused = 0;
    evictions = 0;
    expired = 0;
    invalidated = 0;
    invalidated_entries = 0;
  }

let unlink t e =
  (match e.prev with Some p -> p.next <- e.next | None -> t.head <- e.next);
  (match e.next with Some n -> n.prev <- e.prev | None -> t.tail <- e.prev);
  e.prev <- None;
  e.next <- None

let push_front t e =
  e.prev <- None;
  e.next <- t.head;
  (match t.head with Some h -> h.prev <- Some e | None -> t.tail <- Some e);
  t.head <- Some e

let drop t e reason =
  unlink t e;
  Hashtbl.remove t.table e.key;
  List.iter
    (fun r ->
      match Hashtbl.find_opt t.by_rel r with
      | None -> ()
      | Some bucket ->
          Hashtbl.remove bucket e.key;
          if Hashtbl.length bucket = 0 then Hashtbl.remove t.by_rel r)
    e.rels;
  t.resident <- t.resident - e.bytes;
  t.release e.bytes;
  match reason with
  | `Space -> t.evictions <- t.evictions + 1
  | `Expired -> t.expired <- t.expired + 1
  | `Invalidated -> t.invalidated <- t.invalidated + 1
  | `Replaced -> ()

let evict_lru t =
  match t.tail with
  | None -> 0
  | Some e ->
      drop t e `Space;
      e.bytes

let get t ~now key =
  match Hashtbl.find_opt t.table key with
  | None ->
      t.misses <- t.misses + 1;
      None
  | Some e when now >= e.expires ->
      drop t e `Expired;
      t.misses <- t.misses + 1;
      None
  | Some e ->
      unlink t e;
      push_front t e;
      t.hits <- t.hits + 1;
      Some e.bytes

let put t ~now ~key ~bytes ~rels =
  (match Hashtbl.find_opt t.table key with
  | Some old -> drop t old `Replaced
  | None -> ());
  if
    bytes <= 0 || bytes > t.cfg.Midcache.Cache.max_entry_bytes || bytes > t.budget
  then begin
    t.refused <- t.refused + 1;
    false
  end
  else begin
    while t.resident + bytes > t.budget do
      ignore (evict_lru t)
    done;
    let ttl = t.cfg.Midcache.Cache.ttl in
    let expires = if ttl <= 0. then infinity else now +. ttl in
    let e = { key; bytes; rels; expires; prev = None; next = None } in
    push_front t e;
    Hashtbl.replace t.table key e;
    List.iter
      (fun r ->
        let bucket =
          match Hashtbl.find_opt t.by_rel r with
          | Some b -> b
          | None ->
              let b = Hashtbl.create 16 in
              Hashtbl.add t.by_rel r b;
              b
        in
        Hashtbl.replace bucket key ())
      rels;
    t.resident <- t.resident + bytes;
    t.stores <- t.stores + 1;
    true
  end

let invalidate t rel =
  match Hashtbl.find_opt t.by_rel rel with
  | None -> (0, 0)
  | Some bucket ->
      let keys =
        List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) bucket [])
      in
      List.fold_left
        (fun (n, b) key ->
          match Hashtbl.find_opt t.table key with
          | None -> (n, b)
          | Some e ->
              drop t e `Invalidated;
              (n + 1, b + e.bytes))
        (0, 0) keys

let shrink t n =
  let freed = ref 0 in
  let continue = ref true in
  while !freed < n && !continue do
    let got = evict_lru t in
    if got = 0 then continue := false else freed := !freed + got
  done;
  !freed

let set_budget t n =
  t.budget <- max 0 n;
  while t.resident > t.budget do
    ignore (evict_lru t)
  done

let emit t ~now qid ev =
  if Obs.Trace.enabled t.trace then Obs.Trace.emit t.trace ~time:now ~qid ev

let lookup t ~now q =
  let qid = q.Optimizer.Query.qid in
  match get t ~now (Midcache.Frontend.key_of_query q) with
  | Some bytes as hit ->
      emit t ~now qid (Obs.Event.Midcache_lookup { hit = true; bytes });
      hit
  | None ->
      emit t ~now qid (Obs.Event.Midcache_lookup { hit = false; bytes = 0 });
      None

let store t ~now q =
  let bytes = Midcache.Frontend.payload_bytes q in
  if
    put t ~now ~key:(Midcache.Frontend.key_of_query q) ~bytes
      ~rels:(Midcache.Frontend.rels_of_query q)
  then
    emit t ~now q.Optimizer.Query.qid
      (Obs.Event.Midcache_store { bytes; resident = t.resident })

let write t ~now ~rels =
  List.iter
    (fun rel ->
      let entries, bytes = invalidate t rel in
      t.invalidated_entries <- t.invalidated_entries + entries;
      if entries > 0 then
        emit t ~now ""
          (Obs.Event.Midcache_invalidate { relation = rel; entries; bytes }))
    rels

let hits t = t.hits
let misses t = t.misses
let stores t = t.stores
let refused t = t.refused
let evictions t = t.evictions
let expired t = t.expired
let invalidated t = t.invalidated
let resident t = t.resident
let entries t = Hashtbl.length t.table
let invalidated_entries t = t.invalidated_entries
