type config = { ttl : float; max_entry_bytes : int }

let default_config = { ttl = 300.; max_entry_bytes = 16 * 1024 * 1024 }

(* Intrusive doubly-linked LRU list: [head] is most-recently-used, [tail]
   is the eviction end. O(1) touch/unlink, no stamp scans. *)
type 'k entry = {
  key : 'k;
  bytes : int;
  rels : string list;
  expires : float;
  mutable prev : 'k entry option;  (* toward head (MRU) *)
  mutable next : 'k entry option;  (* toward tail (LRU) *)
}

type 'k t = {
  cfg : config;
  charge : int -> bool;
  release : int -> unit;
  mutable on_drop : 'k -> unit;
  table : ('k, 'k entry) Hashtbl.t;
  by_rel : (string, ('k, unit) Hashtbl.t) Hashtbl.t;
  mutable head : 'k entry option;
  mutable tail : 'k entry option;
  mutable budget : int;
  mutable resident : int;
  mutable hits : int;
  mutable misses : int;
  mutable bypasses : int;
  mutable stores : int;
  mutable refused : int;
  mutable evictions : int;
  mutable expired : int;
  mutable invalidated : int;
  mutable shrink_calls : int;
  mutable shrunk : int;
  mutable evicted_window : int;  (* space-eviction bytes since last hint *)
}

let create ?(charge = fun _ -> true) ?(release = fun _ -> ()) ~budget cfg =
  {
    cfg;
    charge;
    release;
    on_drop = ignore;
    table = Hashtbl.create 1024;
    by_rel = Hashtbl.create 64;
    head = None;
    tail = None;
    budget = max 0 budget;
    resident = 0;
    hits = 0;
    misses = 0;
    bypasses = 0;
    stores = 0;
    refused = 0;
    evictions = 0;
    expired = 0;
    invalidated = 0;
    shrink_calls = 0;
    shrunk = 0;
    evicted_window = 0;
  }

let set_on_drop t f = t.on_drop <- f

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
  | `Space ->
      t.evictions <- t.evictions + 1;
      t.evicted_window <- t.evicted_window + e.bytes;
      t.on_drop e.key
  | `Expired ->
      t.expired <- t.expired + 1;
      t.on_drop e.key
  | `Invalidated ->
      t.invalidated <- t.invalidated + 1;
      t.on_drop e.key
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
      (* Exactly at expiry is already stale: the entry promised freshness
         strictly inside [insert, insert + ttl). *)
      drop t e `Expired;
      t.misses <- t.misses + 1;
      None
  | Some e ->
      unlink t e;
      push_front t e;
      t.hits <- t.hits + 1;
      Some e.bytes

let note_miss t = t.misses <- t.misses + 1
let note_bypass t = t.bypasses <- t.bypasses + 1

let put t ~now ~key ~bytes ~rels =
  (match Hashtbl.find_opt t.table key with
  | Some old -> drop t old `Replaced
  | None -> ());
  if bytes <= 0 || bytes > t.cfg.max_entry_bytes || bytes > t.budget then begin
    t.refused <- t.refused + 1;
    false
  end
  else begin
    while t.resident + bytes > t.budget do
      ignore (evict_lru t)
    done;
    (* External accounting can refuse even under our own budget (the
       machine as a whole is tighter than the cache's cap): make room and
       retry, bounded, exactly like a cache insert stealing its own
       pages. *)
    let rec ensure attempts =
      if t.charge bytes then true
      else if attempts > 0 && evict_lru t > 0 then ensure (attempts - 1)
      else false
    in
    if ensure 32 then begin
      let expires = if t.cfg.ttl <= 0. then infinity else now +. t.cfg.ttl in
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
    else begin
      t.refused <- t.refused + 1;
      false
    end
  end

let invalidate t rel =
  match Hashtbl.find_opt t.by_rel rel with
  | None -> (0, 0)
  | Some bucket ->
      (* Sorted for a drop order that does not hang on the bucket's
         history. No output depends on it: a drop reaches only [release]
         (sums of bytes), the counters and [on_drop]. *)
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
  if !freed > 0 then begin
    t.shrink_calls <- t.shrink_calls + 1;
    t.shrunk <- t.shrunk + !freed
  end;
  !freed

let set_budget t n =
  t.budget <- max 0 n;
  while t.resident > t.budget do
    ignore (evict_lru t)
  done

let budget t = t.budget
let resident t = t.resident
let entries t = Hashtbl.length t.table
let mem t key = Hashtbl.mem t.table key

let demand_hint t =
  let unmet = t.evicted_window in
  t.evicted_window <- 0;
  t.resident + unmet

let hits t = t.hits
let misses t = t.misses
let bypasses t = t.bypasses
let requests t = t.hits + t.misses + t.bypasses
let stores t = t.stores
let refused t = t.refused
let evictions t = t.evictions
let expired t = t.expired
let invalidated t = t.invalidated
let shrinks t = t.shrink_calls
let shrunk_bytes t = t.shrunk

let hit_rate t =
  let total = t.hits + t.misses in
  if total = 0 then 0. else float_of_int t.hits /. float_of_int total

let pp ppf t =
  Format.fprintf ppf
    "midcache: %d entries (%.1f MiB of %.1f MiB), hit rate %.1f%%, %d \
     evictions, %d invalidated, %d expired"
    (entries t)
    (float_of_int t.resident /. 1048576.)
    (float_of_int t.budget /. 1048576.)
    (100. *. hit_rate t) t.evictions t.invalidated t.expired
