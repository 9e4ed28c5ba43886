module Statements = Optimizer.Query.Statements

(* The cache keys by int. [ids] gives the int of each statement the cache
   holds, and [stmts] and [rels] give, by int, the statement and the
   relations its result joins. A statement enters when its result is put
   and leaves when the entry does (the cache's drop hook, or a refused
   put), so [ids] never holds more than the cache's entries, and the
   ints of statements that left are handed out again. *)
type t = {
  eng : Sim.Engine.t;
  trace : Obs.Trace.t;
  hit_latency : float;
  cache : int Cache.t option;
  fallthrough : Optimizer.Query.t -> (unit, string) result;
  ids : int Statements.t;
  mutable stmts : Optimizer.Query.t array;
  mutable rels : string list array;
  mutable free : int list;  (* ints of statements that left *)
  mutable next_id : int;  (* no int at or above it was handed out *)
  mutable requests : int;
  mutable hits : int;
  mutable misses : int;
  mutable bypasses : int;
  mutable invalidated_entries : int;
}

(* Fills the slots of ints not in use. *)
let vacant =
  Optimizer.Query.make ~id:"" ~rels:[ ("", "") ] ~preds:[] ~filters:[] ~agg:None

let forget t id =
  Statements.remove t.ids t.stmts.(id);
  t.stmts.(id) <- vacant;
  t.rels.(id) <- [];
  t.free <- id :: t.free

let create ?(trace = Obs.Trace.null) ?(hit_latency = 0.02) eng ~cache ~submit
    () =
  let t =
    {
      eng;
      trace;
      hit_latency;
      cache;
      fallthrough = submit;
      ids = Statements.create 1024;
      stmts = [||];
      rels = [||];
      free = [];
      next_id = 0;
      requests = 0;
      hits = 0;
      misses = 0;
      bypasses = 0;
      invalidated_entries = 0;
    }
  in
  Option.iter (fun c -> Cache.set_on_drop c (forget t)) cache;
  t

(* The SQL text ends with a "-- fingerprint <qid>" comment whose serial
   would make every replayed parameterized statement look distinct; the
   key is the template plus the statement text proper, so identical
   statements (same shape, same literals) alias as they should. *)
let key_of_query q =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Optimizer.Query.template q);
  Buffer.add_char buf '|';
  Optimizer.Query.add_sql_body buf q;
  Buffer.contents buf

(* Simulated result size: each GROUP BY column has ~100 distinct values
   (the SALES catalog's [attr]), so the group count is 100^cols, capped at
   a plausible result-set bound; width is 32 bytes of grouping key plus 16
   per aggregate column (value + null bitmap + per-column overhead).
   Non-aggregate statements are modelled as wide scans with a small LIMIT.
   The sizes are deliberately result-set-scale, not row-count-scale: a
   mid-tier result cache earns its keep (and its broker scrutiny) by
   holding tens to hundreds of MiB. *)
let payload_bytes q =
  match q.Optimizer.Query.agg with
  | None -> 64 * 1024
  | Some a ->
      let cols = List.length a.Optimizer.Query.group_by in
      let rows =
        let rec pow acc n = if n = 0 then acc else pow (acc * 100) (n - 1) in
        min 100_000 (pow 1 (max 0 cols))
      in
      let width = 32 + (16 * (1 + List.length a.Optimizer.Query.sum_cols)) in
      max 1 (rows * width)

let rels_of_query q =
  let rels = q.Optimizer.Query.rels in
  let table i = rels.(i).Optimizer.Query.rtable in
  let rec seen_before i j = j < i && (String.equal (table j) (table i) || seen_before i (j + 1)) in
  let acc = ref [] in
  for i = Array.length rels - 1 downto 0 do
    if not (seen_before i 0) then acc := table i :: !acc
  done;
  !acc

(* The int of [q]'s statement, handing out one if it has none. *)
let intern t q =
  match Statements.find t.ids q with
  | id -> id
  | exception Not_found ->
      let id =
        match t.free with
        | id :: rest ->
            t.free <- rest;
            id
        | [] ->
            let id = t.next_id in
            if id = Array.length t.stmts then begin
              let grow a fill = Array.append a (Array.make (max 64 id) fill) in
              t.stmts <- grow t.stmts vacant;
              t.rels <- grow t.rels []
            end;
            t.next_id <- id + 1;
            id
      in
      Statements.add t.ids q id;
      t.stmts.(id) <- q;
      t.rels.(id) <- rels_of_query q;
      id

let emit t ~time qid ev =
  if Obs.Trace.enabled t.trace then Obs.Trace.emit t.trace ~time ~qid ev

let lookup t ~now q =
  t.requests <- t.requests + 1;
  match t.cache with
  | None ->
      t.bypasses <- t.bypasses + 1;
      None
  | Some c -> (
      let qid = q.Optimizer.Query.qid in
      let cached =
        match Statements.find t.ids q with
        | id -> Cache.get c ~now id
        | exception Not_found ->
            Cache.note_miss c;
            None
      in
      match cached with
      | Some bytes as hit ->
          t.hits <- t.hits + 1;
          emit t ~time:now qid (Obs.Event.Midcache_lookup { hit = true; bytes });
          hit
      | None ->
          t.misses <- t.misses + 1;
          emit t ~time:now qid (Obs.Event.Midcache_lookup { hit = false; bytes = 0 });
          None)

let store t ~now q =
  match t.cache with
  | None -> ()
  | Some c ->
      let bytes = payload_bytes q in
      let key = intern t q in
      if Cache.put c ~now ~key ~bytes ~rels:t.rels.(key) then
        emit t ~time:now q.Optimizer.Query.qid
          (Obs.Event.Midcache_store { bytes; resident = Cache.resident c })
      else forget t key

let submit t q =
  match lookup t ~now:(Sim.Engine.now t.eng) q with
  | Some _ ->
      Sim.Engine.sleep t.hit_latency;
      Ok ()
  | None ->
      let r = t.fallthrough q in
      if Result.is_ok r then store t ~now:(Sim.Engine.now t.eng) q;
      r

let write t ~rels =
  match t.cache with
  | None -> ()
  | Some c ->
      List.iter
        (fun rel ->
          let entries, bytes = Cache.invalidate c rel in
          t.invalidated_entries <- t.invalidated_entries + entries;
          if entries > 0 then
            emit t ~time:(Sim.Engine.now t.eng) ""
              (Obs.Event.Midcache_invalidate { relation = rel; entries; bytes }))
        rels

let interned t = Statements.length t.ids
let requests t = t.requests
let hits t = t.hits
let misses t = t.misses
let bypasses t = t.bypasses
let invalidated_entries t = t.invalidated_entries
