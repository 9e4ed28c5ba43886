type t = {
  eng : Sim.Engine.t;
  trace : Obs.Trace.t;
  hit_latency : float;
  cache : Cache.t option;
  fallthrough : Optimizer.Query.t -> (unit, string) result;
  mutable requests : int;
  mutable hits : int;
  mutable misses : int;
  mutable bypasses : int;
  mutable invalidated_entries : int;
}

let create ?(trace = Obs.Trace.null) ?(hit_latency = 0.02) eng ~cache ~submit
    () =
  {
    eng;
    trace;
    hit_latency;
    cache;
    fallthrough = submit;
    requests = 0;
    hits = 0;
    misses = 0;
    bypasses = 0;
    invalidated_entries = 0;
  }

(* The SQL text ends with a "-- fingerprint <qid>" comment whose serial
   would make every replayed parameterized statement look distinct; the
   cache key is the template plus the statement text proper, so identical
   statements (same shape, same literals) alias as they should. The text
   is written once, straight into the key's buffer. *)
let key_of_query q =
  let qid = q.Optimizer.Query.qid in
  let buf = Buffer.create 512 in
  (* The template: the qid with its "#<serial>" stripped. *)
  (match String.index_opt qid '#' with
  | Some i -> Buffer.add_substring buf qid 0 i
  | None -> Buffer.add_string buf qid);
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
  Array.fold_left
    (fun acc (r : Optimizer.Query.rel) ->
      if List.mem r.rtable acc then acc else r.rtable :: acc)
    [] q.Optimizer.Query.rels
  |> List.rev

let emit t qid ev =
  if Obs.Trace.enabled t.trace then
    Obs.Trace.emit t.trace ~time:(Sim.Engine.now t.eng) ~qid ev

let submit t q =
  t.requests <- t.requests + 1;
  match t.cache with
  | None ->
      t.bypasses <- t.bypasses + 1;
      t.fallthrough q
  | Some c -> (
      let key = key_of_query q in
      let qid = q.Optimizer.Query.qid in
      match Cache.get c ~now:(Sim.Engine.now t.eng) key with
      | Some bytes ->
          t.hits <- t.hits + 1;
          emit t qid (Obs.Event.Midcache_lookup { hit = true; bytes });
          Sim.Engine.sleep t.hit_latency;
          Ok ()
      | None ->
          t.misses <- t.misses + 1;
          emit t qid (Obs.Event.Midcache_lookup { hit = false; bytes = 0 });
          let r = t.fallthrough q in
          (match r with
          | Ok () ->
              let bytes = payload_bytes q in
              if
                Cache.put c ~now:(Sim.Engine.now t.eng) ~key ~bytes
                  ~rels:(rels_of_query q)
              then
                emit t qid
                  (Obs.Event.Midcache_store
                     { bytes; resident = Cache.resident c })
          | Error _ -> ());
          r)

let write t ~rels =
  match t.cache with
  | None -> ()
  | Some c ->
      List.iter
        (fun rel ->
          let entries, bytes = Cache.invalidate c rel in
          t.invalidated_entries <- t.invalidated_entries + entries;
          if entries > 0 then
            emit t ""
              (Obs.Event.Midcache_invalidate { relation = rel; entries; bytes }))
        rels

let requests t = t.requests
let hits t = t.hits
let misses t = t.misses
let bypasses t = t.bypasses
let invalidated_entries t = t.invalidated_entries
