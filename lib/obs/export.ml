let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

let json_escape s =
  (* Nearly every exported string (qids, gate names, event names) is
     already clean; scan first and only build a buffer when something
     actually needs escaping. *)
  let n = String.length s in
  let rec clean i = i >= n || ((not (needs_escape s.[i])) && clean (i + 1)) in
  if clean 0 then s
  else begin
    let buf = Buffer.create (n + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | '\b' -> Buffer.add_string buf "\\b"
        | '\012' -> Buffer.add_string buf "\\f"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf
  end

let value_json = function
  | Event.I i -> string_of_int i
  | Event.F f -> Printf.sprintf "%.6g" f
  | Event.S s -> Printf.sprintf "\"%s\"" (json_escape s)
  | Event.B b -> if b then "true" else "false"

let args_json args =
  String.concat ","
    (List.map
       (fun (k, v) -> Printf.sprintf "\"%s\":%s" (json_escape k) (value_json v))
       args)

(* ------------------------------------------------------------------ *)
(* Event fields                                                       *)
(* ------------------------------------------------------------------ *)

(* The one list of each event's fields: a JSONL line carries them after
   its base fields, and a Chrome instant carries them as its args. *)
let fields_of_event = function
  | Event.Compile_begin -> []
  | Event.Compile_alloc { bytes; usage } ->
      [ ("bytes", Event.I bytes); ("usage", Event.I usage) ]
  | Event.Compile_end { peak } -> [ ("peak", Event.I peak) ]
  | Event.Gateway { gate; priority; _ } ->
      [ ("gate", Event.S gate); ("priority", Event.I priority) ]
  | Event.Broker_tick { pressure; budget; components } ->
      [
        ("pressure", Event.B pressure);
        ("budget", Event.I budget);
        ("ncomponents", Event.I (List.length components));
      ]
  | Event.Grant { bytes; _ } -> [ ("bytes", Event.I bytes) ]
  | Event.Exec_begin -> []
  | Event.Exec_end { granted; ideal; spilled; pages } ->
      [
        ("granted", Event.I granted);
        ("ideal", Event.I ideal);
        ("spilled", Event.B spilled);
        ("pages", Event.I pages);
      ]
  | Event.Spill { bytes } -> [ ("bytes", Event.I bytes) ]
  | Event.Retry { attempt; pause_s; kind } ->
      [
        ("attempt", Event.I attempt);
        ("pause_s", Event.F pause_s);
        ("kind", Event.S kind);
      ]
  | Event.Degrade { rung } -> [ ("rung", Event.S rung) ]
  | Event.Cache_hit -> []
  | Event.Query_error { kind } -> [ ("kind", Event.S kind) ]
  | Event.Mem { clerk; used } ->
      [ ("clerk", Event.S clerk); ("used", Event.I used) ]
  | Event.Oom { clerk; requested; free } ->
      [
        ("clerk", Event.S clerk);
        ("requested", Event.I requested);
        ("free", Event.I free);
      ]
  | Event.Reclaim { wanted; freed } ->
      [ ("wanted", Event.I wanted); ("freed", Event.I freed) ]
  | Event.Breaker_open { shard } -> [ ("shard", Event.S shard) ]
  | Event.Breaker_close { shard } -> [ ("shard", Event.S shard) ]
  | Event.Arbiter_tick { scarce; total; pools } ->
      [
        ("scarce", Event.B scarce);
        ("total", Event.I total);
        ("npools", Event.I (List.length pools));
      ]
  | Event.Arbiter_reclaim { pool; wanted; freed } ->
      [
        ("pool", Event.S pool);
        ("wanted", Event.I wanted);
        ("freed", Event.I freed);
      ]
  | Event.Shard_state { shard; from_state; to_state } ->
      [
        ("shard", Event.S shard);
        ("from", Event.S from_state);
        ("to", Event.S to_state);
      ]
  | Event.Route { shard; template; spill; hedged } ->
      [
        ("shard", Event.S shard);
        ("template", Event.S template);
        ("spill", Event.B spill);
        ("hedged", Event.B hedged);
      ]
  | Event.Shard_sample { shard; s_state; s_inflight; s_budget } ->
      [
        ("shard", Event.S shard);
        ("state", Event.I s_state);
        ("inflight", Event.I s_inflight);
        ("budget", Event.I s_budget);
      ]
  | Event.Midcache_lookup { hit; bytes } ->
      [ ("hit", Event.B hit); ("bytes", Event.I bytes) ]
  | Event.Midcache_store { bytes; resident } ->
      [ ("bytes", Event.I bytes); ("resident", Event.I resident) ]
  | Event.Midcache_invalidate { relation; entries; bytes } ->
      [
        ("relation", Event.S relation);
        ("entries", Event.I entries);
        ("bytes", Event.I bytes);
      ]
  | Event.Midcache_shrink { wanted; freed } ->
      [ ("wanted", Event.I wanted); ("freed", Event.I freed) ]
  | Event.Midcache_sample { resident; mc_budget; mc_entries; hit_rate_pct } ->
      [
        ("resident", Event.I resident);
        ("budget", Event.I mc_budget);
        ("entries", Event.I mc_entries);
        ("hit_rate_pct", Event.I hit_rate_pct);
      ]
  | Event.Storm_begin { misses; baseline } ->
      [ ("misses", Event.I misses); ("baseline", Event.F baseline) ]
  | Event.Storm_end { duration_s } -> [ ("duration_s", Event.F duration_s) ]
  | Event.Singleflight_coalesce { template; waiters } ->
      [ ("template", Event.S template); ("waiters", Event.I waiters) ]
  | Event.Queue_shift { gate; lifo } ->
      [ ("gate", Event.S gate); ("lifo", Event.B lifo) ]
  | Event.Custom { args; _ } -> args

(* ------------------------------------------------------------------ *)
(* Chrome trace-event format                                          *)
(* ------------------------------------------------------------------ *)

(* Events for the whole simulated server (broker ticks, memory samples)
   go on tid 0; each query id gets its own tid so its compile / wait /
   hold / exec spans stack on one named track. *)
let tid_of intern qid =
  match Hashtbl.find_opt intern qid with
  | Some tid -> tid
  | None ->
      let tid = Hashtbl.length intern + 1 in
      Hashtbl.add intern qid tid;
      tid

type emitted = {
  ph : char;
  name : string;
  cat : string;
  ts : float;
  tid : int;
  args : (string * Event.value) list;
}

(* An instant's Chrome name is its event name without the
   ["<category>:"] prefix, except for the spellings the exporter has
   always written for these events. *)
let instant_name ~cat e =
  match e with
  | Event.Query_error _ -> "query_error"
  | Event.Singleflight_coalesce _ -> "singleflight_coalesce"
  | Event.Arbiter_reclaim _ | Event.Shard_state _ | Event.Midcache_lookup _
  | Event.Midcache_store _ | Event.Midcache_invalidate _
  | Event.Midcache_shrink _ | Event.Storm_begin _ | Event.Storm_end _ ->
      String.map (fun c -> if c = ':' then '_' else c) (Event.name e)
  | _ ->
      let name = Event.name e in
      let skip = String.length cat + 1 in
      String.sub name skip (String.length name - skip)

(* Lower one record into zero or more Chrome events. Spans and counters
   have their own cases; every other event is one instant whose args are
   its fields. A wait phase lowers as: Wait → span begin; Acquired →
   wait-span end plus hold-span begin; Timeout → wait-span end; Release
   → hold-span end. Chrome matches B/E pairs per tid by nesting, which
   the emission order in the instrumented code guarantees (waits and
   holds are properly bracketed inside the compile span). *)
let lower intern (r : Trace.record) : emitted list =
  let tid = if r.qid = "" then 0 else tid_of intern r.qid in
  let ts = r.time *. 1e6 in
  let cat = Event.category r.event in
  let ev ?(args = []) ph name = { ph; name; cat; ts; tid; args } in
  let wait_span phase ~wait ~hold ~wait_args ~hold_args =
    match phase with
    | Event.Wait -> [ ev 'B' wait ~args:wait_args ]
    | Event.Acquired -> [ ev 'E' wait; ev 'B' hold ~args:hold_args ]
    | Event.Timeout -> [ ev 'E' wait ~args:[ ("outcome", Event.S "timeout") ] ]
    | Event.Release -> [ ev 'E' hold ]
  in
  match r.event with
  | Event.Compile_begin -> [ ev 'B' "compile" ]
  | Event.Compile_alloc { usage; _ } ->
      [ ev 'C' ("compile:" ^ r.qid) ~args:[ ("usage", Event.I usage) ] ]
  | Event.Compile_end _ ->
      [
        ev 'C' ("compile:" ^ r.qid) ~args:[ ("usage", Event.I 0) ];
        ev 'E' "compile" ~args:(fields_of_event r.event);
      ]
  | Event.Gateway { gate; phase; priority } ->
      wait_span phase ~wait:("wait:" ^ gate) ~hold:("hold:" ^ gate)
        ~wait_args:[ ("priority", Event.I priority) ]
        ~hold_args:[]
  | Event.Grant { phase; bytes } ->
      let args = [ ("bytes", Event.I bytes) ] in
      wait_span phase ~wait:"grant:wait" ~hold:"grant:hold" ~wait_args:args
        ~hold_args:args
  | Event.Exec_begin -> [ ev 'B' "exec" ]
  | Event.Exec_end _ -> [ ev 'E' "exec" ~args:(fields_of_event r.event) ]
  | Event.Broker_tick { pressure; budget; components } ->
      let per f = List.map (fun c -> (c.Event.comp, f c)) components in
      [
        ev 'C' "broker:targets" ~args:(per (fun c -> Event.I c.Event.target));
        ev 'C' "broker:predicted"
          ~args:(per (fun c -> Event.I c.Event.predicted));
        ev 'i' "broker:tick"
          ~args:
            (("pressure", Event.B pressure)
            :: ("budget", Event.I budget)
            :: per (fun c -> Event.S (Event.verdict_name c.Event.verdict)));
      ]
  | Event.Mem { clerk; used } ->
      [ ev 'C' ("mem:" ^ clerk) ~args:[ ("used", Event.I used) ] ]
  | Event.Arbiter_tick { scarce; total; pools } ->
      let per f = List.map (fun p -> (p.Event.pool, Event.I (f p))) pools in
      [
        ev 'C' "arbiter:budgets" ~args:(per (fun p -> p.Event.pool_budget));
        ev 'C' "arbiter:predicted" ~args:(per (fun p -> p.Event.pool_predicted));
        ev 'i' "arbiter:tick"
          ~args:[ ("scarce", Event.B scarce); ("total", Event.I total) ];
      ]
  | Event.Shard_sample { shard; s_state; s_inflight; s_budget } ->
      [
        ev 'C' ("shard:" ^ shard)
          ~args:
            [
              ("state", Event.I s_state);
              ("inflight", Event.I s_inflight);
              ("budget_mib", Event.I (s_budget / (1024 * 1024)));
            ];
      ]
  | Event.Midcache_sample { resident; mc_budget; mc_entries; hit_rate_pct } ->
      [
        ev 'C' "midcache:bytes"
          ~args:
            [ ("resident", Event.I resident); ("budget", Event.I mc_budget) ];
        ev 'C' "midcache:entries" ~args:[ ("entries", Event.I mc_entries) ];
        ev 'C' "midcache:hit_rate" ~args:[ ("pct", Event.I hit_rate_pct) ];
      ]
  | Event.Midcache_lookup { bytes; _ } ->
      (* The hit or miss is already in the name. *)
      [ ev 'i' (instant_name ~cat r.event) ~args:[ ("bytes", Event.I bytes) ] ]
  | e -> [ ev 'i' (instant_name ~cat e) ~args:(fields_of_event e) ]

let chrome_event fmt ~first e =
  if not first then Format.fprintf fmt ",@\n";
  let scope = if e.ph = 'i' then ",\"s\":\"t\"" else "" in
  let args =
    if e.args = [] then "" else Printf.sprintf ",\"args\":{%s}" (args_json e.args)
  in
  Format.fprintf fmt
    "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%c\",\"ts\":%.1f,\"pid\":1,\"tid\":%d%s%s}"
    (json_escape e.name) (json_escape e.cat) e.ph e.ts e.tid scope args

let chrome fmt records =
  let intern = Hashtbl.create 64 in
  Format.fprintf fmt "{\"traceEvents\":[@\n";
  let first = ref true in
  (* Name tid 0 up front; query tids are named after the event pass, once
     the interning table is complete. *)
  chrome_event fmt ~first:true
    {
      ph = 'M';
      name = "thread_name";
      cat = "__metadata";
      ts = 0.;
      tid = 0;
      args = [ ("name", Event.S "server") ];
    };
  first := false;
  Array.iter
    (fun r ->
      List.iter
        (fun e ->
          chrome_event fmt ~first:!first e;
          first := false)
        (lower intern r))
    records;
  Hashtbl.iter
    (fun qid tid ->
      chrome_event fmt ~first:false
        {
          ph = 'M';
          name = "thread_name";
          cat = "__metadata";
          ts = 0.;
          tid;
          args = [ ("name", Event.S qid) ];
        })
    intern;
  Format.fprintf fmt "@\n],\"displayTimeUnit\":\"ms\"}@."

let with_file path f =
  let oc = open_out path in
  let fmt = Format.formatter_of_out_channel oc in
  Fun.protect
    ~finally:(fun () ->
      Format.pp_print_flush fmt ();
      close_out oc)
    (fun () -> f fmt)

let chrome_to_file path records = with_file path (fun fmt -> chrome fmt records)

(* ------------------------------------------------------------------ *)
(* JSONL                                                              *)
(* ------------------------------------------------------------------ *)

let jsonl fmt records =
  Array.iter
    (fun (r : Trace.record) ->
      let base =
        [
          ("t", Event.F r.time);
          ("qid", Event.S r.qid);
          ("cat", Event.S (Event.category r.event));
          ("name", Event.S (Event.name r.event));
        ]
      in
      Format.fprintf fmt "{%s}@\n" (args_json (base @ fields_of_event r.event)))
    records;
  Format.pp_print_flush fmt ()

let jsonl_to_file path records = with_file path (fun fmt -> jsonl fmt records)
