(** Trace exporters.

    {!chrome} lowers the typed event stream into Chrome trace-event JSON
    (the [{"traceEvents": [...]}] object format) loadable in
    [about:tracing] and Perfetto: compile, gateway-wait/hold, grant and
    exec phases become B/E duration spans on one thread per query id,
    per-query memory usage, broker targets and the arbiter, memory,
    shard and mid-tier cache samples become [C] counter tracks, and every
    other event becomes one instant. {!jsonl} is the lossless
    line-per-record form meant for offline analysis.

    An event has one name ({!Event.name}) and one field list, which both
    exporters share. A JSONL line carries the event's name and fields; a
    Chrome instant carries the same fields as its args, under the name
    with its ["<category>:"] prefix removed. Only spans and counters are
    lowered specially. The exceptions keep the instant names older
    traces used: ["query_error"], ["singleflight_coalesce"], and ['_']
    for [':'] in the arbiter-reclaim, shard-state, mid-tier cache and
    storm begin/end names; a mid-tier cache lookup's instant carries only
    [bytes], since its name already says hit or miss. *)

(** Minimal JSON string escaping per RFC 8259: backslash, quote, and
    control characters (C0) are escaped; everything else passes through. *)
val json_escape : string -> string

(** [chrome fmt records] writes a complete Chrome trace JSON document. *)
val chrome : Format.formatter -> Trace.record array -> unit

val chrome_to_file : string -> Trace.record array -> unit

(** [jsonl fmt records] writes one JSON object per line:
    [{"t":..,"qid":..,"cat":..,"name":..,...event fields}]. *)
val jsonl : Format.formatter -> Trace.record array -> unit

val jsonl_to_file : string -> Trace.record array -> unit
