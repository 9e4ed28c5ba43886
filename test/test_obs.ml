(* Unit tests for the observability subsystem: the ring-buffer trace
   recorder, the HDR-style histogram, JSON escaping in the exporters, and
   the trace analyzers that the invariant tests build on. *)

open Obs

(* ------------------------------------------------------------------ *)
(* Histogram                                                          *)

let test_hist_empty () =
  let h = Hist.create () in
  Alcotest.(check int) "count" 0 (Hist.count h);
  Alcotest.(check int) "min" 0 (Hist.min h);
  Alcotest.(check int) "max" 0 (Hist.max h);
  Alcotest.(check (float 1e-9)) "mean" 0. (Hist.mean h);
  Alcotest.(check int) "p50" 0 (Hist.percentile h 50.);
  Alcotest.(check string) "summary" "empty"
    (Format.asprintf "%a" Hist.pp_summary h)

let test_hist_single_sample () =
  let h = Hist.create () in
  Hist.add h 42;
  Alcotest.(check int) "count" 1 (Hist.count h);
  Alcotest.(check int) "min" 42 (Hist.min h);
  Alcotest.(check int) "max" 42 (Hist.max h);
  Alcotest.(check (float 1e-9)) "mean" 42. (Hist.mean h);
  List.iter
    (fun q ->
      Alcotest.(check int)
        (Printf.sprintf "p%g is the sample" q)
        42
        (Hist.percentile h q))
    [ 0.; 1.; 50.; 99.; 100. ]

let test_hist_extremes () =
  let h = Hist.create () in
  let huge = 1 lsl 60 in
  Hist.add h 0;
  Hist.add h huge;
  Hist.add h (-17) (* clamped to 0 *);
  Alcotest.(check int) "count" 3 (Hist.count h);
  Alcotest.(check int) "min" 0 (Hist.min h);
  Alcotest.(check int) "max is exact" huge (Hist.max h);
  Alcotest.(check int) "p0 = min" 0 (Hist.percentile h 0.);
  Alcotest.(check int) "p100 = exact max" huge (Hist.percentile h 100.);
  (* Out-of-range quantiles clamp rather than raise. *)
  Alcotest.(check int) "q < 0" 0 (Hist.percentile h (-5.));
  Alcotest.(check int) "q > 100" huge (Hist.percentile h 200.)

let test_hist_quantile_error_bound () =
  (* The log-linear layout promises ~2^-(sub_bits-1) relative error; with
     the default sub_bits = 7 that is under 2%. *)
  let h = Hist.create () in
  for v = 1 to 100_000 do
    Hist.add h v
  done;
  List.iter
    (fun q ->
      let exact = int_of_float (q /. 100. *. 100_000.) in
      let got = Hist.percentile h q in
      let rel =
        abs_float (float_of_int (got - exact)) /. float_of_int exact
      in
      if rel > 0.02 then
        Alcotest.failf "p%g: got %d, exact %d (rel err %.4f)" q got exact rel)
    [ 50.; 90.; 99.; 99.9 ];
  Alcotest.(check int) "p100 exact" 100_000 (Hist.percentile h 100.)

let test_hist_mean_exact () =
  let h = Hist.create ~sub_bits:2 () in
  List.iter (Hist.add h) [ 10; 20; 30; 1000 ];
  (* Mean is tracked outside the coarse buckets, so even sub_bits = 2
     (the floor of the clamp) keeps it exact. *)
  Alcotest.(check (float 1e-9)) "mean" 265. (Hist.mean h);
  Alcotest.(check int) "max" 1000 (Hist.max h)

(* ------------------------------------------------------------------ *)
(* JSON escaping                                                      *)

let test_json_escape () =
  let cases =
    [
      ("plain", "plain");
      ({|say "hi"|}, {|say \"hi\"|});
      ("back\\slash", {|back\\slash|});
      ("line\nbreak", {|line\nbreak|});
      ("tab\there", {|tab\there|});
      ("cr\rlf", {|cr\rlf|});
      ("\b\012", {|\b\f|});
      ("nul\000end", {|nul\u0000end|});
      ("\027[0m", {|\u001b[0m|});
      (* Multi-byte UTF-8 passes through untouched. *)
      ("caf\xc3\xa9", "caf\xc3\xa9");
    ]
  in
  List.iter
    (fun (input, expected) ->
      Alcotest.(check string)
        (Printf.sprintf "escape %S" input)
        expected (Export.json_escape input))
    cases

let test_chrome_escapes_qids () =
  (* A hostile qid must come out escaped in both exporters: no raw quote
     or newline may survive inside the generated JSON strings. *)
  let trace = Trace.create ~capacity:16 () in
  let qid = "q\"1\nend" in
  Trace.emit trace ~time:1.0 ~qid Event.Compile_begin;
  Trace.emit trace ~time:2.0 ~qid (Event.Compile_end { peak = 77 });
  let records = Trace.records trace in
  let chrome = Format.asprintf "%a" Export.chrome records in
  let jsonl = Format.asprintf "%a" Export.jsonl records in
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun out ->
      Alcotest.(check bool) "escaped qid present" true
        (contains out {|q\"1\nend|});
      Alcotest.(check bool) "no raw inner quote" false
        (contains out "q\"1"))
    [ chrome; jsonl ];
  (* The chrome document has the expected envelope. *)
  Alcotest.(check bool) "traceEvents envelope" true
    (contains chrome {|{"traceEvents":|});
  (* JSONL: every line is a lone object — hostile qid must not add lines
     beyond one per record (+ trailing newline). *)
  let lines = String.split_on_char '\n' jsonl in
  let nonempty = List.filter (fun l -> l <> "") lines in
  Alcotest.(check int) "one line per record" 2 (List.length nonempty);
  List.iter
    (fun l ->
      Alcotest.(check bool) "line is an object" true
        (String.length l > 1 && l.[0] = '{' && l.[String.length l - 1] = '}'))
    nonempty

(* ------------------------------------------------------------------ *)
(* Ring buffer                                                        *)

let test_trace_null_sink () =
  Alcotest.(check bool) "disabled" false (Trace.enabled Trace.null);
  (* Emission on the null sink is a no-op, not an error. *)
  Trace.emit Trace.null ~time:0. ~qid:"q" Event.Cache_hit;
  Alcotest.(check int) "length" 0 (Trace.length Trace.null);
  Alcotest.(check int) "dropped" 0 (Trace.dropped Trace.null)

let test_trace_ring_overwrites () =
  let t = Trace.create ~capacity:4 () in
  Alcotest.(check bool) "enabled" true (Trace.enabled t);
  for i = 1 to 10 do
    Trace.emit t ~time:(float_of_int i) ~qid:(string_of_int i) Event.Exec_begin
  done;
  Alcotest.(check int) "length capped" 4 (Trace.length t);
  Alcotest.(check int) "dropped counted" 6 (Trace.dropped t);
  let records = Trace.records t in
  Alcotest.(check (list string))
    "most recent survive, oldest first"
    [ "7"; "8"; "9"; "10" ]
    (Array.to_list (Array.map (fun r -> r.Trace.qid) records));
  Trace.clear t;
  Alcotest.(check int) "clear empties" 0 (Trace.length t);
  Alcotest.(check int) "clear resets drops" 0 (Trace.dropped t)

(* ------------------------------------------------------------------ *)
(* Analyzers on synthetic traces                                      *)

let mk time qid event = { Trace.time; qid; event }

let gateway gate phase ?(priority = 0) qid time =
  mk time qid (Event.Gateway { gate; phase; priority })

let test_analyze_gateway_waits () =
  let records =
    [|
      gateway "g" Event.Wait "a" 1.0;
      gateway "g" Event.Acquired "a" 3.0;
      gateway "g" Event.Wait "b" 2.0;
      gateway "g" Event.Timeout "b" 5.0;
      gateway "g" Event.Wait "c" 4.0;
      (* c never admitted: open wait, closed at the last record's time. *)
      mk 9.0 "a" (Event.Gateway { gate = "g"; phase = Event.Release; priority = 0 });
    |]
  in
  let waits = Analyze.gateway_waits records in
  let show (w : Analyze.wait) =
    Printf.sprintf "%s:%s %.1f-%.1f %s" w.qid w.gate w.start w.finish
      (match w.outcome with
      | `Acquired -> "acquired"
      | `Timeout -> "timeout"
      | `Open -> "open")
  in
  Alcotest.(check (list string))
    "waits"
    [ "a:g 1.0-3.0 acquired"; "b:g 2.0-5.0 timeout"; "c:g 4.0-9.0 open" ]
    (List.map show waits)

let test_analyze_holder_violations () =
  let records =
    [|
      (* Unmatched release (its Acquired fell off the ring) must clamp at
         zero, not go to -1 and mask the later overload. *)
      gateway "g" Event.Release "ghost" 0.5;
      gateway "g" Event.Acquired "a" 1.0;
      gateway "g" Event.Acquired "b" 2.0;
      gateway "g" Event.Release "a" 3.0;
      gateway "g" Event.Acquired "c" 4.0;
      gateway "g" Event.Release "c" 5.0;
      gateway "g" Event.Acquired "d" 6.0;
      gateway "g" Event.Acquired "e" 7.0;
    |]
  in
  Alcotest.(check int)
    "peak holders" 3
    (List.assoc "g" (Analyze.max_holders records));
  let violations = Analyze.holder_violations records ~slots:(fun _ -> 2) in
  Alcotest.(check (list (triple string (float 1e-9) int)))
    "slots=2 violated at t=7 only"
    [ ("g", 7.0, 3) ]
    (List.map (fun (g, t, n) -> (g, t, n)) violations);
  Alcotest.(check (list (triple string (float 1e-9) int)))
    "slots=3 clean" []
    (Analyze.holder_violations records ~slots:(fun _ -> 3))

let test_analyze_admission_order () =
  (* b admitted while a — earlier, same priority — still waits: FIFO
     violation. *)
  let bad =
    [|
      gateway "g" Event.Wait ~priority:5 "a" 1.0;
      gateway "g" Event.Wait ~priority:5 "b" 2.0;
      gateway "g" Event.Acquired ~priority:5 "b" 3.0;
    |]
  in
  (match Analyze.admission_violations bad with
  | [ ("g", "b", "a", t) ] -> Alcotest.(check (float 1e-9)) "time" 3.0 t
  | other ->
      Alcotest.failf "expected one violation, got %d" (List.length other));
  (* A later waiter with strictly better (smaller) priority may overtake:
     that is the ladder's progress-priority policy, not a violation. *)
  let priority_ok =
    [|
      gateway "g" Event.Wait ~priority:5 "a" 1.0;
      gateway "g" Event.Wait ~priority:1 "b" 2.0;
      gateway "g" Event.Acquired ~priority:1 "b" 3.0;
      gateway "g" Event.Acquired ~priority:5 "a" 4.0;
    |]
  in
  Alcotest.(check int) "priority overtake allowed" 0
    (List.length (Analyze.admission_violations priority_ok));
  (* A waiter that timed out no longer blocks later admissions. *)
  let timeout_ok =
    [|
      gateway "g" Event.Wait ~priority:5 "a" 1.0;
      gateway "g" Event.Timeout ~priority:5 "a" 2.0;
      gateway "g" Event.Wait ~priority:5 "b" 3.0;
      gateway "g" Event.Acquired ~priority:5 "b" 4.0;
    |]
  in
  Alcotest.(check int) "timeout clears the queue" 0
    (List.length (Analyze.admission_violations timeout_ok))

let test_analyze_usage_points () =
  let records =
    [|
      mk 1.0 "q" Event.Compile_begin;
      mk 2.0 "q" (Event.Compile_alloc { bytes = 10; usage = 10 });
      mk 3.0 "q" (Event.Compile_alloc { bytes = 5; usage = 15 });
      mk 4.0 "q" (Event.Compile_end { peak = 15 });
    |]
  in
  Alcotest.(check (list (pair (float 1e-9) int)))
    "timeline"
    [ (1.0, 0); (2.0, 10); (3.0, 15); (4.0, 0) ]
    (List.assoc "q" (Analyze.usage_points records))

let suite =
  [
    ("hist: empty", `Quick, test_hist_empty);
    ("hist: single sample", `Quick, test_hist_single_sample);
    ("hist: extreme values", `Quick, test_hist_extremes);
    ("hist: quantile error bound", `Quick, test_hist_quantile_error_bound);
    ("hist: mean exact at coarse precision", `Quick, test_hist_mean_exact);
    ("export: json escaping", `Quick, test_json_escape);
    ("export: hostile qids escaped", `Quick, test_chrome_escapes_qids);
    ("trace: null sink", `Quick, test_trace_null_sink);
    ("trace: ring overwrites and counts drops", `Quick, test_trace_ring_overwrites);
    ("analyze: gateway waits", `Quick, test_analyze_gateway_waits);
    ("analyze: holder violations", `Quick, test_analyze_holder_violations);
    ("analyze: admission order", `Quick, test_analyze_admission_order);
    ("analyze: usage points", `Quick, test_analyze_usage_points);
  ]
