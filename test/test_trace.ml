(* Trace-based invariant tests: run whole simulated-server experiments with
   the ring-buffer trace attached, then re-derive the paper's admission
   invariants from the recorded event stream alone.

   This checks two things at once: that the gateways actually behave (no
   gate ever holds more compilations than its slots; waiters are served in
   priority-then-FIFO order), and that the trace is a faithful account of
   the run — a missing or misordered record shows up as a phantom
   violation. *)

let slots_of_config (config : Server.Config.t) =
  let table =
    List.map
      (fun (l : Qcore.Throttle_config.level) ->
        ( l.Qcore.Throttle_config.lname,
          Qcore.Throttle_config.slot_count l.Qcore.Throttle_config.slots
            ~cpus:config.Server.Config.cpus ))
      config.Server.Config.throttle.Qcore.Throttle_config.levels
  in
  fun gate ->
    match List.assoc_opt gate table with
    | Some n -> n
    | None -> Alcotest.failf "trace names unknown gateway %S" gate

let check_gateway_invariants label records ~slots =
  (match Obs.Analyze.holder_violations records ~slots with
  | [] -> ()
  | (gate, time, holders) :: _ as all ->
      Alcotest.failf
        "%s: %d holder violation(s); first: gate %s held by %d > %d slots at t=%.3f"
        label (List.length all) gate holders (slots gate) time);
  match Obs.Analyze.admission_violations records with
  | [] -> ()
  | (gate, admitted, passed_over, time) :: _ as all ->
      Alcotest.failf
        "%s: %d admission-order violation(s); first: gate %s admitted %s over \
         earlier waiter %s at t=%.3f"
        label (List.length all) gate admitted passed_over time

(* One fuzzed run: a fault schedule derived from the seed (reusing the
   chaos generator from the fuzz suite), trace attached, invariants
   re-derived from the trace. *)
let run_traced_schedule seed =
  let faults = Test_fuzz.schedule_of_seed seed in
  List.iter Faultsim.Fault.validate faults;
  let base =
    if seed mod 2 = 0 then Server.Config.resilient ()
    else Server.Config.default ()
  in
  let config = { base with Server.Config.seed; faults } in
  let trace = Obs.Trace.create () in
  let _r =
    Server.Experiment.run ~config ~trace ~clients:8 ~warmup:0. ~measure:150.
      ~slice:50. ()
  in
  let records = Obs.Trace.records trace in
  if Array.length records = 0 then
    Alcotest.failf "seed %d: experiment produced an empty trace" seed;
  check_gateway_invariants
    (Printf.sprintf "seed %d" seed)
    records ~slots:(slots_of_config config);
  (* The gateways were exercised, not just clean by vacuity: at least one
     admission must appear in the trace. *)
  let acquired =
    Array.exists
      (fun (r : Obs.Trace.record) ->
        match r.event with
        | Obs.Event.Gateway { phase = Obs.Event.Acquired; _ } -> true
        | _ -> false)
      records
  in
  if not acquired then
    Alcotest.failf "seed %d: no gateway admission in the trace" seed

let prop_gateway_invariants_hold =
  QCheck.Test.make
    ~name:"gateway slots and FIFO admission hold on fuzzed fault schedules"
    ~count:20
    QCheck.(int_range 0 10_000)
    (fun seed ->
      run_traced_schedule seed;
      true)

(* ------------------------------------------------------------------ *)
(* Golden expect test: the fixed-seed Figure 2 scenario's gateway-wait
   intervals — the flat segments of the paper's usage plot — must match
   the checked-in JSONL byte for byte. Trace emission consumes neither
   randomness nor simulation time, so this is fully deterministic. *)

let waits_jsonl records =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (w : Obs.Analyze.wait) ->
      Buffer.add_string buf
        (Printf.sprintf
           {|{"qid":"%s","gate":"%s","start":%.3f,"finish":%.3f,"outcome":"%s"}|}
           (Obs.Export.json_escape w.qid)
           (Obs.Export.json_escape w.gate)
           w.start w.finish
           (match w.outcome with
           | `Acquired -> "acquired"
           | `Timeout -> "timeout"
           | `Open -> "open"));
      Buffer.add_char buf '\n')
    (Obs.Analyze.gateway_waits records);
  Buffer.contents buf

(* [dune runtest] runs test cases in the test sandbox (where the (deps)
   copy lives); [dune exec test/test_main.exe] runs from the project
   root. Accept either. *)
let golden_path name =
  let candidates = [ name; Filename.concat "test" name ] in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> Alcotest.failf "golden file %s not found" name

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_figure2_waits_golden () =
  let trace = Obs.Trace.create () in
  ignore (Server.Figure2.run ~trace ());
  let records = Obs.Trace.records trace in
  Alcotest.(check int) "nothing dropped" 0 (Obs.Trace.dropped trace);
  (* The scenario's own invariants, from the trace. *)
  check_gateway_invariants "figure2" records ~slots:(fun gate ->
      match List.assoc_opt gate Server.Figure2.ladder_slots with
      | Some n -> n
      | None -> Alcotest.failf "unknown figure2 gate %S" gate);
  let got = waits_jsonl records in
  let expected = read_file (golden_path "figure2_waits.golden") in
  if got <> expected then (
    (* Dump the actual stream so a legitimate behavior change can be
       reviewed and promoted to the new golden file. *)
    let oc = open_out "figure2_waits.actual" in
    output_string oc got;
    close_out oc;
    Alcotest.failf
      "figure2 gateway waits diverge from golden (%d vs %d bytes); actual \
       stream written to figure2_waits.actual"
      (String.length got) (String.length expected))

(* The blocking pattern of the paper's Figure 2 walk-through, asserted
   directly so the golden file is not the only reader-facing record: Q1
   blocks at the second gateway behind the background load; Q2 and Q3
   queue at the first gateway until it drains. *)
let test_figure2_blocking_shape () =
  let trace = Obs.Trace.create () in
  ignore (Server.Figure2.run ~trace ());
  let waits = Obs.Analyze.gateway_waits (Obs.Trace.records trace) in
  let blocked qid gate =
    List.exists
      (fun (w : Obs.Analyze.wait) ->
        w.qid = qid && w.gate = gate
        && w.outcome = `Acquired
        && w.finish -. w.start > 1.)
      waits
  in
  Alcotest.(check bool) "Q1 blocks at the second gateway" true
    (blocked "Q1" "second");
  Alcotest.(check bool) "Q2 blocks at the first gateway" true
    (blocked "Q2" "first");
  Alcotest.(check bool) "Q3 blocks at the first gateway" true
    (blocked "Q3" "first");
  List.iter
    (fun (w : Obs.Analyze.wait) ->
      if w.outcome = `Timeout then
        Alcotest.failf "unexpected timeout: %s at %s" w.qid w.gate)
    waits

let suite =
  [
    QCheck_alcotest.to_alcotest prop_gateway_invariants_hold;
    ("figure2 waits match golden", `Slow, test_figure2_waits_golden);
    ("figure2 blocking shape", `Slow, test_figure2_blocking_shape);
  ]
