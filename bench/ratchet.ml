(* Perf ratchet: diff a fresh perf run against the committed baseline and
   fail CI when a tracked benchmark regresses past the tolerance.

     dune exec bench/ratchet.exe -- BENCH_perf.json fresh.json
     dune exec bench/ratchet.exe -- --tolerance 0.20 base.json fresh.json

   Allocation per op is compared unconditionally — it is a property of
   the code, not the machine. Time per op is compared in units of
   the calibration kernel that bench/perf.ml times in the same process
   ([calib_ns]), so a run on a machine that runs slower than the
   baseline's slows the rows and their unit alike. It is only compared
   when the two files were produced on machines with the same core count
   and both record the kernel: CI runners are heterogeneous, and one
   kernel cannot stand for another machine's mix of speeds.
   Stdlib only: the JSON is parsed by [Json], a small recursive-descent
   reader. *)

open Json

(* --- Comparison --------------------------------------------------- *)

(* [time] is time per op in units of the kernel, when the file records
   one. *)
type point = { time : float option; alloc : float }

(* Benchmarks whose per-op allocation was deliberately driven down (the
   cost-only Cascades memo and its replay, the pooled event loop, the CPU hand-off
   queue, a process's block and resume, the mid-tier cache keyed by
   statement, the flat buffer pool, the
   governor's metered allocation, a clerk's allocation round trip, the
   broker's tick and its trend) and the two whole cells that sum them
   are held to a tight 5% alloc ratchet instead of the global tolerance:
   their baselines are stable to the byte from run to run, so even a
   modest creep is a real erosion of the win, not measurement noise.
   Wall time keeps the global tolerance — it is machine-dependent in a
   way allocation is not. *)
let tight_alloc_tolerance = 0.05

let tight_alloc_benches =
  [
    "cascades_optimize_sales";
    "optimizer_steady_state";
    "optimizer_steady_state_fresh";
    "optimizer_replay_stream";
    "optimizer_replay_capped";
    "sim_engine_event_loop";
    "cpu_handoff";
    "block_resume";
    "midcache_statement_ops";
    "bufpool_access";
    "governed_alloc";
    "clerk_alloc_free";
    "broker_tick";
    "broker_tick_pressure";
    "trend_observe_predict";
    "experiment_cell";
    "cached_cell_brokered";
  ]

let benchmarks_of j =
  match member "benchmarks" j with
  | Some (List bs) ->
      List.filter_map
        (fun b ->
          match (str_field b "name", num_field b "per_op_ns",
                 num_field b "alloc_bytes_per_op")
          with
          | Some name, Some ns, Some alloc ->
              let time = Option.map (fun c -> ns /. c) (num_field j "calib_ns") in
              Some (name, { time; alloc })
          | _ -> None)
        bs
  | _ -> []

let cores_of j = match num_field j "cores" with Some c -> int_of_float c | None -> 0

let () =
  let tolerance = ref 0.15 in
  let paths = ref [] in
  let rec parse = function
    | [] -> ()
    | "--tolerance" :: v :: rest -> (
        match float_of_string_opt v with
        | Some t when t > 0. ->
            tolerance := t;
            parse rest
        | _ ->
            prerr_endline "ratchet: --tolerance expects a positive float";
            exit 2)
    | p :: rest ->
        paths := p :: !paths;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let baseline_path, fresh_path =
    match List.rev !paths with
    | [ b; f ] -> (b, f)
    | _ ->
        prerr_endline
          "usage: ratchet [--tolerance 0.15] <baseline.json> <fresh.json>";
        exit 2
  in
  let load path =
    try parse_json (read_file path)
    with
    | Sys_error e ->
        Printf.eprintf "ratchet: %s\n" e;
        exit 2
    | Parse e ->
        Printf.eprintf "ratchet: %s: %s\n" path e;
        exit 2
  in
  let baseline = load baseline_path and fresh = load fresh_path in
  (* Quick and full suites size their per-op workloads differently, so a
     cross-mode diff is meaningless for wall AND alloc — refuse it rather
     than report nonsense deltas. *)
  let mode j = Option.value ~default:false (bool_field j "quick") in
  if mode baseline <> mode fresh then begin
    let name q = if q then "quick" else "full" in
    Printf.eprintf
      "ratchet: baseline %s is a %s-suite run but %s is %s — per-op \
       workloads differ between modes; regenerate the baseline in the \
       same mode\n"
      baseline_path
      (name (mode baseline))
      fresh_path
      (name (mode fresh));
    exit 2
  end;
  let base_cores = cores_of baseline and fresh_cores = cores_of fresh in
  let compare_wall = base_cores = fresh_cores && base_cores > 0 in
  if not compare_wall then
    Printf.printf
      "ratchet: baseline has %d cores, fresh has %d — comparing allocations \
       only\n"
      base_cores fresh_cores;
  let base_benches = benchmarks_of baseline in
  let failures = ref 0 in
  let check name kind ~tol base cur =
    (* A zero baseline (an allocation-free path) admits no growth. *)
    let ratio =
      if base > 0. then cur /. base else if cur > 0. then infinity else 1.
    in
    let bad = ratio > 1. +. tol in
    if bad then incr failures;
    Printf.printf "  %-28s %-8s %12.6g -> %12.6g  %+6.1f%%%s\n" name kind base
      cur
      (100. *. (ratio -. 1.))
      (if bad then Printf.sprintf "  REGRESSION (>%.0f%%)" (100. *. tol)
       else "")
  in
  Printf.printf
    "perf ratchet: tolerance %.0f%% (alloc %.0f%% on tight-list benchmarks), \
     baseline %s\n"
    (100. *. !tolerance)
    (100. *. tight_alloc_tolerance)
    baseline_path;
  List.iter
    (fun (name, fresh_pt) ->
      match List.assoc_opt name base_benches with
      | None -> Printf.printf "  %-28s new benchmark, no baseline\n" name
      | Some base_pt ->
          (match (base_pt.time, fresh_pt.time) with
          | Some base, Some cur when compare_wall ->
              check name "time/cal" ~tol:!tolerance base cur
          | _ -> ());
          let alloc_tol =
            if List.mem name tight_alloc_benches then
              Stdlib.min !tolerance tight_alloc_tolerance
            else !tolerance
          in
          check name "alloc/op" ~tol:alloc_tol base_pt.alloc fresh_pt.alloc)
    (benchmarks_of fresh);
  (* Benchmarks deleted from the suite are reported, not failed: the
     ratchet guards regressions, renames are a review concern. *)
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name (benchmarks_of fresh)) then
        Printf.printf "  %-26s dropped from fresh run\n" name)
    base_benches;
  if !failures > 0 then begin
    Printf.printf "ratchet: %d regression(s) past %.0f%%\n" !failures
      (100. *. !tolerance);
    exit 1
  end
  else print_endline "ratchet: no regressions"
