(* The end-to-end benchmark. One process runs one workload:

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 measures the end-to-end metrics with tracing off; --trace 1
   is the separate traced run that reports the per-layer metrics. Both
   print every metric by name with its unit, then one JSON object as the
   last line of stdout, and exit 1 if a correctness check fails. See
   perfbench/README.md for the metrics and the workloads. *)

let usage =
  "usage: bench.exe --workload (sales_adhoc|shard_storm|midcache_rw) --seed N \
   --seconds S --trace (0|1)"

let die msg =
  prerr_endline ("bench: " ^ msg);
  prerr_endline usage;
  exit 2

type opts = {
  workload : Workloads.t;
  seed : int;
  seconds : float;
  trace : bool;
  cell : int option;  (** internal: run one cell with this seed, marshal it *)
}

let parse argv =
  let rec go acc = function
    | [] -> acc
    | flag :: v :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
        go ((flag, v) :: acc) rest
    | a :: _ -> die ("unexpected argument " ^ a)
  in
  let kv = go [] argv in
  let get k conv =
    match List.assoc_opt k kv with
    | None -> die ("missing " ^ k)
    | Some v -> ( match conv v with Some x -> x | None -> die ("bad " ^ k ^ " " ^ v))
  in
  List.iter
    (fun (k, _) ->
      if not (List.mem k [ "--workload"; "--seed"; "--seconds"; "--trace"; "--cell" ])
      then
        die ("unknown flag " ^ k))
    kv;
  {
    workload = get "--workload" Workloads.of_name;
    seed = get "--seed" int_of_string_opt;
    seconds =
      get "--seconds" (fun s ->
          Option.bind (float_of_string_opt s) (fun x -> if x > 0. then Some x else None));
    trace =
      get "--trace" (function "0" -> Some false | "1" -> Some true | _ -> None);
    cell = Option.map (fun _ -> get "--cell" int_of_string_opt) (List.assoc_opt "--cell" kv);
  }

(* ------------------------------------------------------------------ *)

let failures = ref []
let check name ok = if not ok then failures := name :: !failures

(* Wall seconds one untraced cell takes on a 2-core x86 server at
   2.1 GHz (README, "Cells"). They turn --seconds into a fixed number of
   cells; the count depends only on the arguments, so the simulated
   metrics stay a pure function of them. A traced run holds half as many
   cells, since each runs twice. *)
let cell_wall_s = function
  | Workloads.Sales_adhoc -> 2.2
  | Workloads.Shard_storm -> 3.5
  | Workloads.Midcache_rw -> 4.8

let cell_count o = max 1 (int_of_float (o.seconds /. cell_wall_s o.workload))

(* Cell [i]'s seed; cell 0 runs the given seed itself. *)
let cell_seed o i = o.seed + (1_000_003 * i)

let median l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0. else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Set-up takes well under a millisecond for sales_adhoc and a few for
   shard_storm, so it is repeated for about half a second; the median
   repetition is scaled by the machine speed over the whole loop. *)
let setup_s o =
  Workloads.setup o.workload o.seed;
  Calib.start ();
  let start = Calib.stamp () in
  let t_end = start.Calib.wall +. 0.5 in
  let rec go i acc =
    if i >= 21 && Unix.gettimeofday () > t_end then acc
    else
      let a = Calib.stamp () in
      Workloads.setup o.workload (cell_seed o i);
      go (i + 1) (Calib.raw a (Calib.stamp ()) :: acc)
  in
  let reps = go 0 [] in
  let speed = Calib.speed start (Calib.stamp ()) in
  Calib.stop ();
  check "calibration slices allocate nothing" (Calib.allocation_free ());
  median reps *. speed

type measured = {
  cell : Workloads.cell;
  wall_s : float;  (** normalised to the reference machine speed *)
  raw_wall_s : float;  (** as measured *)
  alloc_bytes : float;
  top_heap_mb : float;  (** of the whole process the cell ran in *)
  slices_clean : bool;  (** no calibration slice allocated up to the cell's end *)
}

let top_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.

(* Call with the calibration timer running. *)
let measure ?trace o seed =
  Gc.full_major ();
  let a = Calib.stamp () in
  let cell = Workloads.run ?trace o.workload seed in
  let b = Calib.stamp () in
  {
    cell;
    wall_s = Calib.seconds a b;
    raw_wall_s = Calib.raw a b;
    alloc_bytes = Calib.allocated a b;
    top_heap_mb = top_heap_mb ();
    slices_clean = Calib.allocation_free ();
  }

(* Each untraced cell runs in a fresh process of this executable
   ([--cell SEED]), so its heap peak is its own and no cell inherits
   another's heap. The child marshals its [measured] to stdout. *)
let measure_in_child o seed =
  let args =
    [|
      Sys.executable_name; "--workload"; Workloads.name o.workload; "--seed";
      string_of_int o.seed; "--seconds"; "1"; "--trace"; "0"; "--cell";
      string_of_int seed;
    |]
  in
  let ic = Unix.open_process_args_in Sys.executable_name args in
  let m = try Some (Marshal.from_channel ic : measured) with End_of_file -> None in
  match (Unix.close_process_in ic, m) with
  | Unix.WEXITED 0, Some m -> m
  | _ -> failwith (Printf.sprintf "cell %d did not complete" seed)

let sumf f l = List.fold_left (fun a x -> a +. f x) 0. l
let sumi f l = List.fold_left (fun a x -> a + f x) 0 l

(* ------------------------------------------------------------------ *)

let cell_checks (m : measured) =
  List.iter (fun (name, ok) -> check name ok) m.cell.Workloads.checks;
  check "calibration slices allocate nothing" m.slices_clean

(* End-to-end metrics, tracing off. Wall and heap figures are medians
   over the cells, which keeps a burst of machine noise in one cell out
   of the run's result; the simulated figures pool every cell. *)
let end_to_end o =
  let setup = setup_s o in
  let ms = List.init (cell_count o) (fun i -> measure_in_child o (cell_seed o i)) in
  List.iter cell_checks ms;
  let cells = List.map (fun m -> m.cell) ms in
  let completed = float_of_int (sumi (fun c -> c.Workloads.succeeded) cells) in
  let per_cell f = median (List.map f ms) in
  let latency q =
    match o.workload with
    | Workloads.Sales_adhoc ->
        Workloads.exact_percentile
          (Workloads.sorted (Array.concat (List.map (fun c -> c.Workloads.latencies) cells)))
          q
    | _ ->
        (* Only the library runner sees each query's latency; it reports
           percentiles per cell, which are averaged. *)
        sumf (fun c -> if q = 50. then c.Workloads.p50_s else c.p99_s) cells
        /. float_of_int (List.length cells)
  in
  (* At least ten samples beyond p99 wherever a p99 is taken: over the
     pooled windows on sales_adhoc, in every cell on the other two. *)
  (match o.workload with
  | Workloads.Sales_adhoc ->
      check "at least 1000 completions in the measured windows"
        (sumi (fun c -> c.Workloads.window_completed) cells >= 1000)
  | _ ->
      check "at least 1000 completions in every cell's measured window"
        (List.for_all (fun c -> c.Workloads.window_completed >= 1000) cells));
  let finished = sumi (fun c -> c.Workloads.succeeded + c.abandoned) cells in
  let metrics =
    [
      ("setup_s", "s", setup);
      ("sim_s_per_wall_s", "s/s", per_cell (fun m -> m.cell.sim_s /. m.wall_s));
      ( "wall_us_per_query",
        "us",
        per_cell (fun m -> m.wall_s *. 1e6 /. float_of_int m.cell.succeeded) );
      ("alloc_kb_per_query", "KB", sumf (fun m -> m.alloc_bytes) ms /. 1024. /. completed);
      ("peak_heap_mb", "MB", per_cell (fun m -> m.top_heap_mb));
      ( "sim_qph",
        "1/h",
        float_of_int (sumi (fun c -> c.Workloads.window_completed) cells)
        /. (sumf (fun c -> c.Workloads.window_s) cells /. 3600.) );
      ("sim_latency_p50_s", "s", latency 50.);
      ("sim_latency_p99_s", "s", latency 99.);
      ( "sim_ok_share",
        "ratio",
        if finished = 0 then 0. else completed /. float_of_int finished );
    ]
  in
  Printf.printf
    "%d cells; raw cell wall %.2f s and wall_us_per_query %.1f us; the machine ran at \
     %.2f of the reference speed\n"
    (List.length ms)
    (per_cell (fun m -> m.raw_wall_s))
    (per_cell (fun m -> m.raw_wall_s *. 1e6 /. float_of_int m.cell.succeeded))
    (per_cell (fun m -> m.wall_s /. m.raw_wall_s));
  (metrics, finished, sumi (fun c -> c.Workloads.abandoned) cells)

(* The trace ring holds every record of a cell: a dropped record would
   bias every count derived from the trace. *)
let ring_capacity = 1 lsl 22

(* Per-layer metrics: each traced cell also runs untraced, and the two
   must agree bit for bit. *)
let per_layer o =
  Calib.start ();
  let ring = Obs.Trace.create ~capacity:ring_capacity () in
  let acc = Layers.create () in
  let n = max 1 (cell_count o / 2) in
  let pairs =
    List.init n (fun i ->
        let seed = cell_seed o i in
        let traced () =
          Obs.Trace.clear ring;
          measure ~trace:ring o seed
        in
        (* The second run of a pair finds the heap already grown, so the
           order alternates to keep that out of the trace overhead. *)
        let plain, traced =
          if i mod 2 = 0 then
            let plain = measure o seed in
            (plain, traced ())
          else
            let traced = traced () in
            (measure o seed, traced)
        in
        cell_checks plain;
        cell_checks traced;
        check "traced run reproduces the untraced run"
          (String.equal plain.cell.Workloads.fingerprint traced.cell.fingerprint);
        check "no dropped trace records" (Obs.Trace.dropped ring = 0);
        Layers.analyze acc (Obs.Trace.records ring);
        (plain, traced))
  in
  Obs.Trace.clear ring;
  let cells = List.map (fun (p, _) -> p.cell) pairs in
  let metrics =
    Layers.metrics o.workload ~seed:o.seed ~acc ~cells
      ~untraced_wall:(sumf (fun (p, _) -> p.wall_s) pairs)
      ~traced_wall:(sumf (fun (_, t) -> t.wall_s) pairs)
  in
  Calib.stop ();
  check "calibration slices allocate nothing" (Calib.allocation_free ());
  (* Every cell above ran with the calibration timer on; cell 0 runs
     once more with it off. *)
  let first = fst (List.hd pairs) in
  Gc.full_major ();
  let t0 = Unix.gettimeofday () in
  let untimed = Workloads.run o.workload o.seed in
  let untimed_wall = Unix.gettimeofday () -. t0 in
  check "calibration timer leaves the simulation unchanged"
    (String.equal first.cell.Workloads.fingerprint untimed.Workloads.fingerprint);
  Printf.printf "cell 0 wall: %.3f s with the timer off, %.3f s with it on net of the slices\n"
    untimed_wall first.raw_wall_s;
  (match o.workload with
  | Workloads.Sales_adhoc ->
      check "bench cell equals Server.Experiment.run"
        (Workloads.sales_reference o.seed = Workloads.sales_summary first.cell)
  | _ -> ());
  let finished = sumi (fun c -> c.Workloads.succeeded + c.abandoned) cells in
  (metrics, finished, sumi (fun c -> c.Workloads.abandoned) cells)

(* ------------------------------------------------------------------ *)

let json_number x = Printf.sprintf "%.17g" x

let () =
  let o = parse (List.tl (Array.to_list Sys.argv)) in
  Option.iter
    (fun seed ->
      Calib.start ();
      let m = measure o seed in
      Calib.stop ();
      Marshal.to_channel stdout m [];
      exit 0)
    o.cell;
  let metrics, attempted, failed =
    try if o.trace then per_layer o else end_to_end o
    with e ->
      check ("exception: " ^ Printexc.to_string e) false;
      ([], 0, 0)
  in
  List.iter (fun (name, _, v) -> check (name ^ " is finite") (Float.is_finite v)) metrics;
  Printf.printf "%s seed %d (%s)\n" (Workloads.name o.workload) o.seed
    (if o.trace then "traced: per-layer metrics" else "untraced: end-to-end metrics");
  List.iter (fun (name, unit, v) -> Printf.printf "  %-36s %14.6g %s\n" name v unit) metrics;
  List.iter (fun f -> Printf.printf "  CHECK FAILED: %s\n" f) (List.rev !failures);
  let correct = !failures = [] in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct (max 1 attempted) failed
    (String.concat ", "
       (List.map
          (fun (name, unit, v) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
              (json_number (if Float.is_finite v then v else 0.))
              unit)
          metrics));
  if not correct then exit 1
