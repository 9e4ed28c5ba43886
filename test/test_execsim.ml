(* Tests for the CPU pool, execution grants, and the simulated runner. *)

open Execsim

let mib = Dbmem.Units.mib

(* ------------------------------------------------------------------ *)
(* Cpu *)

let test_cpu_single_job_exact_time () =
  let eng = Sim.Engine.create () in
  let cpu = Cpu.create eng ~cores:2 () in
  let finished = ref 0. in
  Sim.Engine.spawn eng (fun () ->
      Cpu.busy cpu 3.0;
      finished := Sim.Engine.now eng);
  Sim.Engine.run_all eng;
  Alcotest.(check (float 1e-6)) "uncontended" 3.0 !finished;
  Alcotest.(check (float 1e-6)) "busy accounted" 3.0 (Cpu.busy_seconds cpu)

let test_cpu_contention_stretches_wallclock () =
  let eng = Sim.Engine.create () in
  let cpu = Cpu.create eng ~cores:1 () in
  let finished = ref [] in
  for _ = 1 to 2 do
    Sim.Engine.spawn eng (fun () ->
        Cpu.busy cpu 2.0;
        finished := Sim.Engine.now eng :: !finished)
  done;
  Sim.Engine.run_all eng;
  (* 4 CPU-seconds on one core: the last job finishes at t=4, and slicing
     means both run "simultaneously", finishing near the end. *)
  (match !finished with
  | [ a; b ] ->
      Alcotest.(check (float 1e-6)) "total work" 4.0 (Float.max a b);
      Alcotest.(check bool) "interleaved (both finish late)" true (Float.min a b > 3.0)
  | _ -> Alcotest.fail "expected two");
  Alcotest.(check (float 1e-6)) "busy total" 4.0 (Cpu.busy_seconds cpu)

let test_cpu_parallel_cores () =
  let eng = Sim.Engine.create () in
  let cpu = Cpu.create eng ~cores:4 () in
  let latest = ref 0. in
  for _ = 1 to 4 do
    Sim.Engine.spawn eng (fun () ->
        Cpu.busy cpu 5.0;
        latest := Float.max !latest (Sim.Engine.now eng))
  done;
  Sim.Engine.run_all eng;
  Alcotest.(check (float 1e-6)) "four jobs on four cores" 5.0 !latest

let test_cpu_utilization () =
  let eng = Sim.Engine.create () in
  let cpu = Cpu.create eng ~cores:2 () in
  Sim.Engine.spawn eng (fun () -> Cpu.busy cpu 4.0);
  ignore (Sim.Engine.schedule eng ~delay:8.0 (fun () -> ()));
  Sim.Engine.run_all eng;
  (* 4 busy core-seconds over an 8-second window. *)
  Alcotest.(check (float 1e-6)) "utilization" 0.5 (Cpu.utilization cpu)

(* An exception raised just after [busy] returns leaves the run through
   the slice-end event that resumed the parked job: named after the
   process, at that event's time. Two 0.6 s jobs share one core in
   0.25 s slices taken in turn, so "late" ends after four full slices
   and two of 0.6 - 0.25 - 0.25. *)
let test_cpu_failure_after_busy () =
  let eng = Sim.Engine.create () in
  let cpu = Cpu.create eng ~cores:1 () in
  Sim.Engine.spawn eng ~name:"early" (fun () -> Cpu.busy cpu 0.6);
  Sim.Engine.spawn eng ~name:"late" (fun () ->
      Cpu.busy cpu 0.6;
      failwith "after busy");
  match Sim.Engine.run_all eng with
  | () -> Alcotest.fail "expected Process_failed"
  | exception Sim.Engine.Process_failed { name; time; exn } ->
      Alcotest.(check string) "process" "late" name;
      Alcotest.(check (float 0.)) "slice-end time"
        (let tail = 0.6 -. 0.25 -. 0.25 in
         0.25 +. 0.25 +. 0.25 +. 0.25 +. tail +. tail)
        time;
      Alcotest.(check bool) "inner" true (exn = Failure "after busy")

let minor_words_during = Test_bufpool.minor_words_during

(* A contended slice allocates nothing: four jobs round-robin on one
   core, and a hundred times as many slices move the minor-heap counter
   by exactly as much as the short run does. What the run does allocate
   (processes, spawns, the pooled jobs) is per process. *)
let test_cpu_slices_allocate_nothing () =
  let run slices () =
    let eng = Sim.Engine.create () in
    let cpu = Cpu.create eng ~cores:1 () in
    for _ = 1 to 4 do
      Sim.Engine.spawn eng (fun () -> Cpu.busy cpu (0.25 *. float_of_int slices))
    done;
    Sim.Engine.run_all eng
  in
  run 10 ();
  let short = minor_words_during (run 10) in
  let long = minor_words_during (run 1000) in
  Alcotest.(check (float 0.)) "minor words per run" short long

(* A contended [busy] of two slices allocates only its continuation (2
   words): the job is pooled with its slice-end closure, the park effect
   is the pool's and the resume closure the process's. Two processes
   share one core, so every call queues or preempts; 5 001 calls each
   less one each, per call. *)
let test_cpu_busy_allocation () =
  let run n () =
    let eng = Sim.Engine.create () in
    let cpu = Cpu.create eng ~cores:1 () in
    for _ = 1 to 2 do
      Sim.Engine.spawn eng (fun () ->
          for _ = 1 to n do
            Cpu.busy cpu 0.5
          done)
    done;
    Sim.Engine.run_all eng
  in
  let n = 5_000 in
  let per_busy =
    (minor_words_during (run (n + 1)) -. minor_words_during (run 1))
    /. float_of_int (2 * n)
  in
  Alcotest.(check (float 0.)) "words per contended busy" 2. per_busy

(* Differential oracle: the hand-off run queue against the semaphore
   pool it replaced ([Oracle.Cpu_ref]). Processes arrive at a few shared
   instants (so arrivals tie), each runs one or two demands, and after
   every demand it samples the clock, [busy_seconds], [utilization] and
   [queued]. Both sides must produce the same samples in the same order,
   compared as float bits. *)
type cpu_case = {
  cores : int;
  slice : float;
  procs : (float * float list) list;  (* arrival, demands *)
}

let gen_cpu_case =
  let open QCheck.Gen in
  let* cores = int_range 1 4 in
  let* slice = oneofl [ 0.25; 0.1; 0.7 ] in
  let* instants = list_size (int_range 1 4) (float_range 0. 3.) in
  let instants = Array.of_list instants in
  let demand = frequency [ (1, return 0.); (9, float_range 0. 1.5) ] in
  let+ procs =
    list_size (int_range 1 24)
      (pair
         (map (fun i -> instants.(i mod Array.length instants)) nat)
         (list_size (int_range 1 2) demand))
  in
  { cores; slice; procs }

let print_cpu_case c =
  Printf.sprintf "cores=%d slice=%g %s" c.cores c.slice
    (String.concat " "
       (List.map
          (fun (at, ds) ->
            Printf.sprintf "%h:[%s]" at
              (String.concat ";" (List.map (Printf.sprintf "%h") ds)))
          c.procs))

let run_cpu_case c make =
  let eng = Sim.Engine.create () in
  let busy, observe = make eng in
  let samples = ref [] in
  List.iteri
    (fun i (at, demands) ->
      Sim.Engine.spawn eng ~delay:at (fun () ->
          List.iter
            (fun d ->
              busy d;
              let now = Int64.bits_of_float (Sim.Engine.now eng) in
              samples := (i, now, observe ()) :: !samples)
            demands))
    c.procs;
  Sim.Engine.run_all eng;
  List.rev !samples

let prop_cpu_matches_oracle =
  QCheck.Test.make ~name:"cpu hand-off queue = semaphore oracle" ~count:500
    (QCheck.make ~print:print_cpu_case gen_cpu_case)
    (fun c ->
      let bits = Int64.bits_of_float in
      let shipped eng =
        let cpu = Cpu.create eng ~cores:c.cores ~slice:c.slice () in
        ( Cpu.busy cpu,
          fun () ->
            (bits (Cpu.busy_seconds cpu), bits (Cpu.utilization cpu), Cpu.queued cpu) )
      in
      let oracle eng =
        let module R = Oracle.Cpu_ref in
        let cpu = R.create eng ~cores:c.cores ~slice:c.slice () in
        ( R.busy cpu,
          fun () ->
            (bits (R.busy_seconds cpu), bits (R.utilization cpu), R.queued cpu) )
      in
      run_cpu_case c shipped = run_cpu_case c oracle)

(* ------------------------------------------------------------------ *)
(* Grant *)

let make_grant ?(total = mib 100) ?(max_query_frac = 0.25) ?(min_grant = mib 1)
    ?(timeout = 50.) () =
  let eng = Sim.Engine.create () in
  let manager = Dbmem.Manager.create ~total:(2 * total) () in
  let clerk = Dbmem.Manager.create_clerk manager "execution" in
  let g =
    Grant.create eng manager ~clerk ~total ~max_query_frac ~min_grant ~timeout ()
  in
  (eng, manager, clerk, g)

let test_grant_full_when_it_fits () =
  let eng, _, clerk, g = make_grant () in
  Sim.Engine.spawn eng (fun () ->
      match Grant.acquire g ~ideal:(mib 10) () with
      | Ok n ->
          Alcotest.(check int) "full ideal" (mib 10) n;
          Alcotest.(check int) "clerk charged" (mib 10) (Dbmem.Manager.clerk_used clerk);
          Grant.release g n;
          Alcotest.(check int) "clerk freed" 0 (Dbmem.Manager.clerk_used clerk)
      | Error _ -> Alcotest.fail "unexpected failure");
  Sim.Engine.run_all eng

let test_grant_trims_large_requests () =
  let eng, _, _, g = make_grant ~total:(mib 100) ~max_query_frac:0.25 () in
  Sim.Engine.spawn eng (fun () ->
      match Grant.acquire g ~ideal:(mib 80) () with
      | Ok n ->
          Alcotest.(check int) "trimmed to 25%" (mib 25) n;
          Grant.release g n
      | Error _ -> Alcotest.fail "unexpected failure");
  Sim.Engine.run_all eng

let test_grant_min_grant_floor () =
  let eng, _, _, g = make_grant ~min_grant:(mib 5) ~max_query_frac:0.01 () in
  Sim.Engine.spawn eng (fun () ->
      match Grant.acquire g ~ideal:(mib 50) () with
      | Ok n ->
          (* Cap would be 1 MiB but the floor is 5 MiB. *)
          Alcotest.(check int) "floored" (mib 5) n;
          Grant.release g n
      | Error _ -> Alcotest.fail "unexpected failure");
  Sim.Engine.run_all eng

let test_grant_small_request_untouched () =
  let eng, _, _, g = make_grant ~min_grant:(mib 5) () in
  Sim.Engine.spawn eng (fun () ->
      match Grant.acquire g ~ideal:(mib 2) () with
      | Ok n ->
          Alcotest.(check int) "never more than ideal" (mib 2) n;
          Grant.release g n
      | Error _ -> Alcotest.fail "unexpected failure");
  Sim.Engine.run_all eng

let test_grant_queueing_and_timeout () =
  let eng, _, _, g = make_grant ~total:(mib 100) ~max_query_frac:1.0 ~timeout:10. () in
  let second = ref None in
  Sim.Engine.spawn eng (fun () ->
      match Grant.acquire g ~ideal:(mib 100) () with
      | Ok n ->
          Sim.Engine.sleep 100.;
          Grant.release g n
      | Error _ -> Alcotest.fail "first must succeed");
  Sim.Engine.spawn eng ~delay:1.0 (fun () ->
      second := Some (Grant.acquire g ~ideal:(mib 50) ()));
  Sim.Engine.run_all eng;
  (match !second with
  | Some (Error { Health.Error.code = Health.Error.Memory_wait_timeout; _ }) ->
      ()
  | _ -> Alcotest.fail "expected grant timeout");
  Alcotest.(check int) "timeout counted" 1 (Grant.timeouts g)

let test_grant_fifo () =
  let eng, _, _, g = make_grant ~total:(mib 100) ~max_query_frac:1.0 ~timeout:1000. () in
  let order = ref [] in
  Sim.Engine.spawn eng (fun () ->
      match Grant.acquire g ~ideal:(mib 100) () with
      | Ok n ->
          Sim.Engine.sleep 10.;
          Grant.release g n
      | Error _ -> ());
  List.iter
    (fun (name, delay) ->
      Sim.Engine.spawn eng ~delay (fun () ->
          match Grant.acquire g ~ideal:(mib 40) () with
          | Ok n ->
              order := name :: !order;
              Sim.Engine.sleep 5.;
              Grant.release g n
          | Error _ -> ()))
    [ ("first", 1.0); ("second", 2.0) ];
  Sim.Engine.run_all eng;
  Alcotest.(check (list string)) "fifo service" [ "first"; "second" ] (List.rev !order)

(* ------------------------------------------------------------------ *)
(* Runner *)

let star_plan ~fact_rows =
  let cat = Optimizer.Catalog.create () in
  Optimizer.Catalog.add_table cat
    {
      Optimizer.Catalog.tbl_name = "dim";
      rows = 1000.;
      columns =
        [ Optimizer.Catalog.int_column "dim_key" ~distinct:1000.;
          Optimizer.Catalog.int_column "attr" ~distinct:100. ];
      indexes = [];
    };
  Optimizer.Catalog.add_table cat
    {
      Optimizer.Catalog.tbl_name = "fact";
      rows = fact_rows;
      columns =
        [ Optimizer.Catalog.int_column "fact_key" ~distinct:fact_rows;
          Optimizer.Catalog.int_column "dim_key" ~distinct:1000.;
          Optimizer.Catalog.int_column "m" ~distinct:1000. ];
      indexes = [];
    };
  let q =
    Optimizer.Query.make ~id:"rq" ~rels:[ ("fact", "f"); ("dim", "d") ]
      ~preds:
        [ { Optimizer.Query.jleft = 0; jlcol = "dim_key"; jright = 1;
            jrcol = "dim_key"; jsel = 0.001 } ]
      ~filters:[] ~agg:None
  in
  let card = Optimizer.Card.create cat q in
  Optimizer.Greedy.plan Optimizer.Cost.default card

let make_resources ?(memory = Dbmem.Units.gib 1) ?(workspace = mib 256) () =
  let eng = Sim.Engine.create () in
  let manager = Dbmem.Manager.create ~total:memory () in
  let pool_clerk = Dbmem.Manager.create_clerk manager "bufpool" in
  let exec_clerk = Dbmem.Manager.create_clerk manager "execution" in
  let disk =
    Bufpool.Disk.create eng ~spindles:4 ~seek_s:0.005
      ~throughput_bytes_per_s:(float_of_int (mib 40))
  in
  let pool =
    Bufpool.Pool.create ~clerk:pool_clerk ~disk ~page_bytes:(mib 1)
      ~policy:Bufpool.Policy.Lru2
  in
  let grants =
    Grant.create eng manager ~clerk:exec_clerk ~total:workspace ~timeout:500. ()
  in
  let cpu = Cpu.create eng ~cores:4 () in
  let resources =
    { Runner.eng; cpu; pool; disk; grants; rng = Sim.Rng.create 5 }
  in
  (eng, manager, resources)

let run_plan eng resources plan =
  let result = ref None in
  Sim.Engine.spawn eng (fun () ->
      result := Some (Runner.run resources plan));
  Sim.Engine.run_all eng;
  match !result with
  | Some r -> r
  | None -> Alcotest.fail "runner did not finish"

let test_runner_completes_and_accounts () =
  let eng, manager, resources = make_resources () in
  let plan = star_plan ~fact_rows:2_000_000. in
  match run_plan eng resources plan with
  | Ok o ->
      Alcotest.(check bool) "positive duration" true (o.Runner.duration > 0.);
      Alcotest.(check bool) "read pages" true (o.Runner.pages_read > 0);
      Alcotest.(check bool) "granted within ideal" true (o.Runner.granted <= o.Runner.ideal);
      (* The grant was released: only pool memory remains. *)
      Alcotest.(check int) "grant released"
        (Bufpool.Pool.resident_bytes resources.Runner.pool)
        (Dbmem.Manager.used manager)
  | Error _ -> Alcotest.fail "runner failed"

let test_runner_warm_pool_is_faster () =
  let eng, _, resources = make_resources ~memory:(Dbmem.Units.gib 2) () in
  let plan = star_plan ~fact_rows:500_000. in
  let cold =
    match run_plan eng resources plan with
    | Ok o -> o.Runner.duration
    | Error _ -> Alcotest.fail "cold run failed"
  in
  (* Second run: everything the first run touched is still cached (note:
     the random scan start means only partial overlap, so just require
     strictly faster). *)
  let result = ref None in
  Sim.Engine.spawn eng (fun () ->
      result := Some (Runner.run resources plan));
  Sim.Engine.run_all eng;
  match !result with
  | Some (Ok o) ->
      Alcotest.(check bool)
        (Printf.sprintf "warm (%.2fs) <= cold (%.2fs)" o.Runner.duration cold)
        true
        (o.Runner.duration < cold)
  | _ -> Alcotest.fail "warm run failed"

(* A plan that deliberately builds its hash table on the fact side, so the
   ideal grant is large (the optimizer would avoid this; the runner must
   still execute it, spilling). *)
let fact_build_plan ~fact_rows =
  let cat = Optimizer.Catalog.create () in
  Optimizer.Catalog.add_table cat
    {
      Optimizer.Catalog.tbl_name = "dim";
      rows = 1000.;
      columns = [ Optimizer.Catalog.int_column "dim_key" ~distinct:1000. ];
      indexes = [];
    };
  Optimizer.Catalog.add_table cat
    {
      Optimizer.Catalog.tbl_name = "fact";
      rows = fact_rows;
      columns =
        [ Optimizer.Catalog.int_column "fact_key" ~distinct:fact_rows;
          Optimizer.Catalog.int_column "dim_key" ~distinct:1000. ];
      indexes = [];
    };
  let q =
    Optimizer.Query.make ~id:"fb" ~rels:[ ("fact", "f"); ("dim", "d") ]
      ~preds:
        [ { Optimizer.Query.jleft = 0; jlcol = "dim_key"; jright = 1;
            jrcol = "dim_key"; jsel = 0.001 } ]
      ~filters:[] ~agg:None
  in
  let card = Optimizer.Card.create cat q in
  let fact = Optimizer.Plan.seq_scan Optimizer.Cost.default card 0 in
  let dim = Optimizer.Plan.seq_scan Optimizer.Cost.default card 1 in
  Optimizer.Plan.hash_join Optimizer.Cost.default
    ~rows:(Optimizer.Card.card card (Optimizer.Relset.full 2))
    ~build:fact ~probe:dim

let test_runner_spills_when_grant_short () =
  let eng, _, resources = make_resources ~workspace:(mib 8) () in
  (* Building on a 20M-row fact needs ~1.6 GB: far over the workspace. *)
  let plan = fact_build_plan ~fact_rows:20_000_000. in
  match run_plan eng resources plan with
  | Ok o ->
      Alcotest.(check bool) "grant was short" true (o.Runner.granted < o.Runner.ideal);
      Alcotest.(check bool) "spilled" true o.Runner.spilled;
      Alcotest.(check bool) "spill wrote to disk" true
        (Bufpool.Disk.bytes_written resources.Runner.disk > 0)
  | Error _ -> Alcotest.fail "runner failed"

let test_runner_grant_timeout_surfaces () =
  let eng, _, resources = make_resources ~workspace:(mib 64) () in
  (* Occupy the whole workspace forever (requests are trimmed to 25%, so
     four of them saturate the semaphore). *)
  for _ = 1 to 4 do
    Sim.Engine.spawn eng (fun () ->
        match Grant.acquire resources.Runner.grants ~ideal:(mib 64) () with
        | Ok _ -> Sim.Engine.sleep 1e9
        | Error _ -> ())
  done;
  let plan = fact_build_plan ~fact_rows:20_000_000. in
  let result = ref None in
  Sim.Engine.spawn eng ~delay:1.0 (fun () ->
      result := Some (Runner.run resources plan));
  Sim.Engine.run eng ~until:2_000.;
  match !result with
  | Some (Error { Health.Error.code = Health.Error.Memory_wait_timeout; _ }) ->
      ()
  | _ -> Alcotest.fail "expected grant timeout"

let suite =
  [
    ("cpu single job", `Quick, test_cpu_single_job_exact_time);
    ("cpu contention", `Quick, test_cpu_contention_stretches_wallclock);
    ("cpu parallel cores", `Quick, test_cpu_parallel_cores);
    ("cpu utilization", `Quick, test_cpu_utilization);
    ("cpu failure after busy", `Quick, test_cpu_failure_after_busy);
    ("cpu slices allocate nothing", `Quick, test_cpu_slices_allocate_nothing);
    ("cpu contended busy allocation", `Quick, test_cpu_busy_allocation);
    QCheck_alcotest.to_alcotest prop_cpu_matches_oracle;
    ("grant full when fits", `Quick, test_grant_full_when_it_fits);
    ("grant trims large", `Quick, test_grant_trims_large_requests);
    ("grant min floor", `Quick, test_grant_min_grant_floor);
    ("grant small untouched", `Quick, test_grant_small_request_untouched);
    ("grant queue and timeout", `Quick, test_grant_queueing_and_timeout);
    ("grant fifo", `Quick, test_grant_fifo);
    ("runner completes", `Quick, test_runner_completes_and_accounts);
    ("runner warm pool faster", `Quick, test_runner_warm_pool_is_faster);
    ("runner spills on short grant", `Quick, test_runner_spills_when_grant_short);
    ("runner grant timeout", `Quick, test_runner_grant_timeout_surfaces);
  ]
