(* Tests for the domain fan-out and the parallel experiment grid:
   [Pool.run] must preserve submission order and exception semantics, and
   a grid fanned over domains must reproduce the sequential results
   bit-for-bit (the property the whole bench harness leans on). *)

open Parallel

(* Burn a little CPU so items finish out of submission order under real
   parallelism; the result must come back ordered regardless. *)
let work x =
  let acc = ref x in
  for i = 1 to 1000 * (1 + (x mod 7)) do
    acc := (!acc * 31) + i
  done;
  (x, !acc)

let test_map_preserves_order () =
  let items = List.init 50 (fun i -> i) in
  let expected = List.map work items in
  List.iter
    (fun jobs ->
      let got = Pool.run ~jobs work items in
      Alcotest.(check bool)
        (Printf.sprintf "order at jobs=%d" jobs)
        true (got = expected))
    [ 1; 2; 4 ]

let test_jobs_one_inline () =
  (* jobs = 1 spawns no domains: side effects happen on this domain, in
     submission order. *)
  let order = ref [] in
  let r =
    Pool.run ~jobs:1
      (fun x ->
        order := x :: !order;
        x)
      [ 1; 2; 3 ]
  in
  Alcotest.(check (list int)) "results" [ 1; 2; 3 ] r;
  Alcotest.(check (list int)) "ran in order" [ 3; 2; 1 ] !order

let test_more_jobs_than_items () =
  Alcotest.(check (list int)) "jobs > items" [ 10 ]
    (Pool.run ~jobs:8 (fun x -> 10 * x) [ 1 ]);
  Alcotest.(check (list int)) "empty input" []
    (Pool.run ~jobs:4 (fun x -> x) [])

let test_invalid_jobs () =
  Alcotest.(check bool) "jobs=0 rejected" true
    (try
       ignore (Pool.run ~jobs:0 Fun.id [ 1; 2 ]);
       false
     with Invalid_argument _ -> true)

(* With jobs=2 the caller's domain must take items itself. An item run on
   any other domain waits (at most 2 s of CPU time) for a flag that only
   an item run on the caller's domain sets. A helper blocked on its first
   item cannot claim a second one, so the caller always gets one and the
   waits end at once; if the caller only waited, every wait would run out
   and every item would report the flag unset. *)
let test_caller_runs_items () =
  let caller = Domain.self () in
  let flag = Atomic.make false in
  let item x =
    let on_caller = Domain.self () = caller in
    if on_caller then Atomic.set flag true
    else begin
      let give_up = Sys.time () +. 2. in
      while (not (Atomic.get flag)) && Sys.time () < give_up do
        Domain.cpu_relax ()
      done
    end;
    (x, on_caller, Atomic.get flag)
  in
  let got = Pool.run ~jobs:2 item [ 0; 1; 2 ] in
  Alcotest.(check (list int)) "order" [ 0; 1; 2 ]
    (List.map (fun (x, _, _) -> x) got);
  Alcotest.(check bool) "an item ran on the calling domain" true
    (List.exists (fun (_, on_caller, _) -> on_caller) got);
  Alcotest.(check bool) "every helper item saw the flag" true
    (List.for_all (fun (_, _, seen) -> seen) got)

exception Boom of int

let test_exception_propagation () =
  List.iter
    (fun jobs ->
      match
        Pool.run ~jobs
          (fun x -> if x mod 3 = 2 then raise (Boom x) else x)
          [ 0; 1; 2; 3; 4; 5 ]
      with
      | _ -> Alcotest.failf "jobs=%d: expected Boom" jobs
      | exception Boom x ->
          (* Items 2 and 5 both fail; the earliest submitted wins. *)
          Alcotest.(check int)
            (Printf.sprintf "earliest failure at jobs=%d" jobs)
            2 x)
    [ 1; 4 ]

(* ------------------------------------------------------------------ *)
(* Grid determinism: the point of the whole construction. *)

let grid_cells ~seeds =
  List.concat_map
    (fun seed ->
      List.map
        (fun base -> { base with Server.Config.seed })
        [ Server.Config.default (); Server.Config.unthrottled () ])
    seeds

let run_cell ~clients config =
  Server.Experiment.run ~config ~clients ~warmup:5. ~measure:30. ~slice:10. ()

let fingerprint results = Marshal.to_string results [ Marshal.No_sharing ]

let test_grid_parallel_equals_sequential () =
  let cells = grid_cells ~seeds:[ 42; 7 ] in
  let seq = Parallel.Pool.run ~jobs:1 (run_cell ~clients:3) cells in
  let par = Parallel.Pool.run ~jobs:4 (run_cell ~clients:3) cells in
  Alcotest.(check bool) "parallel grid = sequential grid" true
    (String.equal (fingerprint seq) (fingerprint par))

(* A process that fails inside one cell fails the whole grid, from
   whichever domain ran that cell: the grid re-raises the engine's
   [Process_failed], so no cell's numbers come from a broken run. *)
let test_grid_process_failure () =
  let healthy () =
    Server.Experiment.run ~clients:2 ~warmup:5. ~measure:30. ~slice:10. ()
  in
  let failing () =
    let dbms, _, _ =
      Server.Experiment.load (Server.Config.default ())
        (Workload.Sales.catalog ()) ~templates:(Workload.Sales.templates ())
        ~client_config:Workload.Client.default_config ~clients:2 ~stop:35.
    in
    let eng = Server.Dbms.engine dbms in
    Sim.Engine.spawn eng ~name:"bad-probe" ~delay:12. (fun () ->
        failwith "probe bug");
    Sim.Engine.run eng ~until:35.;
    Alcotest.fail "the cell's run did not raise"
  in
  match Parallel.Pool.run ~jobs:2 (fun cell -> cell ()) [ healthy; failing ] with
  | _ -> Alcotest.fail "expected Process_failed from the grid"
  | exception Sim.Engine.Process_failed { name; time; exn } ->
      Alcotest.(check string) "process" "bad-probe" name;
      Alcotest.(check (float 0.)) "time" 12. time;
      Alcotest.(check bool) "inner" true (exn = Failure "probe bug")

(* Fuzzed grids: any mix of seeds and client counts must give identical
   results at jobs=1 and jobs=4. Every result field — series samples,
   online stats, error counters — participates via Marshal. *)
let prop_grid_deterministic_under_parallelism =
  QCheck.Test.make ~name:"grid jobs:1 = jobs:4 on fuzzed grids" ~count:5
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 2) (int_range 0 10_000))
        (int_range 1 4))
    (fun (seeds, clients) ->
      let cells = grid_cells ~seeds in
      let seq = Parallel.Pool.run ~jobs:1 (run_cell ~clients) cells in
      let par = Parallel.Pool.run ~jobs:4 (run_cell ~clients) cells in
      String.equal (fingerprint seq) (fingerprint par))

let suite =
  [
    ("map preserves submission order", `Quick, test_map_preserves_order);
    ("jobs=1 runs inline", `Quick, test_jobs_one_inline);
    ("more jobs than items", `Quick, test_more_jobs_than_items);
    ("invalid jobs rejected", `Quick, test_invalid_jobs);
    ("the calling domain runs items", `Quick, test_caller_runs_items);
    ("earliest exception propagates", `Quick, test_exception_propagation);
    ("parallel grid = sequential grid", `Slow, test_grid_parallel_equals_sequential);
    ("grid re-raises a process failure", `Quick, test_grid_process_failure);
    QCheck_alcotest.to_alcotest prop_grid_deterministic_under_parallelism;
  ]
