(* Tests for the domain work-pool and the parallel experiment grid: the
   pool must preserve submission order and exception semantics, and a
   grid fanned over domains must reproduce the sequential results
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

let test_map_array () =
  Pool.with_pool ~jobs:3 (fun p ->
      let a = Array.init 20 (fun i -> i) in
      Alcotest.(check (array int)) "squares in order"
        (Array.map (fun x -> x * x) a)
        (Pool.map_array p (fun x -> x * x) a))

let test_pool_reuse () =
  Pool.with_pool ~jobs:2 (fun p ->
      Alcotest.(check int) "jobs" 2 (Pool.jobs p);
      let a = Pool.map p (fun x -> x + 1) [ 1; 2; 3 ] in
      let b = Pool.map p (fun x -> x * 2) [ 4; 5 ] in
      Alcotest.(check (list int)) "first map" [ 2; 3; 4 ] a;
      Alcotest.(check (list int)) "second map" [ 8; 10 ] b)

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
       ignore (Pool.create ~jobs:0 ());
       false
     with Invalid_argument _ -> true)

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

let test_shutdown_idempotent () =
  let p = Pool.create ~jobs:2 () in
  ignore (Pool.map p (fun x -> x) [ 1 ]);
  Pool.shutdown p;
  Pool.shutdown p

(* ------------------------------------------------------------------ *)
(* Grid determinism: the point of the whole construction. *)

let grid_cells ~seeds ~clients =
  List.concat_map
    (fun seed ->
      List.map
        (fun base () ->
          Server.Experiment.run
            ~config:{ base with Server.Config.seed }
            ~clients ~warmup:5. ~measure:30. ~slice:10. ())
        [ Server.Config.default (); Server.Config.unthrottled () ])
    seeds

let fingerprint results = Marshal.to_string results [ Marshal.No_sharing ]

let test_run_grid_parallel_equals_sequential () =
  let cells = grid_cells ~seeds:[ 42; 7 ] ~clients:3 in
  let seq = Server.Experiment.run_grid ~jobs:1 cells in
  let par = Server.Experiment.run_grid ~jobs:4 cells in
  Alcotest.(check bool) "parallel grid = sequential grid" true
    (String.equal (fingerprint seq) (fingerprint par))

(* Fuzzed grids: any mix of seeds and client counts must give identical
   results at jobs=1 and jobs=4. Every result field — series samples,
   online stats, error counters — participates via Marshal. *)
let prop_grid_deterministic_under_parallelism =
  QCheck.Test.make ~name:"run_grid jobs:1 = jobs:4 on fuzzed grids" ~count:5
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 2) (int_range 0 10_000))
        (int_range 1 4))
    (fun (seeds, clients) ->
      let cells = grid_cells ~seeds ~clients in
      let seq = Server.Experiment.run_grid ~jobs:1 cells in
      let par = Server.Experiment.run_grid ~jobs:4 cells in
      String.equal (fingerprint seq) (fingerprint par))

let suite =
  [
    ("map preserves submission order", `Quick, test_map_preserves_order);
    ("map_array", `Quick, test_map_array);
    ("pool reuse across maps", `Quick, test_pool_reuse);
    ("jobs=1 runs inline", `Quick, test_jobs_one_inline);
    ("more jobs than items", `Quick, test_more_jobs_than_items);
    ("invalid jobs rejected", `Quick, test_invalid_jobs);
    ("earliest exception propagates", `Quick, test_exception_propagation);
    ("shutdown idempotent", `Quick, test_shutdown_idempotent);
    ("parallel grid = sequential grid", `Slow, test_run_grid_parallel_equals_sequential);
    QCheck_alcotest.to_alcotest prop_grid_deterministic_under_parallelism;
  ]
