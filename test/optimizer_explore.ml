(* Inside the optimizer: take one SALES-style star query, plan it three
   ways (greedy, budgeted Cascades, exhaustive DP), compare costs and
   memory, then materialise a tiny instance of the warehouse and execute
   the plans for real to prove they return identical results. The DP and
   the row engine are test oracles; test/optimizer_explore.golden pins
   this program's output.

     dune exec test/optimizer_explore.exe *)

open Optimizer
open Oracle

(* An 8-dimension star so the exhaustive DP baseline is feasible. *)
let dims = 8

let catalog () =
  let cat = Catalog.create () in
  for d = 0 to dims - 1 do
    let name = Printf.sprintf "dim%d" d in
    let rows = float_of_int (1000 * (d + 1)) in
    Catalog.add_table cat
      {
        Catalog.tbl_name = name;
        rows;
        columns =
          [
            Catalog.int_column (name ^ "_key") ~distinct:rows;
            {
              (Catalog.int_column "attr" ~distinct:100.) with
              Catalog.min_value = 0;
              max_value = 99;
            };
          ];
        indexes =
          [ { Catalog.idx_name = name ^ "_pk"; idx_columns = [ name ^ "_key" ];
              clustered = true } ];
      }
  done;
  Catalog.add_table cat
    {
      Catalog.tbl_name = "orders";
      rows = 5_000_000.;
      columns =
        (Catalog.int_column "orders_key" ~distinct:5_000_000.
        :: List.init dims (fun d ->
               Catalog.int_column
                 (Printf.sprintf "dim%d_key" d)
                 ~distinct:(float_of_int (1000 * (d + 1)))))
        @ [ Catalog.int_column "amount" ~distinct:10_000. ];
      indexes = [];
    };
  cat

let query () =
  Query.make ~id:"explore#1"
    ~rels:(("orders", "o") :: List.init dims (fun d ->
               (Printf.sprintf "dim%d" d, Printf.sprintf "d%d" d)))
    ~preds:
      (List.init dims (fun d ->
           {
             Query.jleft = 0;
             jlcol = Printf.sprintf "dim%d_key" d;
             jright = d + 1;
             jrcol = Printf.sprintf "dim%d_key" d;
             jsel = 1.0 /. float_of_int (1000 * (d + 1));
           }))
    ~filters:
      [
        { Query.frel = 1; fcol = "attr"; fop = Query.Le; fvalue = 29; fsel = 0.3 };
        { Query.frel = 2; fcol = "attr"; fop = Query.Le; fvalue = 49; fsel = 0.5 };
      ]
    ~agg:(Some { Query.group_by = [ (1, "attr") ]; sum_cols = [ (0, "amount") ] })

let () =
  let cat = catalog () in
  let q = query () in
  Format.printf "%a@." Query.pp q;
  let card = Card.create cat q in
  let model = Cost.default in

  (* 1. Greedy left-deep heuristic: instant, decent. *)
  let greedy = Greedy.plan model card in
  Printf.printf "\ngreedy left-deep:      cost %12.0f   grant %s\n"
    (Plan.total_cost greedy)
    (Dbmem.Units.bytes_to_string (Plan.grant_bytes greedy));

  (* 2. Cascades with a small effort budget (what an overloaded server
     would do). *)
  let budgeted =
    match
      Cascades.optimize
        ~params:{ Cascades.default_params with Cascades.max_tasks = 300; min_tasks = 300 }
        ~env:Env.null model cat q
    with
    | Ok r -> r
    | Error _ -> assert false
  in
  Printf.printf "cascades (300 tasks):  cost %12.0f   memory %s, %d groups\n"
    (Plan.total_cost budgeted.Cascades.plan)
    (Dbmem.Units.bytes_to_string budgeted.Cascades.stats.Cascades.allocated_bytes)
    budgeted.Cascades.stats.Cascades.groups;

  (* 3. Cascades run to completion: must equal the DP optimum. *)
  let complete =
    match
      Cascades.optimize
        ~params:{ Cascades.default_params with Cascades.max_tasks = 5_000_000; min_tasks = 5_000_000 }
        ~env:Env.null model cat q
    with
    | Ok r -> r
    | Error _ -> assert false
  in
  let dp = Dp.optimize model card in
  Printf.printf "cascades (complete):   cost %12.0f   memory %s, %d groups\n"
    (Plan.total_cost complete.Cascades.plan)
    (Dbmem.Units.bytes_to_string complete.Cascades.stats.Cascades.allocated_bytes)
    complete.Cascades.stats.Cascades.groups;
  Printf.printf "dp (System R):         cost %12.0f   (equal to complete Cascades: %b)\n"
    (Plan.total_cost dp)
    (Float.abs (Plan.total_cost dp -. Plan.total_cost complete.Cascades.plan) < 1e-6);

  Format.printf "\noptimal plan:@.%a@." Plan.pp complete.Cascades.plan;

  (* 4. Execute all three on a materialised micro-instance and compare. *)
  let inst = Bridge.materialize (Sim.Rng.create 7) cat ~scale:0.01 ~cap:80 () in
  let check name plan =
    match Bridge.validate inst q plan with
    | Ok () -> Printf.printf "row-level validation, %-20s OK\n" (name ^ ":")
    | Error e -> Printf.printf "row-level validation, %-20s FAILED: %s\n" (name ^ ":") e
  in
  print_newline ();
  check "greedy" greedy;
  check "budgeted cascades" budgeted.Cascades.plan;
  check "complete cascades" complete.Cascades.plan;
  check "dp" dp;

  let result = Rowexec.Operator.execute (Bridge.to_rowexec inst q dp) in
  Format.printf "@.result of the optimal plan on the micro-instance:@.%a@."
    (Relation.Table.pp ~max_rows:10) result
