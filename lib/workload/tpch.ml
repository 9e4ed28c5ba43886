open Optimizer

(* Default is roughly scale factor 100, the paper-scale comparison. *)
let default_sf = 100.

let tables sf =
  [
    (* (name, rows, fks, measures, pad_width) *)
    ("region", 5., [], [], 80);
    ("nation", 25., [ "region" ], [], 80);
    ("supplier", 10_000. *. sf, [ "nation" ], [], 140);
    ("customer", 150_000. *. sf, [ "nation" ], [], 160);
    ("part", 200_000. *. sf, [], [], 120);
    ("partsupp", 800_000. *. sf, [ "part"; "supplier" ], [ "supplycost" ], 140);
    ("orders", 1_500_000. *. sf, [ "customer" ], [ "totalprice" ], 80);
    ( "lineitem",
      6_000_000. *. sf,
      [ "orders"; "part"; "supplier" ],
      [ "extendedprice"; "disc"; "qty" ],
      60 );
  ]

let rows_of sf name =
  let (_, rows, _, _, _) =
    List.find (fun (n, _, _, _, _) -> n = name) (tables sf)
  in
  rows

let catalog ?(sf = default_sf) () =
  let cat = Catalog.create () in
  List.iter
    (fun (name, rows, fks, measures, pad) ->
      let columns =
        Catalog.int_column (name ^ "_key") ~distinct:rows
        :: {
             (Catalog.int_column "attr" ~distinct:100.) with
             Catalog.min_value = 0;
             max_value = 99;
           }
        :: List.map (fun fk -> Catalog.int_column (fk ^ "_key") ~distinct:(rows_of sf fk)) fks
        @ List.map (fun m -> Catalog.int_column m ~distinct:10_000.) measures
        @ [
            {
              Catalog.col_name = "pad";
              distinct = 20.;
              min_value = 0;
              max_value = 19;
              avg_width = pad;
              histogram = None;
            };
          ]
      in
      Catalog.add_table cat
        {
          Catalog.tbl_name = name;
          rows;
          columns;
          indexes =
            [
              { Catalog.idx_name = name ^ "_pk"; idx_columns = [ name ^ "_key" ]; clustered = true };
              { Catalog.idx_name = name ^ "_attr"; idx_columns = [ "attr" ]; clustered = false };
            ];
        })
    (tables sf);
  cat

(* Join-graph description: relations (table, alias), pk-fk edges given as
   (fk-side alias, pk-side alias, referenced table). *)
type qshape = {
  qname : string;
  qrels : (string * string) list;
  qedges : (string * string * string) list;
  filter_rel : string;  (** alias receiving the selective attr filter *)
  group_rel : string option;
  sum_rel : (string * string) option;  (** (alias, measure column) *)
}

let qshapes =
  [
    {
      qname = "q1_pricing";
      qrels = [ ("lineitem", "l") ];
      qedges = [];
      filter_rel = "l";
      group_rel = Some "l";
      sum_rel = Some ("l", "extendedprice");
    };
    {
      qname = "q10_returns";
      qrels = [ ("customer", "c"); ("orders", "o"); ("lineitem", "l"); ("nation", "n") ];
      qedges = [ ("o", "c", "customer"); ("l", "o", "orders"); ("c", "n", "nation") ];
      filter_rel = "o";
      group_rel = Some "c";
      sum_rel = Some ("l", "extendedprice");
    };
    {
      qname = "q3_shipping";
      qrels = [ ("customer", "c"); ("orders", "o"); ("lineitem", "l") ];
      qedges = [ ("o", "c", "customer"); ("l", "o", "orders") ];
      filter_rel = "c";
      group_rel = Some "o";
      sum_rel = Some ("l", "extendedprice");
    };
    {
      qname = "q9_profit";
      qrels =
        [ ("part", "p"); ("supplier", "s"); ("lineitem", "l"); ("partsupp", "ps");
          ("orders", "o"); ("nation", "n") ];
      qedges =
        [ ("l", "p", "part"); ("l", "s", "supplier"); ("ps", "p", "part");
          ("l", "o", "orders"); ("s", "n", "nation") ];
      filter_rel = "p";
      group_rel = Some "n";
      sum_rel = Some ("l", "extendedprice");
    };
    {
      qname = "q5_local_volume";
      qrels =
        [ ("customer", "c"); ("orders", "o"); ("lineitem", "l"); ("supplier", "s");
          ("nation", "n"); ("region", "r") ];
      qedges =
        [ ("o", "c", "customer"); ("l", "o", "orders"); ("l", "s", "supplier");
          ("s", "n", "nation"); ("n", "r", "region") ];
      filter_rel = "o";
      group_rel = Some "n";
      sum_rel = Some ("l", "extendedprice");
    };
    {
      qname = "q8_market_share";
      qrels =
        [ ("part", "p"); ("supplier", "s"); ("lineitem", "l"); ("orders", "o");
          ("customer", "c"); ("nation", "n1"); ("nation", "n2"); ("region", "r") ];
      qedges =
        [ ("l", "p", "part"); ("l", "s", "supplier"); ("l", "o", "orders");
          ("o", "c", "customer"); ("c", "n1", "nation"); ("s", "n2", "nation");
          ("n1", "r", "region") ];
      filter_rel = "p";
      group_rel = Some "n2";
      sum_rel = Some ("l", "extendedprice");
    };
  ]

let instantiate_qshape sf shape rng id =
  let alias_index a =
    let rec find i = function
      | [] -> raise Not_found
      | (_, alias) :: _ when alias = a -> i
      | _ :: rest -> find (i + 1) rest
    in
    find 0 shape.qrels
  in
  let preds =
    List.map
      (fun (fk_alias, pk_alias, target) ->
        {
          Query.jleft = alias_index fk_alias;
          jlcol = target ^ "_key";
          jright = alias_index pk_alias;
          jrcol = target ^ "_key";
          jsel = 1.0 /. rows_of sf target;
        })
      shape.qedges
  in
  let v = 2 + Sim.Rng.int rng 30 in
  let filters =
    [
      {
        Query.frel = alias_index shape.filter_rel;
        fcol = "attr";
        fop = Query.Le;
        fvalue = v;
        fsel = float_of_int (v + 1) /. 100.;
      };
    ]
  in
  let agg =
    match (shape.group_rel, shape.sum_rel) with
    | Some g, Some (sa, sc) ->
        Some
          {
            Query.group_by = [ (alias_index g, "attr") ];
            sum_cols = [ (alias_index sa, sc) ];
          }
    | _ -> None
  in
  Query.make
    ~id:(Printf.sprintf "%s#%06d" shape.qname id)
    ~rels:shape.qrels ~preds ~filters ~agg

let templates ?(sf = default_sf) () =
  List.map
    (fun shape ->
      {
        Template.tname = shape.qname;
        weight = 1.0;
        instantiate = instantiate_qshape sf shape;
      })
    qshapes
