open Optimizer

let fact_table = "sales"

(* Direct dimensions of the fact: (name, rows, pad, indexed_attr, fk to an
   outrigger or None). *)
let direct_dims =
  [
    ("customer", 5_000_000., 160, true, Some "region");
    ("product", 1_600_000., 160, true, Some "brand");
    ("date_dim", 3650., 80, false, None);
    ("supplier", 800_000., 140, true, None);
    ("store", 400_000., 160, true, None);
    ("employee", 600_000., 140, true, None);
    ("promotion", 250_000., 160, true, None);
    ("warehouse", 2_000., 180, false, None);
    ("currency", 200., 80, false, None);
    ("channel", 100., 80, false, None);
    ("carrier", 100., 80, false, None);
    ("payment_type", 50., 80, false, None);
    ("order_status", 20., 80, false, None);
    ("segment", 40., 80, false, None);
  ]

(* Outriggers: (name, rows, fk to the next chain link or None). *)
let outriggers =
  [
    ("region", 500., Some "country");
    ("country", 250., None);
    ("brand", 5_000., Some "category");
    ("category", 200., None);
  ]

let rows_of name =
  match List.find_opt (fun (n, _, _, _, _) -> n = name) direct_dims with
  | Some (_, rows, _, _, _) -> rows
  | None -> (
      match List.find_opt (fun (n, _, _) -> n = name) outriggers with
      | Some (_, rows, _) -> rows
      | None -> invalid_arg ("Snowflake.rows_of: " ^ name))

let fact_rows = 400_000_000.
let date_days = 3650
let measures = [ "quantity"; "revenue"; "cost_amount"; "discount" ]

let mk_table cat ~name ~rows ~pad ~indexed_attr ~fk =
  let columns =
    Catalog.int_column (name ^ "_key") ~distinct:rows
    :: {
         (Catalog.int_column "attr" ~distinct:100.) with
         Catalog.min_value = 0;
         max_value = 99;
       }
    :: (match fk with
       | Some target -> [ Catalog.int_column (target ^ "_key") ~distinct:(rows_of target) ]
       | None -> [])
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
  let indexes =
    { Catalog.idx_name = name ^ "_pk"; idx_columns = [ name ^ "_key" ]; clustered = true }
    ::
    (if indexed_attr then
       [ { Catalog.idx_name = name ^ "_attr"; idx_columns = [ "attr" ]; clustered = false } ]
     else [])
  in
  Catalog.add_table cat { Catalog.tbl_name = name; rows; columns; indexes }

let catalog () =
  let cat = Catalog.create () in
  List.iter
    (fun (name, rows, pad, indexed, fk) ->
      mk_table cat ~name ~rows ~pad ~indexed_attr:indexed ~fk)
    direct_dims;
  List.iter
    (fun (name, rows, fk) -> mk_table cat ~name ~rows ~pad:80 ~indexed_attr:false ~fk)
    outriggers;
  let fact_columns =
    Catalog.int_column "sales_key" ~distinct:fact_rows
    :: List.map
         (fun (name, rows, _, _, _) -> Catalog.int_column (name ^ "_key") ~distinct:rows)
         direct_dims
    @ List.map (fun m -> Catalog.int_column m ~distinct:100_000.) measures
    @ [
        {
          Catalog.col_name = "pad";
          distinct = 20.;
          min_value = 0;
          max_value = 19;
          avg_width = 1080;
          histogram = None;
        };
      ]
  in
  Catalog.add_table cat
    {
      Catalog.tbl_name = fact_table;
      rows = fact_rows;
      columns = fact_columns;
      indexes =
        [
          { Catalog.idx_name = "sales_date"; idx_columns = [ "date_dim_key" ]; clustered = true };
          { Catalog.idx_name = "sales_pk"; idx_columns = [ "sales_key" ]; clustered = false };
        ];
    };
  cat

(* ------------------------------------------------------------------ *)
(* Templates: always include the snowflaked arms (customer, product),
   date_dim, and a random subset of other direct dimensions; then extend
   the two arms through their outrigger chains. *)

type shape = {
  sname : string;
  extra_dims_lo : int;  (** random direct dims beyond the three core ones *)
  extra_dims_hi : int;
  window_days_lo : int;
  window_days_hi : int;
  chain_depth : int;  (** 1 = one outrigger per arm, 2 = full chains *)
}

let shapes =
  [
    { sname = "f0_region_mix"; extra_dims_lo = 8; extra_dims_hi = 10; window_days_lo = 4; window_days_hi = 9; chain_depth = 2 };
    { sname = "f1_country_rollup"; extra_dims_lo = 9; extra_dims_hi = 11; window_days_lo = 10; window_days_hi = 16; chain_depth = 2 };
    { sname = "f2_brand_share"; extra_dims_lo = 8; extra_dims_hi = 10; window_days_lo = 4; window_days_hi = 12; chain_depth = 2 };
    { sname = "f3_category_trend"; extra_dims_lo = 10; extra_dims_hi = 11; window_days_lo = 14; window_days_hi = 22; chain_depth = 2 };
    { sname = "f4_shallow_arms"; extra_dims_lo = 10; extra_dims_hi = 11; window_days_lo = 5; window_days_hi = 10; chain_depth = 1 };
    { sname = "f5_geo_detail"; extra_dims_lo = 8; extra_dims_hi = 9; window_days_lo = 3; window_days_hi = 7; chain_depth = 2 };
    { sname = "f6_wide_sweep"; extra_dims_lo = 11; extra_dims_hi = 11; window_days_lo = 12; window_days_hi = 20; chain_depth = 2 };
    { sname = "f7_quarter_geo"; extra_dims_lo = 10; extra_dims_hi = 11; window_days_lo = 18; window_days_hi = 26; chain_depth = 1 };
  ]

let core = [ "customer"; "product"; "date_dim" ]

let instantiate_shape shape rng id =
  let extra_count =
    shape.extra_dims_lo
    + Sim.Rng.int rng (shape.extra_dims_hi - shape.extra_dims_lo + 1)
  in
  let optional =
    List.filter (fun (n, _, _, _, _) -> not (List.mem n core)) direct_dims
    |> List.map (fun (n, _, _, _, _) -> n)
  in
  let extra =
    Array.to_list (Sim.Rng.sample rng (Array.of_list optional) extra_count)
  in
  let dims = core @ extra in
  (* The two snowflake arms. *)
  let chains =
    let arm root links = List.filteri (fun i _ -> i < shape.chain_depth) links |> List.map (fun l -> (root, l)) in
    (* (joined-from, table) pairs in chain order. *)
    let customer_arm =
      match arm "customer" [ "region"; "country" ] with
      | [ (a, b) ] -> [ (a, b) ]
      | [ (a, b); (_, c) ] -> [ (a, b); (b, c) ]
      | _ -> []
    in
    let product_arm =
      match arm "product" [ "brand"; "category" ] with
      | [ (a, b) ] -> [ (a, b) ]
      | [ (a, b); (_, c) ] -> [ (a, b); (b, c) ]
      | _ -> []
    in
    customer_arm @ product_arm
  in
  let rel_names = (fact_table :: dims) @ List.map snd chains in
  let rels =
    List.mapi
      (fun i n -> (n, if i = 0 then "f" else n))
      rel_names
  in
  let index_of name =
    let rec find i = function
      | [] -> raise Not_found
      | x :: _ when x = name -> i
      | _ :: rest -> find (i + 1) rest
    in
    find 0 rel_names
  in
  let star_preds =
    List.map
      (fun d ->
        {
          Query.jleft = 0;
          jlcol = d ^ "_key";
          jright = index_of d;
          jrcol = d ^ "_key";
          jsel = 1.0 /. rows_of d;
        })
      dims
  in
  let chain_preds =
    List.map
      (fun (from_tbl, to_tbl) ->
        {
          Query.jleft = index_of from_tbl;
          jlcol = to_tbl ^ "_key";
          jright = index_of to_tbl;
          jrcol = to_tbl ^ "_key";
          jsel = 1.0 /. rows_of to_tbl;
        })
      chains
  in
  let window =
    shape.window_days_lo
    + Sim.Rng.int rng (shape.window_days_hi - shape.window_days_lo + 1)
  in
  let window_end = window + Sim.Rng.int rng (max 1 (date_days - window)) in
  let filters =
    {
      Query.frel = 0;
      fcol = "date_dim_key";
      fop = Query.Le;
      fvalue = window_end;
      fsel = float_of_int window /. float_of_int date_days;
    }
    :: List.map
         (fun tbl ->
           let v = 9 + Sim.Rng.int rng 50 in
           {
             Query.frel = index_of tbl;
             fcol = "attr";
             fop = Query.Le;
             fvalue = v;
             fsel = float_of_int (v + 1) /. 100.;
           })
         [ "customer"; "product" ]
  in
  let group_src = List.nth (List.map snd chains) (Sim.Rng.int rng (List.length chains)) in
  Query.make
    ~id:(Printf.sprintf "%s#%06d" shape.sname id)
    ~rels
    ~preds:(star_preds @ chain_preds)
    ~filters
    ~agg:
      (Some
         {
           Query.group_by = [ (index_of group_src, "attr") ];
           sum_cols = [ (0, "revenue"); (0, "quantity") ];
         })

let templates () =
  List.map
    (fun shape ->
      { Template.tname = shape.sname; weight = 1.0; instantiate = instantiate_shape shape })
    shapes
