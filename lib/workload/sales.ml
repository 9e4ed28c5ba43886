open Optimizer

let fact_table = "sales"

(* (name, rows, pad_width, indexed_attr). Pad width models the descriptive
   columns of the real application's dimensions; [indexed_attr] marks
   dimensions large enough that the customer would index the attributes
   their analysts filter on. *)
let dimension_spec =
  [
    ("customer", 5_000_000., 180, true);
    ("product", 1_600_000., 180, true);
    ("date_dim", 3650., 80, false);
    ("supplier", 800_000., 140, true);
    ("store", 400_000., 180, true);
    ("employee", 600_000., 140, true);
    ("promotion", 250_000., 180, true);
    ("warehouse", 2_000., 180, false);
    ("brand", 5_000., 80, false);
    ("subcategory", 2_000., 80, false);
    ("region", 500., 80, false);
    ("country", 250., 80, false);
    ("currency", 200., 80, false);
    ("category", 200., 80, false);
    ("channel", 100., 80, false);
    ("carrier", 100., 80, false);
    ("payment_type", 50., 80, false);
    ("segment", 40., 80, false);
    ("order_status", 20., 80, false);
  ]

let dimensions = List.map (fun (n, _, _, _) -> n) dimension_spec

let fact_rows = 400_000_000.
let date_days = 3650

let measures = [ "quantity"; "revenue"; "cost_amount"; "discount" ]

let catalog () =
  let cat = Catalog.create () in
  List.iter
    (fun (name, rows, pad, indexed_attr) ->
      let columns =
        [
          Catalog.int_column (name ^ "_key") ~distinct:rows;
          {
            (Catalog.int_column "attr" ~distinct:100.) with
            Catalog.min_value = 0;
            max_value = 99;
          };
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
      Catalog.add_table cat { Catalog.tbl_name = name; rows; columns; indexes })
    dimension_spec;
  let fact_columns =
    Catalog.int_column "sales_key" ~distinct:fact_rows
    :: List.map
         (fun (name, rows, _, _) -> Catalog.int_column (name ^ "_key") ~distinct:rows)
         dimension_spec
    @ List.map (fun m -> Catalog.int_column m ~distinct:100_000.) measures
    @ [
        {
          Catalog.col_name = "pad";
          distinct = 20.;
          min_value = 0;
          max_value = 19;
          avg_width = 1040;
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
          (* Clustered on the date key: ad-hoc analyses slice by time, so
             the date-window filter turns full-fact scans into range
             fetches. *)
          { Catalog.idx_name = "sales_date"; idx_columns = [ "date_dim_key" ]; clustered = true };
          { Catalog.idx_name = "sales_pk"; idx_columns = [ "sales_key" ]; clustered = false };
        ];
    };
  cat

(* ------------------------------------------------------------------ *)
(* Templates *)

type shape = {
  sname : string;
  min_dims : int;
  max_dims : int;
  window_days_lo : int;  (** date-window length band *)
  window_days_hi : int;
  dim_filters : int;
  group_cols : int;
  sums : int;
}

(* Ten shapes spanning the paper's 15-20-join band, with different date
   windows (the dominant factor in how much of the fact is touched). *)
let shapes =
  [
    { sname = "s0_monthly_mix"; min_dims = 15; max_dims = 17; window_days_lo = 4; window_days_hi = 8; dim_filters = 2; group_cols = 2; sums = 3 };
    { sname = "s1_quarter_broad"; min_dims = 17; max_dims = 19; window_days_lo = 10; window_days_hi = 15; dim_filters = 1; group_cols = 1; sums = 2 };
    { sname = "s2_promo_deep"; min_dims = 16; max_dims = 18; window_days_lo = 4; window_days_hi = 11; dim_filters = 3; group_cols = 2; sums = 4 };
    { sname = "s3_supplier_cost"; min_dims = 15; max_dims = 16; window_days_lo = 6; window_days_hi = 11; dim_filters = 2; group_cols = 3; sums = 2 };
    { sname = "s4_halfyear_trend"; min_dims = 18; max_dims = 19; window_days_lo = 19; window_days_hi = 24; dim_filters = 2; group_cols = 2; sums = 3 };
    { sname = "s5_store_detail"; min_dims = 15; max_dims = 17; window_days_lo = 3; window_days_hi = 6; dim_filters = 3; group_cols = 3; sums = 4 };
    { sname = "s6_channel_rollup"; min_dims = 16; max_dims = 18; window_days_lo = 8; window_days_hi = 13; dim_filters = 1; group_cols = 1; sums = 2 };
    { sname = "s7_customer_seg"; min_dims = 17; max_dims = 19; window_days_lo = 5; window_days_hi = 10; dim_filters = 2; group_cols = 2; sums = 3 };
    { sname = "s8_product_margin"; min_dims = 15; max_dims = 18; window_days_lo = 11; window_days_hi = 18; dim_filters = 2; group_cols = 2; sums = 4 };
    { sname = "s9_yearly_exec"; min_dims = 16; max_dims = 19; window_days_lo = 15; window_days_hi = 23; dim_filters = 1; group_cols = 1; sums = 2 };
  ]

let dim_rows name =
  let (_, rows, _, _) = List.find (fun (n, _, _, _) -> n = name) dimension_spec in
  rows

(* Dimensions every analyst query touches. *)
let core_dims = [ "customer"; "product"; "date_dim" ]

let instantiate_shape ?id_override shape rng id =
  let n_dims =
    shape.min_dims + Sim.Rng.int rng (shape.max_dims - shape.min_dims + 1)
  in
  let optional = List.filter (fun d -> not (List.mem d core_dims)) dimensions in
  let extra =
    Array.to_list
      (Sim.Rng.sample rng (Array.of_list optional) (n_dims - List.length core_dims))
  in
  let dims = core_dims @ extra in
  let rels = (fact_table, "f") :: List.map (fun d -> (d, d)) dims in
  let dim_index d =
    let rec find i = function
      | [] -> raise Not_found
      | x :: _ when x = d -> i + 1 (* fact is index 0 *)
      | _ :: rest -> find (i + 1) rest
    in
    find 0 dims
  in
  let preds =
    List.map
      (fun d ->
        {
          Query.jleft = 0;
          jlcol = d ^ "_key";
          jright = dim_index d;
          jrcol = d ^ "_key";
          jsel = 1.0 /. dim_rows d;
        })
      dims
  in
  (* Date window on the fact's clustered date key. The window length sets
     the touched fraction of the fact; the position is the uniquifying
     literal. *)
  let window =
    shape.window_days_lo
    + Sim.Rng.int rng (shape.window_days_hi - shape.window_days_lo + 1)
  in
  let window_end = window + Sim.Rng.int rng (max 1 (date_days - window)) in
  let date_filter =
    {
      Query.frel = 0;
      fcol = "date_dim_key";
      fop = Query.Le;
      fvalue = window_end;
      fsel = float_of_int window /. float_of_int date_days;
    }
  in
  (* Attribute filters on a few of the larger chosen dimensions. *)
  let filterable =
    List.filter
      (fun d -> List.mem d [ "customer"; "product"; "supplier"; "store"; "employee"; "promotion" ])
      dims
  in
  let dim_filters =
    List.filteri (fun i _ -> i < shape.dim_filters) filterable
    |> List.map (fun d ->
           let v = 4 + Sim.Rng.int rng 56 in
           {
             Query.frel = dim_index d;
             fcol = "attr";
             fop = Query.Le;
             fvalue = v;
             fsel = float_of_int (v + 1) /. 100.;
           })
  in
  let groupable = List.filter (fun d -> d <> "date_dim") dims in
  let group_by =
    Array.to_list
      (Sim.Rng.sample rng (Array.of_list groupable) (min shape.group_cols (List.length groupable)))
    |> List.map (fun d -> (dim_index d, "attr"))
  in
  let sum_cols =
    List.filteri (fun i _ -> i < shape.sums) measures
    |> List.map (fun m -> (0, m))
  in
  Query.make
    ~id:
      (match id_override with
      | Some s -> s
      | None -> Printf.sprintf "%s#%06d" shape.sname id)
    ~rels ~preds
    ~filters:(date_filter :: dim_filters)
    ~agg:(Some { Query.group_by; sum_cols })

let templates () =
  List.map
    (fun shape ->
      {
        Template.tname = shape.sname;
        weight = 1.0;
        instantiate = instantiate_shape shape;
      })
    shapes

(* Parameterized application queries: each variant is one fixed draw from
   a shape, replayed verbatim on every submission. The stable fingerprint
   makes the variant cacheable — after the first compile, repeats are plan
   cache hits — which is precisely what makes a cold restart expensive:
   every variant whose plan lived on the dead shard must recompile at
   once, and only the compile gateways keep that storm from eating the
   rejoining shard's memory. *)
let parameterized_templates ?(variants = 40) () =
  List.init variants (fun i ->
      let tname = Printf.sprintf "p%03d" i in
      let shape = List.nth shapes (i mod List.length shapes) in
      let rng = Sim.Rng.create (0x5eed lxor i) in
      let q = instantiate_shape ~id_override:(tname ^ "#0") shape rng 0 in
      { Template.tname; weight = 1.0; instantiate = (fun _rng _id -> q) })

let diagnostic_template () =
  {
    Template.tname = "diag";
    weight = 1.0;
    instantiate =
      (fun _rng _id ->
        (* Stable fingerprint: diagnostics are cacheable and tiny. *)
        Query.make ~id:"diag#0"
          ~rels:[ (fact_table, "f") ]
          ~preds:[]
          ~filters:
            [
              {
                Query.frel = 0;
                fcol = "sales_key";
                fop = Query.Eq;
                fvalue = 123_456;
                fsel = 1.0 /. fact_rows;
              };
            ]
          ~agg:None);
  }
