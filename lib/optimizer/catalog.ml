type column = {
  col_name : string;
  distinct : float;
  min_value : int;
  max_value : int;
  avg_width : int;
  histogram : Histogram.t option;
}

type index = { idx_name : string; idx_columns : string list; clustered : bool }

type table = {
  tbl_name : string;
  rows : float;
  columns : column list;
  indexes : index list;
}

type t = { mutable tables_rev : table list }

let create () = { tables_rev = [] }

let add_table t tbl =
  if List.exists (fun x -> x.tbl_name = tbl.tbl_name) t.tables_rev then
    invalid_arg ("Catalog: duplicate table " ^ tbl.tbl_name);
  if tbl.rows < 0. then invalid_arg "Catalog: negative row count";
  t.tables_rev <- tbl :: t.tables_rev

let tables t = List.rev t.tables_rev

let find_table_opt t name =
  List.find_opt (fun x -> x.tbl_name = name) t.tables_rev

let find_table t name =
  match find_table_opt t name with
  | Some tbl -> tbl
  | None -> raise Not_found

let column tbl name =
  match List.find_opt (fun c -> c.col_name = name) tbl.columns with
  | Some c -> c
  | None -> raise Not_found

let row_header_bytes = 16

let row_width tbl =
  row_header_bytes + List.fold_left (fun acc c -> acc + c.avg_width) 0 tbl.columns

let pages tbl ~page_size =
  let width = float_of_int (row_width tbl) in
  Float.max 1. (tbl.rows *. width /. float_of_int page_size)

let data_bytes t =
  List.fold_left
    (fun acc tbl -> acc + int_of_float (tbl.rows *. float_of_int (row_width tbl)))
    0 (tables t)

let has_index_on tbl col =
  List.exists
    (fun i -> match i.idx_columns with c :: _ -> c = col | [] -> false)
    tbl.indexes

let int_column ?(width = 8) name ~distinct =
  {
    col_name = name;
    distinct;
    min_value = 0;
    max_value = max 0 (int_of_float distinct - 1);
    avg_width = width;
    histogram = None;
  }

let with_histogram col values =
  let h = Histogram.build values in
  let distinct_sample =
    Array.of_list (List.sort_uniq compare (Array.to_list values))
  in
  {
    col with
    histogram = Some h;
    min_value = Histogram.min_value h;
    max_value = Histogram.max_value h;
    distinct = float_of_int (Array.length distinct_sample);
  }

let pp ppf t =
  Format.fprintf ppf "@[<v>catalog (%d tables, %s)@," (List.length (tables t))
    (Dbmem.Units.bytes_to_string (data_bytes t));
  List.iter
    (fun tbl ->
      Format.fprintf ppf "  %-16s %12.0f rows, %d cols, %d indexes@,"
        tbl.tbl_name tbl.rows (List.length tbl.columns)
        (List.length tbl.indexes))
    (tables t);
  Format.fprintf ppf "@]"
