(** Catalog: table/column/index metadata and statistics.

    Data is described statistically (row counts, page counts, per-column
    distinct counts and value ranges); the optimizer and the simulated
    executor work entirely from these statistics, which is how they scale
    to the paper's 524 GB data mart. Columns carry no type: a column's
    value range is an int domain, and its width is what a row stores. *)

type column = {
  col_name : string;
  distinct : float;  (** number of distinct values *)
  min_value : int;  (** inclusive value range *)
  max_value : int;
  avg_width : int;  (** bytes per value, for row-width estimation *)
  histogram : Histogram.t option;
      (** when present, selectivity estimation uses it instead of the
          uniform-distribution assumption *)
}

type index = {
  idx_name : string;
  idx_columns : string list;
  clustered : bool;
}

type table = {
  tbl_name : string;
  rows : float;
  columns : column list;
  indexes : index list;
}

type t

val create : unit -> t
val add_table : t -> table -> unit
val find_table : t -> string -> table
val find_table_opt : t -> string -> table option
val tables : t -> table list

(** [column tbl name] raises [Not_found]. *)
val column : table -> string -> column

(** Estimated row width in bytes (sum of column widths + header). *)
val row_width : table -> int

(** [pages tbl ~page_size] data pages occupied by the table. *)
val pages : table -> page_size:int -> float

(** Total data size of the catalog in bytes. *)
val data_bytes : t -> int

(** [has_index_on tbl col] — any index whose leading column is [col]. *)
val has_index_on : table -> string -> bool

(** Convenience builder for an int column with a dense key range
    [0 .. distinct-1]. *)
val int_column : ?width:int -> string -> distinct:float -> column

val pp : Format.formatter -> t -> unit
