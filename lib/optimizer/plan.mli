(** Physical execution plans with cost, cardinality and memory annotations.

    Plans are produced by the optimizer ({!Cascades}, {!Greedy}) and
    consumed by the plan cache (sized by {!size_bytes}) and the simulated
    executor (driven by {!io_pages}, {!cpu_cost} and {!grant_bytes}). *)

type scan = {
  srel : int;  (** query relation index *)
  stable : string;
  srows : float;  (** output rows, filters applied *)
  spages : float;  (** pages fetched *)
  stotal_pages : float;  (** pages of the whole table *)
  random_io : bool;  (** index lookups are random, scans sequential *)
}

type node =
  | Seq_scan of scan
  | Index_scan of scan
  | Hash_join of t * t  (** build, probe *)
  | Nl_join of t * t  (** outer, inner *)
  | Merge_join of t * t  (** inputs are sorted by the embedded Sorts *)
  | Sort of t
  | Hash_agg of t * int * int  (** child, group columns, agg functions *)
  | Stream_agg of t * int * int

and t = {
  node : node;
  rset : Relset.t;  (** relations covered *)
  rows : float;  (** estimated output cardinality *)
  width : int;  (** output row width, bytes *)
  cost_io : float;  (** cumulative I/O cost units *)
  cost_cpu : float;  (** cumulative CPU cost units *)
  mem_bytes : float;  (** workspace demand of this node alone *)
}

(** {1 Costed constructors} *)

val seq_scan : Cost.model -> Card.t -> int -> t

(** [None] when no index helps (no filter or no index on a filtered
    column). *)
val index_scan : Cost.model -> Card.t -> int -> t option

(** [hash_join model ~rows ~build ~probe] — [rows] is the join output
    cardinality (from {!Card.card} of the union set). *)
val hash_join : Cost.model -> rows:float -> build:t -> probe:t -> t

val nl_join : Cost.model -> rows:float -> outer:t -> inner:t -> t

(** Adds the two Sort children implicitly (their cost is included). *)
val merge_join : Cost.model -> rows:float -> left:t -> right:t -> t

val hash_agg : Cost.model -> rows:float -> groups:int -> aggs:int -> t -> t
val stream_agg : Cost.model -> rows:float -> groups:int -> aggs:int -> t -> t

(** {1 Cost-model constants}

    Exposed so {!Rules}'s cost-only evaluators (used by {!Cascades}) can
    mirror the constructors' memory formulas bit for bit. *)

(** Build-side projection width cap in {!hash_join}'s memory model. *)
val hash_build_width : int

(** Sort workspace width cap in the implicit Sort operators. *)
val sort_width_cap : int

(** {1 Derived metrics} *)

(** Total cost (I/O + CPU units). *)
val total_cost : t -> float

val cpu_cost : t -> float

(** Pages fetched by all scans in the plan (buffer-pool demand). *)
val io_pages : t -> float

(** Sum of workspace demands of all memory-consuming operators — the ideal
    execution memory grant. *)
val grant_bytes : t -> int

(** Serialised plan size (for the plan cache), proportional to operator
    count. *)
val size_bytes : t -> int

val n_operators : t -> int

(** Leaf scans, left to right. *)
val scans : t -> scan list

(** Every relation appears exactly once across the scans. *)
val well_formed : t -> n_rels:int -> bool

val pp : Format.formatter -> t -> unit
