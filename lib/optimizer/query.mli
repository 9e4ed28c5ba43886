(** Logical queries: select-project-join blocks with optional aggregation,
    represented as a join graph over catalog tables.

    This is the input to the optimizer. Queries carry both the statistical
    information the optimizer needs (selectivities) and enough concrete
    predicate detail to be executed for real by the row-level engine when a
    tiny instance of the data is materialised. *)

type filter_op = Le | Ge | Eq

type filter = {
  frel : int;  (** relation index *)
  fcol : string;
  fop : filter_op;
  fvalue : int;
  fsel : float;  (** estimated selectivity in (0, 1] *)
}

type join_pred = {
  jleft : int;  (** relation index *)
  jlcol : string;
  jright : int;
  jrcol : string;
  jsel : float;  (** join selectivity *)
}

type rel = { ridx : int; rtable : string; ralias : string }

type aggregate = {
  group_by : (int * string) list;  (** (relation, column) *)
  sum_cols : (int * string) list;
      (** numeric columns aggregated (SUM); a row count is always computed
          as well, so the number of aggregate functions is
          [1 + List.length sum_cols] *)
}

type t = {
  qid : string;  (** fingerprint; unique per ad-hoc instance *)
  rels : rel array;
  preds : join_pred list;
  filters : filter list;
  agg : aggregate option;
  adj : Relset.t array;
      (** [adj.(i)]: the relations that share a join predicate with
          relation [i]. Built by {!make}; the graph functions below read
          only these masks. *)
  mutable stmt_hash : int;
      (** {!statement_hash}'s memo: [-1] until it is first asked for.
          Read it through {!statement_hash}. *)
}

(** [make ~id ~rels ~preds ~filters ~agg] validates relation indexes, alias
    uniqueness and graph connectivity, and builds the adjacency masks. *)
val make :
  id:string ->
  rels:(string * string) list ->
  preds:join_pred list ->
  filters:filter list ->
  agg:aggregate option ->
  t

val n_rels : t -> int
val joins : t -> int

(** Filters attached to relation [i]. *)
val filters_of : t -> int -> filter list

(** Combined filter selectivity of relation [i]. *)
val filter_sel : t -> int -> float

(** [connected t s] — the subgraph induced by [s] is connected. *)
val connected : t -> Relset.t -> bool

(** [iter_connected_subsets t s f] calls [f] on every nonempty connected
    subset of the subgraph induced by [s] (Moerkotte & Neumann's
    EnumerateCsg), each once. It allocates nothing per subset. The count
    is exponential only for dense join graphs; star and chain queries
    yield O(n) and O(n^2) subsets respectively. *)
val iter_connected_subsets : t -> Relset.t -> (Relset.t -> unit) -> unit

(** [filter_selectivity op value col] is the textbook uniform-distribution
    estimate for [col op value] (used by query generators). *)
val filter_selectivity :
  filter_op -> int -> Catalog.column -> float

val pp : Format.formatter -> t -> unit

(** Render the query as SQL text — the form in which the paper's load
    generator would submit it. Useful for demonstrating ad-hoc
    uniquification (two instances of one template differ only in literals
    and dimension subsets). *)
val to_sql : t -> string

(** [add_sql_body buf t] appends {!to_sql}'s text up to, not including,
    its closing ["\n-- fingerprint <qid>"] line. *)
val add_sql_body : Buffer.t -> t -> unit

(** The template [t] was drawn from: its [qid] up to, not including,
    the first ["#"] (the whole [qid] if it has none). *)
val template : t -> string

(** {1 Statement identity}

    A statement is what {!add_sql_body} renders, together with the
    {!template}: relation tables and aliases, join columns, filter
    columns, operators and literals, group-by and sum columns. It leaves
    out the fingerprint's serial and the selectivities, which the SQL
    text does not show. Two instances are the same statement exactly
    when [template] and [add_sql_body] agree on them, so callers can key
    by statement without rendering any SQL. *)

(** [statement_hash t] is a structural hash of [t]'s statement,
    non-negative. It is computed on first use and memoised in [t]: a
    query that is never asked costs nothing, and one asked again costs a
    field read. The memo is a plain int, so template instances shared
    across domains may race to fill it; both write the same value. *)
val statement_hash : t -> int

(** [same_statement a b]: [a] and [b] are the same statement. Physically
    equal queries answer at once, different hashes at the cost of their
    memos. *)
val same_statement : t -> t -> bool

(** Hash tables keyed by statement. *)
module Statements : Hashtbl.S with type key = t

(** [hash_mix h x] folds [x] into the running hash [h], one
    multiply-xorshift step: {!statement_hash} takes one per field. *)
val hash_mix : int -> int -> int
