(** Physical row operators that execute for real.

    This is the reference execution engine: it materialises genuine result
    tables from genuine data. The throughput simulation never runs rows
    through it (it uses the cost-based [execsim] instead), but tests use
    it to prove that the plans produced by the optimizer are
    semantically correct — every join order and physical algorithm must
    produce the same bag of rows. *)

open Relation

type agg_fn = Count | Sum of int | Min of int | Max of int | Avg of int

type t =
  | Scan of Table.t
  | Filter of Expr.t * t
  | Project of int list * t
  | Nested_loop_join of Expr.t * t * t
      (** predicate over the concatenated (left @ right) tuple *)
  | Hash_join of (int * int) list * t * t
      (** equi-join on [(left_col, right_col)] key pairs *)
  | Merge_join of (int * int) list * t * t
      (** sorts both inputs on the keys, then merges *)
  | Sort of int list * t
  | Hash_aggregate of int list * agg_fn list * t
      (** group-by columns (possibly empty = scalar aggregate) *)
  | Stream_aggregate of int list * agg_fn list * t
      (** requires input sorted on the group columns; sorts are the
          caller's responsibility (tests verify the equivalence) *)
  | Limit of int * t

(** Output schema of an operator tree. *)
val schema : t -> Schema.t

(** Execute the tree, materialising the result. *)
val execute : t -> Table.t

(** Number of operators in the tree. *)
val size : t -> int

val pp : Format.formatter -> t -> unit
