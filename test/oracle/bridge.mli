(** Bridge between the statistics-driven optimizer world and the row-level
    execution engine.

    Given a catalog, [materialize] generates a tiny but referentially
    consistent physical instance of every table (primary keys dense,
    foreign keys in range); [to_rowexec] translates a physical {!Optimizer.Plan.t}
    into a {!Rowexec.Operator.t} over those tables; [reference] builds the
    canonical nested-loop evaluation of the query. Tests use these to prove
    that whatever join order and algorithms the optimizer picks, the result
    bag is unchanged. *)

(** A materialised database instance. *)
type instance

(** [materialize rng cat ~scale ~cap] scales every table's row count by
    [scale], capping at [cap] rows per table (defaults: [cap = 2000]).
    Column naming convention: in table [t], a column named ["t_key"] is its
    dense primary key; a column named ["d_key"] where [d] is another
    catalog table is a foreign key into [d]. Every other column is an int
    drawn uniformly from its catalog value range. *)
val materialize :
  Sim.Rng.t -> Optimizer.Catalog.t -> scale:float -> ?cap:int -> unit -> instance

val table : instance -> string -> Relation.Table.t
val table_names : instance -> string list

(** [to_rowexec inst q plan] — raises [Invalid_argument] if the plan does
    not cover the query's relations. The operator tree applies every filter
    at the leaves, every join predicate at the matching join (residual
    predicates as post-join filters), and the query's aggregation on top
    (row count first, then each SUM column). *)
val to_rowexec :
  instance -> Optimizer.Query.t -> Optimizer.Plan.t -> Rowexec.Operator.t

(** Canonical evaluation: nested-loop join in relation-index order with all
    predicates applied, then hash aggregation. *)
val reference : instance -> Optimizer.Query.t -> Rowexec.Operator.t

(** [validate inst q plan] executes both and compares result bags. *)
val validate :
  instance -> Optimizer.Query.t -> Optimizer.Plan.t -> (unit, string) result
