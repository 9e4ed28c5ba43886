(** Deterministic synthetic data generation.

    Used to materialise tiny instances of the benchmark schemas so that
    optimizer plans can be executed for real by [rowexec] and checked
    against a reference evaluation. *)

type column_spec =
  | Serial  (** 0, 1, 2, ... — primary keys *)
  | Uniform_int of int * int  (** inclusive bounds *)
  | Foreign_key of int  (** uniform in [\[0, n)] — references a Serial pk *)

(** [table rng schema specs ~rows] generates [rows] tuples; [specs] must
    match the schema's arity; every column they generate is an int. *)
val table :
  Sim.Rng.t -> Schema.t -> column_spec list -> rows:int -> Table.t
