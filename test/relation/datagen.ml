type column_spec =
  | Serial
  | Uniform_int of int * int
  | Foreign_key of int

let gen_value rng row = function
  | Serial -> Value.Int row
  | Uniform_int (lo, hi) ->
      if hi < lo then invalid_arg "Datagen: bad Uniform_int bounds";
      Value.Int (lo + Sim.Rng.int rng (hi - lo + 1))
  | Foreign_key n ->
      if n <= 0 then invalid_arg "Datagen: Foreign_key over empty table";
      Value.Int (Sim.Rng.int rng n)

let table rng schema specs ~rows =
  if List.length specs <> Schema.arity schema then
    invalid_arg "Datagen.table: spec count does not match schema arity";
  let specs = Array.of_list specs in
  let data =
    Array.init rows (fun row ->
        Array.map (fun spec -> gen_value rng row spec) specs)
  in
  Table.of_array schema data
