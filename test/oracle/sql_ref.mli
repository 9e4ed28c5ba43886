(** The SQL rendering and the mid-tier cache key as they were before
    both wrote straight into one buffer: [to_sql] built each clause list
    with [sprintf] and [String.concat], and the key rendered the whole
    statement and cut its fingerprint line off. A test oracle for
    {!Optimizer.Query.to_sql} and {!Midcache.Frontend.key_of_query}. *)

val to_sql : Optimizer.Query.t -> string
val key_of_query : Optimizer.Query.t -> string
