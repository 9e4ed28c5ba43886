(** The mid-tier cache as it was keyed by SQL text, before the front end
    gave each statement an int: a test oracle. The cache is the
    string-keyed LRU of that version, field for field; the front end
    keys it by {!Midcache.Frontend.key_of_query} and recomputes the
    relation list on every put. Run side by side with
    {!Midcache.Frontend} over one op stream, both must count, hold and
    trace the same. *)

type t

val create :
  ?trace:Obs.Trace.t ->
  ?release:(int -> unit) ->
  budget:int ->
  Midcache.Cache.config ->
  t

(** As {!Midcache.Frontend.lookup}. *)
val lookup : t -> now:float -> Optimizer.Query.t -> int option

(** As {!Midcache.Frontend.store}. *)
val store : t -> now:float -> Optimizer.Query.t -> unit

(** As {!Midcache.Frontend.write}, its events stamped [now]. *)
val write : t -> now:float -> rels:string list -> unit

val shrink : t -> int -> int
val set_budget : t -> int -> unit

(** {1 The cache's counters} *)

val hits : t -> int
val misses : t -> int
val stores : t -> int
val refused : t -> int
val evictions : t -> int
val expired : t -> int
val invalidated : t -> int
val resident : t -> int
val entries : t -> int

(** Entries the front end's writes invalidated. *)
val invalidated_entries : t -> int
