(** The database page buffer pool.

    The pool caches fixed-size page granules keyed by [(table, page_no)],
    packed into one int for the replacement policy: table ids are below
    [2^22] and page numbers below [2^40].
    It grows opportunistically — every miss tries to allocate a granule
    from the memory manager — and gives memory back in two ways: its own
    replacement policy recycles granules when allocation fails, and the
    {!shrink} entry point (wired to the broker's [Must_shrink] verdict and
    to the manager's donor mechanism) evicts pages to release bytes. This
    is the component the paper's un-throttled compilations starve: as
    compile memory grows, the pool shrinks, the hit rate falls and query
    executions turn into physical I/O. *)

type t

val create :
  clerk:Dbmem.Manager.clerk ->
  disk:Disk.t ->
  page_bytes:int ->
  policy:Policy.kind ->
  t

(** Intern a table name, returning the id to use in reads. *)
val table_id : t -> string -> int

(** [read t ~table ~page] — one page through the cache. Blocks on a miss
    for the disk transfer. Must run inside a simulation process. Raises
    [Invalid_argument] for a table id outside [\[0, 2^22)] or a page
    outside [\[0, 2^40)]. A hit allocates nothing. *)
val read : t -> table:int -> page:int -> unit

(** [read_range t ~table ~first ~count] reads [count] consecutive pages,
    batching the misses' disk transfers (64 pages per transfer). *)
val read_range : t -> table:int -> first:int -> count:int -> unit

(** [read_random t ~table ~pages ~of_pages ~rng] reads [pages] pages drawn
    uniformly from [\[0, of_pages)] (index lookups), 8 misses per
    transfer. *)
val read_random :
  t -> table:int -> pages:int -> of_pages:int -> rng:Sim.Rng.t -> unit

(** [shrink t n] evicts pages until [n] bytes have been released (or the
    pool is empty); returns the bytes actually freed. *)
val shrink : t -> int -> int

(** [shrink_to t target] shrinks until resident bytes <= target. *)
val shrink_to : t -> int -> int

val resident_bytes : t -> int
val resident_pages : t -> int
val page_bytes : t -> int
val hits : t -> int
val misses : t -> int

(** Hit fraction over all reads so far ([0.] before any read). *)
val hit_rate : t -> float

val evictions : t -> int

(** [demand_hint t] is the pool's current memory demand: resident bytes
    plus the bytes missed since the previous call (unmet demand). Sampled
    periodically by the broker; each call resets the miss window. *)
val demand_hint : t -> int
val pp : Format.formatter -> t -> unit
