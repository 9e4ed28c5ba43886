(** Reference page replacement policies: the differential oracle for
    [Bufpool.Policy], which must pick the same victims in the same order.

    Pages are identified by [(table, page_no)] pairs of ints. Three classic
    policies are provided; the buffer pool takes the choice as a parameter
    (ablated in the benchmarks: the paper's effect is robust to the
    replacement policy, it is the pool's {e size} that matters). *)

type page = int * int

type kind = Lru | Clock | Lru2

type t

val create : kind -> t

(** [insert t p] makes [p] resident (must not already be). *)
val insert : t -> page -> unit

(** [touch t p] records a hit on a resident page (no-op if absent). *)
val touch : t -> page -> unit

(** [mem t p] — residency test. *)
val mem : t -> page -> bool

(** [evict t] removes and returns the policy's victim, if any page is
    resident. *)
val evict : t -> page option

val size : t -> int

(** Internal bookkeeping entries currently held (queue/ring/heap length,
    including lazily-cleaned stale ones). Kept within a constant factor
    of {!size} by periodic compaction — exposed so tests can pin that
    bound. *)
val backlog : t -> int

val kind : t -> kind
