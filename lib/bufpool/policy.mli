(** Page replacement policies.

    A page is one int key; {!Pool} packs [(table, page_no)] into it.
    Three classic policies are provided; the buffer pool takes the choice
    as a parameter (ablated in the benchmarks: the paper's effect is
    robust to the replacement policy, it is the pool's {e size} that
    matters). Per-page state lives in flat slot columns behind an int
    open-addressing index, so {!touch} and {!evict} allocate nothing. *)

type kind = Lru | Clock | Lru2

type t

val create : kind -> t

(** [insert t p] makes [p] resident. Raises [Invalid_argument] if it
    already is. *)
val insert : t -> int -> unit

(** [touch t p] records a hit on [p] if it is resident and returns
    whether it was. *)
val touch : t -> int -> bool

(** [mem t p] — residency test. *)
val mem : t -> int -> bool

(** [evict t] removes and returns the policy's victim, or [-1] when no
    page is resident. *)
val evict : t -> int

val size : t -> int
val kind : t -> kind
