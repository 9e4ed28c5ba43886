(** One-shot fan-out of independent work over domains.

    The calls are typically whole simulation cells, each with its own
    engine, RNG and metrics. Results come back in submission order, so a
    caller that prints them as they come out observes exactly the
    sequential output. Built on [Domain] and [Atomic] from the OCaml 5
    standard library; no external dependencies.

    Work items must be independent: they must not share mutable state
    with each other or with the caller. Read-only structures (a catalog,
    a template list) may be shared freely. *)

(** [default_jobs ()] — the [DBSIM_JOBS] environment variable when set to
    a positive integer, otherwise [Domain.recommended_domain_count ()]. *)
val default_jobs : unit -> int

(** [run ~jobs f items] applies [f] to every item on [jobs] domains in
    total: the calling domain works next to [jobs - 1] spawned ones (never
    more than there are items), each taking the next unclaimed item, and
    all of them are joined before [run] returns. Results come back in
    submission order. If any call raises, the exception of the
    earliest-submitted failing item is re-raised after every item has
    settled. With [jobs = 1], or at most one item, it is [List.map f
    items] on the calling domain, spawning nothing. Raises
    [Invalid_argument] on [jobs < 1]. *)
val run : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
