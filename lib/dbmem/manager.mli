(** Physical memory manager with per-subcomponent accounting.

    Every DBMS subcomponent allocates through a {e clerk} (the SQL Server
    term): the manager tracks per-clerk usage and enforces the global
    physical budget. Caches (buffer pool, plan cache) additionally register
    as {e donors}: when a non-cache allocation does not fit, the manager
    synchronously asks donors — in priority order — to shrink, modelling how
    a DBMS steals cache pages to satisfy demand. If donors cannot free
    enough, the allocation fails with out-of-memory, exactly the failure
    mode the paper's throttling is designed to avoid. *)

type t
type clerk

exception Out_of_memory of { clerk : string; requested : int; free : int }

(** [create ~total ()] manages a budget of [total] bytes. *)
val create : total:int -> unit -> t

val total : t -> int
val used : t -> int

(** Unreserved bytes remaining in the budget. Negative while the manager
    is over-committed after a {!set_total} shrink. *)
val available : t -> int

(** [set_total t n] resizes the physical budget (the tenant arbiter's
    lever). Growing takes effect immediately; shrinking below current
    usage leaves the manager over-committed — allocations fail — until
    components free memory or {!demand}[ t 0] reclaims the overage
    through the registered donors. *)
val set_total : t -> int -> unit

(** {1 Clerks} *)

(** [create_clerk t name] registers a new accounting clerk. Names need not
    be unique but should be, for readable snapshots. *)
val create_clerk : t -> string -> clerk

val clerk_name : clerk -> string
val clerk_used : clerk -> int

(** High-water mark since creation or the last {!reset_peak}. *)
val clerk_peak : clerk -> int

val reset_peak : clerk -> unit

(** [alloc clerk n] reserves [n] bytes, shrinking donors if needed.
    [Error `Out_of_memory] leaves all accounting unchanged (donor shrinkage
    excepted — pages already evicted stay evicted, as in a real engine). *)
val alloc : clerk -> int -> (unit, [ `Out_of_memory ]) result

(** Like {!alloc} but raises {!Out_of_memory}. *)
val alloc_exn : clerk -> int -> unit

(** [free clerk n] releases [n] bytes ([n] may not exceed the clerk's
    usage). *)
val free : clerk -> int -> unit

(** Release everything the clerk holds. *)
val free_all : clerk -> unit

(** {1 Donors} *)

(** [register_donor t ~clerk ~priority ~shrink] marks [clerk]'s component as
    shrinkable. [shrink n] must make a best effort to release [n] bytes
    (through {!free}) and return the number actually released. Donors with
    smaller [priority] are asked first. *)
val register_donor :
  t -> clerk:clerk -> priority:int -> shrink:(int -> int) -> unit

(** [demand t n] asks donors to free until [free t >= n]; returns the bytes
    actually reclaimed. Used by components that want room without
    allocating yet. *)
val demand : t -> int -> int

(** {1 Tracing} *)

(** [set_trace t ~now trace] records OOM and donor-reclaim events into
    [trace], timestamped by the [now] callback ([dbmem] has no clock of
    its own — pass [fun () -> Sim.Engine.now eng]). *)
val set_trace : t -> now:(unit -> float) -> Obs.Trace.t -> unit

(** {1 Fault injection} *)

(** [set_alloc_fault t (Some f)] makes {!alloc} fail (before any donor
    shrink or accounting change) whenever [f clerk_name bytes] is [true] —
    a transient commit-path failure. [None] clears the fault. *)
val set_alloc_fault : t -> (string -> int -> bool) option -> unit

(** {1 Introspection} *)

(** [(clerk_name, used_bytes)] for every clerk, in creation order. *)
val snapshot : t -> (string * int) list

val clerks : t -> clerk list
val find_clerk : t -> string -> clerk option
val oom_count : t -> int
val pp : Format.formatter -> t -> unit
