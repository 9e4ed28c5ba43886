(** Structured resource-error taxonomy.

    Every way a query can fail for resource reasons in the simulated server
    gets one code here, mirroring the SQL Server errors the paper's
    mechanism surfaces in production: 701 (insufficient memory to run),
    8645 (timeout waiting for a memory resource) and 8651 (could not get
    the requested memory under low-memory conditions). The routing
    layer's refusals (downed shards, spent retry budgets) get codes too,
    so that {e every} failure is accounted for — no anonymous errors. *)

type code =
  | Insufficient_memory
      (** compile-time allocation failed outright — SQL Server 701 *)
  | Memory_wait_timeout
      (** timed out queued for a memory resource (a compilation gateway or
          the workspace-grant queue) — SQL Server 8645 *)
  | Low_memory_condition
      (** the requested workspace grant could not be produced under
          low-memory conditions — SQL Server 8651 *)
  | Shard_unavailable
      (** the shard holding this query's placement is down (or its
          connection was lost mid-flight when the shard crashed) — a
          routing-layer condition, retryable against a surviving shard *)
  | Retry_budget_exhausted
      (** the client's retry token bucket is empty: retry load is capped at
          a fixed fraction of goodput, so during an outage further retries
          fail fast here instead of amplifying the storm *)

type severity = Severe | Informational

type t = { code : code; detail : string }
(** [detail] names the failing resource (gateway name, clerk, template). *)

val make : ?detail:string -> code -> t

val all_codes : code list
(** Every code, in fixed report order. *)

val code_name : code -> string
(** Stable machine-readable name, e.g. ["memory-wait-timeout"]. *)

val sql_code : code -> int option
(** The SQL Server error number the code mirrors, if any. *)

val severity : code -> severity
(** 701/8645/8651 are [Severe]; lost shards and an empty retry
    budget are [Informational] back-pressure, not failures of the
    engine. *)

val retryable : code -> bool
(** Whether a client retry has a reasonable chance: resource waits and
    back-pressure are retryable; an empty retry budget is not (the
    query's budget is gone). *)

val severity_name : severity -> string

val to_string : t -> string
(** One-line rendering: ["8645 memory-wait-timeout (big)"]. *)
