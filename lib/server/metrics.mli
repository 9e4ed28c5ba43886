(** Server-wide measurement: everything the paper's evaluation reports.

    Successful completions are an event series later bucketed into
    completions-per-time-slice (Figures 3-5); errors are counted by
    structured {!Health.Error.code} (the taxonomy the health report and
    error-budget table print), so no failure is ever anonymous;
    compile/execute durations and compile memory peaks feed the in-text
    claims; per-clerk memory is sampled periodically for the
    Figure-2-style memory traces. *)

(** Back-pressure refusals (downed shards, spent retry budgets —
    the [Informational] severity) are deliberate; all other codes are
    hard resource failures. *)
val is_hard_error : Health.Error.code -> bool

type t

val create : Sim.Engine.t -> t

(** Record one successful query completion (now). *)
val record_completion : t -> compile_s:float -> exec_s:float -> unit

val record_error : t -> Health.Error.code -> unit
val record_compile_peak : t -> int -> unit
val record_cache_hit : t -> unit

(** One server-side retry of a query after a transient resource error. *)
val record_retry : t -> unit

(** One completion that went through the degradation ladder (greedy
    fallback plan instead of full search). *)
val record_degraded : t -> unit

(** Start sampling the given clerks every [interval] seconds. Each sample
    is also recorded into [trace] (as an {!Obs.Event.Mem}) when given. *)
val watch_memory :
  ?trace:Obs.Trace.t ->
  t ->
  interval:float ->
  (string * Dbmem.Manager.clerk) list ->
  unit

(** {1 Reading} *)

val completions : t -> Sim.Series.t

(** Completions with [start <= t < stop], bucketed by [width] seconds. *)
val throughput :
  t -> start:float -> stop:float -> width:float -> (float * float) array

val total_completions : t -> ?since:float -> unit -> int

(** Per-code counters, every code of the taxonomy in fixed order. *)
val errors : t -> (Health.Error.code * int) list

val error_count : t -> Health.Error.code -> int
val total_errors : t -> int
val cache_hits : t -> int
val retries : t -> int
val degraded : t -> int
val compile_time : t -> Sim.Stats.Online.t
val exec_time : t -> Sim.Stats.Online.t
val compile_peak : t -> Sim.Stats.Online.t

(** Sampled memory series per watched clerk name. *)
val memory_series : t -> (string * Sim.Series.t) list

val pp : Format.formatter -> t -> unit
