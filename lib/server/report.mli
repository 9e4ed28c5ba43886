(** Plain-text rendering of experiment output: aligned tables, the
    throttled-vs-unthrottled series of Figures 3-5, and unicode sparklines
    for a quick visual read of each curve. *)

(** [table ~header rows] prints an aligned table to stdout. *)
val table : header:string list -> string list list -> unit

(** [sparkline values] renders values as a unicode bar string. *)
val sparkline : float array -> string

(** Print the two completions-per-slice series of a figure, slice by
    slice, followed by sparklines and the mean uplift. *)
val figure_series :
  title:string ->
  throttled:(float * float) array ->
  unthrottled:(float * float) array ->
  unit

(** One-line summary row for a result (used by the sweep tables). *)
val result_row : Experiment.result -> string list

val result_header : string list

(** Print the resilience table for a set of results, followed by the
    per-error-kind tallies of any result that recorded errors. *)
val resilience_section : Experiment.result list -> unit

(** {1 Multi-tenant reports} *)

(** Print one outcome: mode banner, per-pool table, per-pool throughput
    sparklines, and the arbiter's tick/rebalance/moved/reclaimed
    counters when the mode ran one. *)
val tenants_section : Tenants.outcome -> unit

(** {1 Sharded reports} *)

(** Print one outcome: schedule banner, per-shard retention table,
    completions sparkline, router and arbiter counters. With [baseline]
    (the same seed's no-fault outcome) a throughput-retention line is
    appended. *)
val shards_section : ?baseline:Shards.outcome -> Shards.outcome -> unit

(** {1 Storm (metastable failure) reports} *)

(** Print one arm: trigger banner, per-shard table, completions
    sparkline, the pre/post rates with the recovery verdict, and the
    storm counters (amplification, duplicate compiles, defenses). *)
val storms_section : Storms.outcome -> unit

(** The head-to-head line: recovery times, amplification and duplicate
    compiles, defenses on vs off, and which arm won. *)
val storms_verdict : defended:Storms.outcome -> undefended:Storms.outcome -> unit

(** {1 Mid-tier cache reports} *)

(** Print one outcome: mode banner, request accounting (hits / misses /
    bypasses), cache residency and staleness counters, compile-gateway
    pressure, and the completions sparkline. With [baseline] (the same
    seed's cache-off outcome) a throughput-uplift line is appended. *)
val cached_section : ?baseline:Cached.outcome -> Cached.outcome -> unit

(** Side-by-side summary table of the three modes plus the headline
    comparison lines (uplift over cache-off, gateway-admission drop,
    broker shrink activity). *)
val cached_comparison : Cached.outcome list -> unit
