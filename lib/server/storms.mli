(** The metastable-failure experiment: cold-cache storms with the
    defense stack on versus off.

    One engine hosts [s_shards] full servers behind a {!Router}; a
    trigger — a crash-restart that rejoins cold ([Cold_crash]) or an
    in-place flush of every plan cache ([Mass_invalidation]) — turns the
    whole parameterized working set into simultaneous compiles. Without
    defenses the recompilation storm feeds on itself: every client
    compiles the same templates, retries amplify the arrival rate, and
    throughput can stay collapsed long after the caches could have been
    warm again. The defended arm runs {!Config.defended}: compile
    singleflight, per-client retry budgets, adaptive gateway queues
    (FIFO->LIFO) and warm-priming on rejoin; its storm detector counts
    the storm episodes the report prints.

    The headline numbers are {!outcome.recovery_s} (time back to 90% of
    the pre-trigger rate), {!outcome.retry_amp} (router attempts per
    distinct client query) and {!outcome.dup_compiles} (compiles of a
    statement already being compiled) — measured identically in both
    arms, because singleflight observes duplicates even when coalescing
    is off. *)

type schedule =
  | Cold_crash
      (** shard 1 crashes a quarter into the window and rejoins cold
          after 15% of it *)
  | Mass_invalidation
      (** every shard's plan cache is flushed in place — a stampede with
          no capacity loss *)

val schedule_name : schedule -> string

type config = {
  s_shards : int;
  s_clients : int;
  s_variants : int;  (** parameterized templates in the workload *)
  s_think : float;
  s_warmup : float;
  s_measure : float;
  s_slice : float;
  s_total : int;  (** machine bytes, split [total/shards] *)
  s_defenses : bool;  (** the A/B axis: {!Config.defended} when true *)
  s_seed : int;
  s_schedule : schedule;
}

val default_config : config
(** 3 shards, 160 clients, 96 variants, 24 GiB machine, defenses on,
    mass-invalidation, seed 42. The machine is sized so execution memory
    grants clear quickly and the compile path is the binding constraint
    — the regime the paper's premise (compilation is the scarce
    resource) puts the storm in. *)

(** When the trigger fires ([warmup + 0.25 * measure]). *)
val fault_at : config -> float

(** The {!Config.defense} this config's arm runs: {!Config.defended}
    with [s_defenses = true], else {!Config.no_defense}. The record is
    one switch, so the arm's whole stack follows [s_defenses]; its
    [d_budget] is also each client's retry budget. *)
val defense_of : config -> Config.defense

type shard_report = {
  sr_name : string;
  sr_state : string;
  sr_crashes : int;
  sr_recompiles : int;  (** plan-cache misses since rejoin *)
  sr_cache_hit : float;
  sr_storms : int;  (** storm episodes the detector flagged *)
  sr_primed : int;  (** templates warm-primed on rejoin *)
  sr_sf_led : int;  (** singleflight leaders (real compiles) *)
  sr_sf_coalesced : int;  (** followers who waited instead of compiling *)
  sr_sf_dup : int;
      (** compiles performed while a flight for the same canonical
          statement was already open — the storm's wasted work *)
}

type outcome = {
  o_config : config;
  slices : (float * float) array;  (** completions per slice, window only *)
  pre_rate : float;  (** mean completions/slice before the trigger *)
  post_rate : float;  (** mean completions/slice after the trigger *)
  recovery_s : float;
      (** time from the trigger until the earliest slice from which the
          rest of the window sustains 90% of [pre_rate]; [infinity] if
          the run never got there *)
  recovered : bool;  (** [recovery_s] is finite *)
  retry_amp : float;
      (** router attempts per distinct client query — 1.0 means nothing
          was ever resubmitted *)
  dup_compiles : int;  (** sum of [sr_sf_dup] across shards *)
  coalesced : int;
  storms_detected : int;
  primed : int;
  lifo_shifts : int;  (** gateway FIFO->LIFO queue flips *)
  budget_denials : int;  (** retries refused by empty token buckets *)
  submitted : int;
  ok : int;
  failed : int;
  rejected : int;
  retries : int;
  in_flight_at_stop : int;
  p50_ms : float;
  p99_ms : float;
  cl_submitted : int;
  cl_succeeded : int;
  cl_abandoned : int;
  shard_reports : shard_report list;
}

(** Raises [Invalid_argument] on nonsensical configs (fewer than 2
    shards, under 64 MiB per shard, empty windows...). *)
val validate : config -> unit

(** Run one cell. Plain data in and out (no closures), so cells fan out
    over {!Parallel.Pool} and outcomes survive marshalling.
    Deterministic: a pure function of the config. *)
val run : ?trace:Obs.Trace.t -> config -> outcome

(** Did the defended arm get back to the healthy rate strictly faster?
    An arm that never recovered compares as infinitely slow. *)
val faster_recovery : defended:outcome -> undefended:outcome -> bool
