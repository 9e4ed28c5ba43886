(** The mixed-traffic mid-tier cache experiment.

    One server under a blend of parameterized (replayed-verbatim,
    cacheable) and ad-hoc (uniquified, cache-defeating) SALES traffic,
    with a {!Midcache} statement/result cache in front of {!Dbms.submit}
    in one of three modes:

    - {!Cache_off}: every request goes to the engine — the paper's
      regime, the baseline;
    - {!Cache_fixed}: the cache holds a fixed byte budget. Its footprint
      is charged to a real memory clerk, so it squeezes the engine's
      caches and workspaces, but it never answers to the broker;
    - {!Cache_brokered}: same cache registered as a first-class broker
      component (demand hint, shrink-to-target on [Must_shrink]), so
      under memory pressure the cache gives its
      bytes back and traffic falls through to the compile gateways.

    An optional memory ballast reproduces the paper's contention regime
    on demand: the interesting read is brokered-mode throughput degrading
    gracefully (cache shrinks, hit rate sags, gateways absorb the
    fall-through) where fixed mode collapses. *)

type mode = Cache_off | Cache_fixed | Cache_brokered

val mode_name : mode -> string

type config = {
  k_mode : mode;
  k_clients : int;
  k_think : float;
  k_ratio : float;  (** parameterized fraction of the traffic, [0..1] *)
  k_variants : int;  (** distinct parameterized statements *)
  k_writers : int;  (** writer sessions driving invalidation *)
  k_write_think : float;
  k_warmup : float;
  k_measure : float;
  k_slice : float;
  k_memory : int;  (** machine bytes *)
  k_cache_bytes : int;  (** fixed budget / brokered cap *)
  k_ttl : float;  (** entry lifetime; [<= 0.] disables expiry *)
  k_hit_latency : float;
  k_ballast_gib : float;  (** [0.] = no injected pressure *)
  k_diurnal : Workload.Mix.diurnal option;
  k_flash : Workload.Mix.flash list;
  k_seed : int;
}

val default_config : config

(** Raises [Invalid_argument] on nonsensical parameters. *)
val validate : config -> unit

(** Plain data in, plain data out: an outcome is a pure function of the
    config, safe to fan out across domains and compare byte-for-byte. *)
type outcome = {
  o_config : config;
  slices : (float * float) array;  (** completions per slice *)
  mean_per_slice : float;
  completed : int;  (** successes inside the measure window *)
  requests : int;
  hits : int;
  misses : int;
  bypasses : int;
  stores : int;
  refused : int;
  evictions : int;
  expired : int;
  invalidated : int;
  cache_hit_rate : float;
  shrink_events : int;  (** broker-driven shrinks (Obs Midcache_shrink) *)
  shrink_freed : int;
  resident_end : int;
  resident_peak : int;
  budget_end : int;
  gw_acquires : int;  (** compile-gateway admissions, all monitors *)
  gw_timeouts : int;
  gw_wait_mean_s : float;
  compiles : int;  (** engine-side completions (misses + bypasses) *)
  plan_hits : int;  (** in-engine plan-cache hits *)
  compile_peak_max : float;
  compile_peak_mean : float;
  ooms : int;
  p50_ms : float;
  p99_ms : float;
  cl_submitted : int;
  cl_succeeded : int;
  cl_abandoned : int;
  writes : int;
  inv_entries : int;
}

val run : ?trace:Obs.Trace.t -> config -> outcome

(** [uplift ~over base] — [mean_per_slice] ratio, [0.] on an empty
    baseline. *)
val uplift : outcome -> over:outcome -> float
