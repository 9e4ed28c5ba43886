type value = I of int | F of float | S of string | B of bool
type wait_phase = Wait | Acquired | Timeout | Release

let wait_phase_name = function
  | Wait -> "wait"
  | Acquired -> "acquired"
  | Timeout -> "timeout"
  | Release -> "release"

type broker_verdict = Grow | Stable | Shrink

let verdict_name = function
  | Grow -> "grow"
  | Stable -> "stable"
  | Shrink -> "shrink"

type component_sample = {
  comp : string;
  used : int;
  predicted : int;
  target : int;
  verdict : broker_verdict;
}

type pool_sample = {
  pool : string;
  pool_used : int;
  pool_predicted : int;
  pool_budget : int;
}

type t =
  | Compile_begin
  | Compile_alloc of { bytes : int; usage : int }
  | Compile_end of { peak : int }
  | Gateway of { gate : string; phase : wait_phase; priority : int }
  | Broker_tick of {
      pressure : bool;
      budget : int;
      components : component_sample list;
    }
  | Grant of { phase : wait_phase; bytes : int }
  | Exec_begin
  | Exec_end of { granted : int; ideal : int; spilled : bool; pages : int }
  | Spill of { bytes : int }
  | Retry of { attempt : int; pause_s : float; kind : string }
  | Degrade of { rung : string }
  | Cache_hit
  | Query_error of { kind : string }
  | Mem of { clerk : string; used : int }
  | Oom of { clerk : string; requested : int; free : int }
  | Reclaim of { wanted : int; freed : int }
  | Breaker_open of { shard : string }
  | Breaker_close of { shard : string }
  | Arbiter_tick of {
      scarce : bool;
      total : int;
      pools : pool_sample list;
    }
  | Arbiter_reclaim of { pool : string; wanted : int; freed : int }
  | Shard_state of { shard : string; from_state : string; to_state : string }
  | Route of { shard : string; template : string; spill : bool; hedged : bool }
  | Shard_sample of {
      shard : string;
      s_state : int;
      s_inflight : int;
      s_budget : int;
    }
  | Midcache_lookup of { hit : bool; bytes : int }
  | Midcache_store of { bytes : int; resident : int }
  | Midcache_invalidate of { relation : string; entries : int; bytes : int }
  | Midcache_shrink of { wanted : int; freed : int }
  | Midcache_sample of {
      resident : int;
      mc_budget : int;
      mc_entries : int;
      hit_rate_pct : int;
    }
  | Storm_begin of { misses : int; baseline : float }
  | Storm_end of { duration_s : float }
  | Singleflight_coalesce of { template : string; waiters : int }
  | Queue_shift of { gate : string; lifo : bool }
  | Custom of { cat : string; name : string; args : (string * value) list }

let name = function
  | Compile_begin -> "compile:begin"
  | Compile_alloc _ -> "compile:alloc"
  | Compile_end _ -> "compile:end"
  | Gateway { phase; _ } -> "gateway:" ^ wait_phase_name phase
  | Broker_tick _ -> "broker:tick"
  | Grant { phase; _ } -> "grant:" ^ wait_phase_name phase
  | Exec_begin -> "exec:begin"
  | Exec_end _ -> "exec:end"
  | Spill _ -> "exec:spill"
  | Retry _ -> "resilience:retry"
  | Degrade _ -> "resilience:degrade"
  | Cache_hit -> "resilience:cache_hit"
  | Query_error _ -> "resilience:error"
  | Mem _ -> "mem:sample"
  | Oom _ -> "mem:oom"
  | Reclaim _ -> "mem:reclaim"
  | Breaker_open _ -> "health:breaker_open"
  | Breaker_close _ -> "health:breaker_close"
  | Arbiter_tick _ -> "arbiter:tick"
  | Arbiter_reclaim _ -> "arbiter:reclaim"
  | Shard_state _ -> "shard:state"
  | Route _ -> "shard:route"
  | Shard_sample _ -> "shard:sample"
  | Midcache_lookup { hit; _ } ->
      if hit then "midcache:hit" else "midcache:miss"
  | Midcache_store _ -> "midcache:store"
  | Midcache_invalidate _ -> "midcache:invalidate"
  | Midcache_shrink _ -> "midcache:shrink"
  | Midcache_sample _ -> "midcache:sample"
  | Storm_begin _ -> "storm:begin"
  | Storm_end _ -> "storm:end"
  | Singleflight_coalesce _ -> "storm:coalesce"
  | Queue_shift _ -> "storm:queue_shift"
  | Custom { cat; name; _ } -> cat ^ ":" ^ name

let category = function
  | Custom { cat; _ } -> cat
  | e ->
      let n = name e in
      String.sub n 0 (String.index n ':')
