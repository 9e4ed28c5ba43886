(* Both trace exporters over one record per [Obs.Event.t] constructor:
   every gateway and grant phase, both mid-tier cache lookup outcomes,
   server-wide records (tid 0) beside query records, and strings that
   need JSON escaping. Printed as the Chrome document followed by the
   JSONL lines, so test/export_all.golden pins every exporter case byte
   for byte, including those no scenario trace ever carries. *)

open Obs.Event

let phases = [ Wait; Acquired; Timeout; Release ]

let events =
  [ ("q1", Compile_begin); ("q1", Compile_alloc { bytes = 4096; usage = 65536 }) ]
  @ List.map
      (fun phase -> ("q1", Gateway { gate = "medium"; phase; priority = 3 }))
      phases
  @ [
      ("q1", Compile_end { peak = 131072 });
      ( "",
        Broker_tick
          {
            pressure = true;
            budget = 1 lsl 30;
            components =
              [
                {
                  comp = "compile";
                  used = 100;
                  predicted = 200;
                  target = 150;
                  verdict = Shrink;
                };
                {
                  comp = "cache";
                  used = 10;
                  predicted = 20;
                  target = 30;
                  verdict = Grow;
                };
              ];
          } );
    ]
  @ List.map (fun phase -> ("q2", Grant { phase; bytes = 8192 })) phases
  @ [
      ("q2", Exec_begin);
      ("q2", Exec_end { granted = 8192; ideal = 16384; spilled = true; pages = 12 });
      ("q2", Spill { bytes = 8192 });
      ("q3", Retry { attempt = 2; pause_s = 0.25; kind = "timeout" });
      ("q3", Degrade { rung = "greedy" });
      ("q3", Cache_hit);
      ("q3", Query_error { kind = "oom \"hard\"\n" });
      ("", Mem { clerk = "compile"; used = 777 });
      ("q4", Oom { clerk = "exec"; requested = 1000; free = 10 });
      ("", Reclaim { wanted = 500; freed = 400 });
      ("", Breaker_open { shard = "t\\7" });
      ("", Breaker_close { shard = "t\\7" });
      ( "",
        Arbiter_tick
          {
            scarce = false;
            total = 4096;
            pools =
              [
                {
                  pool = "victim";
                  pool_used = 1;
                  pool_predicted = 2;
                  pool_budget = 3;
                };
                {
                  pool = "noisy";
                  pool_used = 4;
                  pool_predicted = 5;
                  pool_budget = 6;
                };
              ];
          } );
      ("", Arbiter_reclaim { pool = "noisy"; wanted = 64; freed = 32 });
      ("", Shard_state { shard = "s0"; from_state = "up"; to_state = "down" });
      ( "q5",
        Route { shard = "s1"; template = "t3"; spill = true; hedged = false } );
      ( "",
        Shard_sample
          { shard = "s1"; s_state = 2; s_inflight = 5; s_budget = 3 lsl 20 } );
      ("q6", Midcache_lookup { hit = true; bytes = 2048 });
      ("q7", Midcache_lookup { hit = false; bytes = 0 });
      ("q7", Midcache_store { bytes = 2048; resident = 4096 });
      ("", Midcache_invalidate { relation = "sales"; entries = 3; bytes = 6144 });
      ("", Midcache_shrink { wanted = 1024; freed = 2048 });
      ( "",
        Midcache_sample
          { resident = 4096; mc_budget = 8192; mc_entries = 2; hit_rate_pct = 50 }
      );
      ("", Storm_begin { misses = 40; baseline = 3.5 });
      ("", Storm_end { duration_s = 42.125 });
      ("q8", Singleflight_coalesce { template = "t1"; waiters = 4 });
      ("", Queue_shift { gate = "big"; lifo = true });
      ( "q\"9\t",
        Custom
          {
            cat = "user";
            name = "mark\"er";
            args = [ ("k\n", S "v\001"); ("n", I (-1)); ("f", F 1e-7); ("b", B false) ];
          } );
    ]

(* Records are 0.5 s apart in list order. The slot at 8 s, after the
   retry, the slots at 11.5 s and 12 s, after the reclaim, and at 13.5 s
   and 14 s, after the breaker records, stay empty, so the records after
   them keep the times test/export_all.golden pins. *)
let empty_slots = [ 16; 23; 24; 27; 28 ]

let records =
  Array.of_list
    (List.mapi
       (fun i (qid, event) ->
         let slot =
           List.fold_left (fun s e -> if s >= e then s + 1 else s) i empty_slots
         in
         { Obs.Trace.time = 0.5 *. float_of_int slot; qid; event })
       events)

let () =
  Obs.Export.chrome Format.std_formatter records;
  Obs.Export.jsonl Format.std_formatter records
