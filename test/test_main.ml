let () =
  Alcotest.run "dbsim"
    [
      ("sim", Test_sim.suite);
      ("dbmem", Test_dbmem.suite);
      ("qcore", Test_qcore.suite);
      ("relation", Test_relation.suite);
      ("rowexec", Test_rowexec.suite);
      ("optimizer", Test_optimizer.suite);
      ("bufpool", Test_bufpool.suite);
      ("plancache", Test_plancache.suite);
      ("execsim", Test_execsim.suite);
      ("workload", Test_workload.suite);
      ("server", Test_server.suite);
      ("obs", Test_obs.suite);
      ("trace", Test_trace.suite);
      ("fuzz", Test_fuzz.suite);
      ("chaos", Test_chaos.suite);
      ("health", Test_health.suite);
      ("misc", Test_misc.suite);
      ("parallel", Test_parallel.suite);
      ("shards", Test_shards.suite);
      ("midcache", Test_midcache.suite);
      ("storms", Test_storms.suite);
      ("ladder", Test_ladder.suite);
    ]
