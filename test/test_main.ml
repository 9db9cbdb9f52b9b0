let () =
  Alcotest.run "ariesrh"
    [
      ("util", Test_util.suite);
      ("small", Test_small.suite);
      ("wal", Test_wal.suite);
      ("storage", Test_storage.suite);
      ("backend", Test_backend.suite);
      ("lock", Test_lock.suite);
      ("txn", Test_txn.suite);
      ("recovery", Test_recovery.suite);
      ("db", Test_db.suite);
      ("eos", Test_eos.suite);
      ("etm", Test_etm.suite);
      ("workload", Test_workload.suite);
      ("introspection", Test_introspection.suite);
      ("model", Test_model.suite);
      ("model-based", Test_model_based.suite);
      ("properties", Test_properties.suite);
      ("fault", Test_fault.suite);
      ("governor", Test_governor.suite);
      ("obs", Test_obs.suite);
      ("perf", Test_perf.suite);
      ("known-bugs", Test_known_bugs.suite);
      ("media", Test_media.suite);
      ("temporal", Test_temporal.suite);
      ("shard", Test_shard.suite);
      ("on-demand", Test_on_demand.suite);
      ("golden", Test_golden.suite);
    ]
