let () =
  Alcotest.run "siesta"
    [
      ("util", Test_util.suite);
      ("obs", Test_obs.suite);
      ("parallel", Test_parallel.suite);
      ("numerics", Test_numerics.suite);
      ("platform", Test_platform.suite);
      ("perf", Test_perf.suite);
      ("engine", Test_engine.suite);
      ("engine-timing", Test_engine_timing.suite);
      ("trace", Test_trace.suite);
      ("streaming", Test_streaming.suite);
      ("grammar", Test_grammar.suite);
      ("merge", Test_merge.suite);
      ("merge-mains", Test_merge_mains.suite);
      ("blocks", Test_blocks.suite);
      ("synth", Test_synth.suite);
      ("codegen", Test_codegen.suite);
      ("proxy-search", Test_proxy_search_deep.suite);
      ("workloads", Test_workloads.suite);
      ("workload-structure", Test_workload_structure.suite);
      ("baselines", Test_baselines.suite);
      ("analysis", Test_analysis.suite);
      ("fidelity", Test_fidelity.suite);
      ("comm-check", Test_comm_check.suite);
      ("extrapolate", Test_extrapolate.suite);
      ("core", Test_core.suite);
      ("store", Test_store.suite);
      ("ledger", Test_ledger.suite);
      ("sweep", Test_sweep.suite);
      ("serve", Test_serve.suite);
      ("final-coverage", Test_final_coverage.suite);
      ("golden", Test_golden.suite);
    ]
