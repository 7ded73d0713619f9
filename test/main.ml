let () =
  Alcotest.run "dpower"
    (Test_util.suites @ Test_affine.suites @ Test_ir.suites @ Test_lang.suites
   @ Test_dependence.suites @ Test_polyhedra.suites @ Test_layout.suites
   @ Test_restructure.suites @ Test_trace.suites @ Test_faults.suites
   @ Test_repair.suites @ Test_disksim.suites @ Test_oracle.suites @ Test_cache.suites @ Test_cachefs.suites
   @ Test_workloads.suites
   @ Test_harness.suites @ Test_obs.suites @ Test_pipeline.suites @ Test_serve.suites
   @ Test_chaos.suites @ Test_kernel.suites @ Test_cli.suites)
