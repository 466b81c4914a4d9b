let () =
  Alcotest.run "epic"
    [
      ("isa", Test_isa.suite);
      ("config", Test_config.suite);
      ("encoding", Test_encoding.suite);
      ("cfront", Test_cfront.suite);
      ("mir", Test_mir.suite);
      ("workloads", Test_workloads.suite);
      ("opt", Test_opt.suite);
      ("analyses", Test_analyses.suite);
      ("pipeline", Test_pipeline.suite);
      ("mdes", Test_mdes.suite);
      ("area", Test_area.suite);
      ("asm", Test_asm.suite);
      ("backend", Test_backend.suite);
      ("extensions", Test_extensions.suite);
      ("more", Test_more.suite);
      ("fault", Test_fault.suite);
      ("profile", Test_profile.suite);
      ("exec", Test_exec.suite);
      ("difftest", Test_difftest.suite);
      ("serve", Test_serve.suite);
      ("engine", Test_engine.suite);
      ("explore", Test_explore.suite);
    ]
