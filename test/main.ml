let () =
  Alcotest.run "pgcc"
    (Test_word.suite @ Test_instr.suite @ Test_bitio.suite @ Test_huffman.suite
   @ Test_prog.suite @ Test_minic.suite @ Test_squeeze.suite @ Test_profile.suite @ Test_profile_ops.suite @ Test_squash.suite @ Test_cold.suite @ Test_workloads.suite @ Test_report.suite @ Test_easm.suite @ Test_unswitch.suite @ Test_runtime.suite @ Test_interp.suite @ Test_props.suite @ Test_mclib.suite @ Test_more.suite @ Test_cfg.suite @ Test_asm.suite @ Test_vm.suite @ Test_pipeline.suite
   @ Test_regions.suite @ Test_engine.suite @ Test_obs.suite
   @ Test_analysis.suite @ Test_buffer_safe.suite @ Test_verify.suite
   @ Test_coder.suite @ Test_benchdiff.suite @ Test_equiv.suite
   @ Test_cli.suite)
