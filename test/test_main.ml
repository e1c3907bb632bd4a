(** Test-suite entry point for every layer but [tools] and [interp].

    The paper's testing infrastructure (§2.4) runs a corpus of micro
    programs plus per-abstraction unit tests; here the suites are grouped
    per layer and run under alcotest ([dune runtest]).  The two longest
    suites have executables of their own ([tools_main.ml],
    [interp_main.ml]) so that dune runs the three in parallel.  A
    sequential driver script is generated by
    [bench/main.exe --emit-test-script], mirroring the paper's optional
    bash fallback. *)

let () =
  Alcotest.run "noelle-repro"
    [
      ("ir", Test_ir.suite);
      ("obs", Test_obs.suite);
      ("minic", Test_minic.suite);
      ("noelle", Test_noelle.suite @ Test_noelle.suite_extra);
      ("psim", Test_psim.suite);
      ("pipeline", Test_pipeline.suite);
      ("check", Test_check.suite);
      ("trust", Test_trust.suite);
      ("telemetry", Test_telemetry.suite);
      ("fuzz", Test_fuzz.suite);
      ("sparse", Test_sparse.suite);
      ("bounds", Test_bounds.suite);
      ("serve", Test_serve.suite);
      ("harness", Test_harness.suite);
      ("analyze", Test_analyze.suite);
    ]
