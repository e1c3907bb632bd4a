(** Test entry point for the [tools] suite, the corpus semantics of every
    tool and the longest suite, the [versions] suite, which runs the
    tools under the version oracle, and the [cli] suite, which runs the
    command-line tools as built executables. *)

let () =
  Alcotest.run "noelle-repro-tools"
    [ ("tools", Test_tools.suite @ Test_tools.suite_extra); ("versions", Test_versions.suite);
      ("cli", Test_cli.suite) ]
