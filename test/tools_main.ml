(** Test entry point for the [tools] suite, the corpus semantics of every
    tool and the longest suite, and the [versions] suite, which runs the
    tools under the version oracle. *)

let () =
  Alcotest.run "noelle-repro-tools"
    [ ("tools", Test_tools.suite @ Test_tools.suite_extra); ("versions", Test_versions.suite) ]
