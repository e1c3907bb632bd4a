(** Test entry point for the [tools] suite: the corpus semantics of every
    tool, the longest suite. *)

let () = Alcotest.run "noelle-repro-tools" [ ("tools", Test_tools.suite @ Test_tools.suite_extra) ]
