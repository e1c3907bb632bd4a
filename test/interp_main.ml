(** Test entry point for the [interp] suite: the interpreter against its
    test-only oracle over kernels, fuzz seeds and plants. *)

let () = Alcotest.run "noelle-repro-interp" [ ("interp", Test_interp.suite) ]
