(** Differential fuzzing over generated micro programs (§2.4).

    Programs from {!Bsuite.Generator} are safe by construction, so every
    property can demand clean execution, a verifier pass, and bit-identical
    output after each transformation.  This is the reproduction of NOELLE's
    regression-test corpus: hundreds of machine-generated micro programs
    covering the code patterns the benchmark suites exhibit. *)

open Helpers

let fuel = 3_000_000

let compile_seed ?cfg seed =
  let src = Bsuite.Generator.program ?cfg seed in
  match Minic.Lower.compile ~name:(Printf.sprintf "fuzz%d" seed) src with
  | m -> (src, m)
  | exception e ->
    Alcotest.failf "seed %d failed to compile (%s):\n%s" seed
      (Printexc.to_string e) src

let reference seed =
  let src, m = compile_seed seed in
  match output ~fuel m with
  | out -> (src, out)
  | exception e ->
    Alcotest.failf "seed %d failed to run (%s):\n%s" seed (Printexc.to_string e) src

(** Run [transform] on a fresh module for each seed and compare outputs. *)
let differential ~name ~seeds transform =
  List.iter
    (fun seed ->
      let src, expected = reference seed in
      let _, m = compile_seed seed in
      (try transform m
       with e ->
         Alcotest.failf "seed %d: %s raised %s\n%s" seed name (Printexc.to_string e) src);
      (match Ir.Verify.check m with
      | Ok () -> ()
      | Error e -> Alcotest.failf "seed %d: %s broke the verifier: %s\n%s" seed name e src);
      let got =
        try output ~fuel m
        with e ->
          Alcotest.failf "seed %d: %s broke execution (%s)\n%s" seed name
            (Printexc.to_string e) src
      in
      if not (String.equal expected got) then
        Alcotest.failf "seed %d: %s changed the output (%s -> %s)\n%s" seed name
          expected got src)
    seeds

let seeds n = List.init n (fun i -> i + 1)

let test_generated_programs_run () =
  (* generation + compilation + execution is total over many seeds *)
  List.iter (fun s -> ignore (reference s)) (seeds 60)

let test_roundtrip () =
  List.iter
    (fun seed ->
      let _, m = compile_seed seed in
      let txt = Ir.Printer.module_str m in
      let m2 = Ir.Parser.parse_module txt in
      checks (Printf.sprintf "seed %d reprints identically" seed) txt
        (Ir.Printer.module_str m2))
    (seeds 40)

let test_licm () =
  differential ~name:"LICM" ~seeds:(seeds 30) (fun m ->
      let n = Noelle.create m in
      ignore (Ntools.Licm.run n m))

let test_licm_llvm () =
  differential ~name:"LICM-baseline" ~seeds:(seeds 30) (fun m ->
      ignore (Ntools.Licm_llvm.run m))

let test_rotate () =
  differential ~name:"rotate" ~seeds:(seeds 30) (fun m ->
      List.iter
        (fun f ->
          let nest = Ir.Loopnest.compute f in
          List.iter
            (fun l ->
              let ls = Noelle.Loopstructure.of_loop f l in
              ignore (Noelle.Loopbuilder.rotate f ls))
            nest.Ir.Loopnest.loops)
        (Ir.Irmod.defined_functions m))

let test_peel () =
  differential ~name:"peel" ~seeds:(seeds 30) (fun m ->
      List.iter
        (fun f ->
          let nest = Ir.Loopnest.compute f in
          match nest.Ir.Loopnest.loops with
          | l :: _ ->
            let ls = Noelle.Loopstructure.of_loop f l in
            ignore (Noelle.Loopbuilder.peel_first f ls)
          | [] -> ())
        (Ir.Irmod.defined_functions m))

let test_scheduler () =
  differential ~name:"scheduler" ~seeds:(seeds 30) (fun m ->
      let n = Noelle.create m in
      List.iter
        (fun f ->
          let sched = Noelle.scheduler n f in
          List.iter
            (fun bid ->
              Noelle.Scheduler.schedule_block sched bid ~priority:(fun i ->
                  - i.Ir.Instr.id))
            (Ir.Func.blocks f))
        (Ir.Irmod.defined_functions m))

let test_time_squeezer () =
  differential ~name:"time-squeezer" ~seeds:(seeds 20) (fun m ->
      let n = Noelle.create m in
      ignore (Ntools.Timesqueezer.run n m))

let test_coos () =
  (* COOS adds runtime calls; execution needs the tool runtime *)
  List.iter
    (fun seed ->
      let src, expected = reference seed in
      let _, m = compile_seed seed in
      let n = Noelle.create m in
      ignore (Ntools.Coos.run n m ~budget:300 ());
      (match Ir.Verify.check m with
      | Ok () -> ()
      | Error e -> Alcotest.failf "seed %d: coos broke verifier: %s\n%s" seed e src);
      let _, out, _, rt = run_toolrt ~fuel m in
      checks (Printf.sprintf "seed %d: coos output" seed) expected (String.trim out);
      checkb "callbacks fired" (rt.Ntools.Toolrt.callbacks >= 0L))
    (seeds 20)

let test_carat () =
  (* CARAT adds runtime calls; execution needs the tool runtime *)
  List.iter
    (fun seed ->
      let src, expected = reference seed in
      let _, m = compile_seed seed in
      let n = Noelle.create m in
      ignore (Ntools.Carat.run n m);
      (match Ir.Verify.check m with
      | Ok () -> ()
      | Error e -> Alcotest.failf "seed %d: carat broke verifier: %s\n%s" seed e src);
      let _, out, _, rt = run_toolrt ~fuel m in
      checks (Printf.sprintf "seed %d: carat output" seed) expected (String.trim out);
      checkb "no faults" (Int64.equal rt.Ntools.Toolrt.guard_faults 0L))
    (seeds 20)

let parallel_differential ~name apply =
  List.iter
    (fun seed ->
      let src, expected = reference seed in
      let _, m = compile_seed seed in
      let p, _ = Noelle.Profiler.run ~fuel m in
      Noelle.Profiler.embed p m;
      let n = Noelle.create m in
      (try apply n m
       with e ->
         Alcotest.failf "seed %d: %s raised %s\n%s" seed name (Printexc.to_string e) src);
      (match Ir.Verify.check m with
      | Ok () -> ()
      | Error e -> Alcotest.failf "seed %d: %s broke verifier: %s\n%s" seed name e src);
      let got, _ =
        try run_parallel ~fuel:(4 * fuel) m
        with e ->
          Alcotest.failf "seed %d: %s broke execution (%s)\n%s" seed name
            (Printexc.to_string e) src
      in
      if not (String.equal expected got) then
        Alcotest.failf "seed %d: %s changed output (%s -> %s)\n%s" seed name expected
          got src)
    (seeds 25)

let test_doall_fuzz () =
  (* profitability thresholds off: transform everything transformable *)
  parallel_differential ~name:"DOALL" (fun n m ->
      ignore (Ntools.Doall.run n m ~ncores:4 ~min_hotness:0.0 ~min_work:0.0 ()))

let test_helix_fuzz () =
  parallel_differential ~name:"HELIX" (fun n m ->
      ignore (Ntools.Helix.run n m ~ncores:4 ~min_hotness:0.0 ~min_work:0.0 ()))

let test_dswp_fuzz () =
  parallel_differential ~name:"DSWP" (fun n m ->
      ignore (Ntools.Dswp.run n m ~min_hotness:0.0 ~min_work:0.0 ()))

let test_perspective_fuzz () =
  List.iter
    (fun seed ->
      let src, expected = reference seed in
      let _, m = compile_seed seed in
      let p, _ = Noelle.Profiler.run ~fuel m in
      Noelle.Profiler.embed p m;
      Ntools.Perspective.profile_conflicts ~fuel m;
      let n = Noelle.create m in
      (try ignore (Ntools.Perspective.run n m ~ncores:4 ~min_hotness:0.0 ~min_work:0.0 ())
       with e ->
         Alcotest.failf "seed %d: PERS raised %s\n%s" seed (Printexc.to_string e) src);
      (match Ir.Verify.check m with
      | Ok () -> ()
      | Error e -> Alcotest.failf "seed %d: PERS broke verifier: %s\n%s" seed e src);
      let got, _ = run_parallel ~fuel:(4 * fuel) m in
      if not (String.equal expected got) then
        Alcotest.failf "seed %d: PERS changed output (%s -> %s)\n%s" seed expected got src)
    (seeds 15)

let test_pipeline_fuzz () =
  (* route fuzzed programs through the transactional pipeline: every pass
     of the standard stack commits or rolls back, and the surviving module
     must behave exactly like the original *)
  List.iter
    (fun seed ->
      let src, expected = reference seed in
      let _, m = compile_seed seed in
      let report = Ntools.Passes.run_standard ~fuel:(4 * fuel) m in
      if not report.Noelle.Pipeline.final_ok then
        Alcotest.failf "seed %d: pipeline final module not ok\n%s\n%s" seed
          (Noelle.Pipeline.report_to_string report)
          src;
      let got, _ = run_parallel ~fuel:(4 * fuel) m in
      checks (Printf.sprintf "seed %d: pipeline output" seed) expected got)
    (seeds 10)

let test_pipeline_fuzz_injected () =
  (* same, with each pass's output deterministically corrupted: the gates
     must catch (or prove harmless) every fault *)
  List.iter
    (fun seed ->
      let src, expected = reference seed in
      let _, m = compile_seed seed in
      let report =
        Ntools.Passes.run_standard ~fuel:(4 * fuel) ~inject_seed:(31 * seed) m
      in
      if not report.Noelle.Pipeline.final_ok then
        Alcotest.failf "seed %d: injected pipeline final module not ok\n%s\n%s" seed
          (Noelle.Pipeline.report_to_string report)
          src;
      let got, _ = run_parallel ~fuel:(4 * fuel) m in
      checks (Printf.sprintf "seed %d: injected pipeline output" seed) expected got)
    (seeds 6)

let test_targeted_cfgs () =
  (* §2.4: "surgically generate tests that stress a specific aspect" *)
  let cfgs =
    [ ("reductions only",
       { Bsuite.Generator.default_cfg with allow_recurrences = false;
         allow_indirect = false; allow_ifs = false });
      ("recurrences only",
       { Bsuite.Generator.default_cfg with allow_indirect = false;
         allow_helpers = false });
      ("histogram style",
       { Bsuite.Generator.default_cfg with allow_recurrences = false;
         allow_helpers = false });
      ("deep nests", { Bsuite.Generator.default_cfg with max_depth = 3; iters = 8 });
    ]
  in
  List.iter
    (fun (label, cfg) ->
      List.iter
        (fun seed ->
          let src = Bsuite.Generator.program ~cfg seed in
          let m =
            try Minic.Lower.compile ~name:"targeted" src
            with e ->
              Alcotest.failf "%s seed %d compile: %s\n%s" label seed
                (Printexc.to_string e) src
          in
          let expected = output ~fuel m in
          let _, m2 = (src, Minic.Lower.compile ~name:"targeted" src) in
          let p, _ = Noelle.Profiler.run ~fuel m2 in
          Noelle.Profiler.embed p m2;
          let n = Noelle.create m2 in
          ignore (Ntools.Doall.run n m2 ~ncores:4 ~min_hotness:0.0 ~min_work:0.0 ());
          let got, _ = run_parallel ~fuel:(4 * fuel) m2 in
          checks (Printf.sprintf "%s seed %d" label seed) expected got)
        (seeds 8))
    cfgs

let suite =
  [
    tc "generated programs run" test_generated_programs_run;
    tc "generated round-trip" test_roundtrip;
    tc "fuzz LICM" test_licm;
    tc "fuzz LICM-baseline" test_licm_llvm;
    tc "fuzz rotate" test_rotate;
    tc "fuzz peel" test_peel;
    tc "fuzz scheduler" test_scheduler;
    tc "fuzz time-squeezer" test_time_squeezer;
    tc "fuzz coos" test_coos;
    tc "fuzz carat" test_carat;
    tc "fuzz DOALL" test_doall_fuzz;
    tc "fuzz HELIX" test_helix_fuzz;
    tc "fuzz DSWP" test_dswp_fuzz;
    tc "fuzz Perspective" test_perspective_fuzz;
    tc "fuzz transactional pipeline" test_pipeline_fuzz;
    tc "fuzz pipeline under injected faults" test_pipeline_fuzz_injected;
    tc "targeted generation (2.4)" test_targeted_cfgs;
  ]
