(** noelle-pipeline — run the custom-tool stack through the transactional
    pass pipeline: checkpoint, transform, verify, differential-test, and
    commit or roll back each pass; optionally corrupt pass output and
    inject task failures to exercise the resilience machinery. *)

open Cmdliner

let run input fuzz_seed inputs fuel inject_seed psim_fault_seed persistent_tid
    analysis_budget check_races no_profile vec verify_meta trace_diff output quiet =
  let m =
    match (input, fuzz_seed) with
    | Some f, _ -> Ir.Parser.parse_file f
    | None, Some seed ->
      Minic.Lower.compile ~name:(Printf.sprintf "fuzz%d" seed)
        (Bsuite.Generator.program seed)
    | None, None ->
      prerr_endline "noelle-pipeline: need FILE.ir or --fuzz-seed"; exit 2
  in
  let pristine = Ir.Snapshot.capture m in
  let inputs = if inputs = [] then [ [] ] else List.map (fun n -> [ n ]) inputs in
  let report =
    Ntools.Passes.run_standard ~inputs ~fuel ?inject_seed ~check_races
      ~no_profile ~vec ?analysis_budget ~verify_meta m
  in
  print_string (Noelle.Pipeline.report_to_string report);
  if trace_diff then
    List.iter
      (fun (e : Noelle.Pipeline.entry) ->
        if e.Noelle.Pipeline.etrace_diff <> [] then begin
          Printf.printf "%s: event-diff witness:\n" e.Noelle.Pipeline.epass;
          List.iter print_endline e.Noelle.Pipeline.etrace_diff
        end)
      report.Noelle.Pipeline.entries;
  (* demonstrate degraded-mode parallel execution on the surviving module *)
  let fault =
    match (psim_fault_seed, persistent_tid) with
    | _, Some tid -> Some (Psim.Runtime.persistent_fault ~tid ())
    | Some seed, None -> Some (Psim.Runtime.seeded_fault ~seed ())
    | None, None -> None
  in
  (match fault with
  | None -> ()
  | Some fault ->
    let original = Ir.Snapshot.to_module pristine in
    let r =
      Psim.Runtime.run_resilient ~args:(List.hd inputs) ~fuel ~fault ~original m
    in
    Printf.printf "resilient run: mode=%s restarts=%d exit=%s\n"
      (Psim.Runtime.mode_to_string r.Psim.Runtime.rmode)
      r.Psim.Runtime.rrestarts
      (Ir.Interp.v_to_string r.Psim.Runtime.rvalue);
    if r.Psim.Runtime.rtask_log <> [] then
      print_endline (Psim.Runtime.dispositions_to_string r.Psim.Runtime.rtask_log);
    if not quiet then print_string r.Psim.Runtime.routput);
  (match output with Some o -> Ir.Printer.to_file m o | None -> ());
  if report.Noelle.Pipeline.final_ok then 0 else 1

let input = Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE.ir")
let fuzz_seed =
  Arg.(value & opt (some int) None & info [ "fuzz-seed" ] ~docv:"N"
         ~doc:"generate the input program from fuzzer seed $(docv)")
let inputs =
  Arg.(value & opt_all int [] & info [ "input"; "i" ] ~docv:"N"
         ~doc:"argument for a differential run (repeatable)")
let fuel =
  Arg.(value & opt int 3_000_000 & info [ "fuel" ] ~docv:"N"
         ~doc:"interpreter fuel per differential run")
let inject_seed =
  Arg.(value & opt (some int) None & info [ "fault-seed" ] ~docv:"N"
         ~doc:"corrupt each pass's output with a fault drawn from seed $(docv)")
let psim_fault_seed =
  Arg.(value & opt (some int) None & info [ "task-fault-seed" ] ~docv:"N"
         ~doc:"inject transient task failures into the final parallel run")
let persistent_tid =
  Arg.(value & opt (some int) None & info [ "kill-task" ] ~docv:"TID"
         ~doc:"kill task $(docv) on every attempt (forces sequential fallback)")
let analysis_budget =
  Arg.(value & opt (some int) None & info [ "analysis-budget" ] ~docv:"N"
         ~doc:"step budget for Andersen/PDG before degrading to may-deps")
let check_races =
  Arg.(value & flag & info [ "check-races" ]
         ~doc:"pre-flight gate: refuse to parallelize any loop the \
               noelle-check race detector flags")
let no_profile =
  Arg.(value & flag & info [ "no-profile" ]
         ~doc:"profile-free planning: the parallelizers select loops and \
               pick chunk sizes from Ir.Bounds static trip counts and cost \
               polynomials instead of embedded profile metadata")
let vec =
  Arg.(value & flag & info [ "vec" ]
         ~doc:"run the Ntools.Vec loop vectorizer ahead of the \
               parallelizers: loops where the Psim SIMD model beats the \
               DOALL model are widened into lane groups (with \
               if-conversion for divergent bodies) and the rest fall \
               through to DOALL/HELIX/DSWP")
let verify_meta =
  Arg.(value & flag & info [ "verify-meta" ]
         ~doc:"metadata trust gate: quarantine embedded analysis artifacts \
               invalidated by each committed pass, re-embed fresh ones at \
               the end, and fail unless the final module audits clean")
let trace_diff =
  Arg.(value & flag & info [ "trace-diff" ]
         ~doc:"print the minimal event-diff witness of every trace-gate \
               rollback after the report")
let output = Arg.(value & opt (some string) None & info [ "o" ] ~docv:"OUT.ir")
let quiet = Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"suppress program output")

let cmd =
  Cmd.v
    (Cmd.info "noelle-pipeline"
       ~doc:"Transactional pass pipeline with verification and differential gates")
    Term.(const run $ input $ fuzz_seed $ inputs $ fuel $ inject_seed $ psim_fault_seed
          $ persistent_tid $ analysis_budget $ check_races $ no_profile $ vec
          $ verify_meta $ trace_diff $ output $ quiet)

let () = exit (Cmd.eval' cmd)
