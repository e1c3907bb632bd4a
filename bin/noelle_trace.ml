(** noelle-trace — run the standard custom-tool stack under the telemetry
    spine and export what happened: a Chrome trace-event JSON (load it in
    Perfetto / chrome://tracing) with one span per analysis, pass, checker,
    and simulated task, plus a flat metrics dump from the process-wide
    registry.  [--compare] diffs two metrics dumps from earlier runs. *)

open Cmdliner

let compare_cmd a b =
  let report, differing = Noelle.Telemetry.compare_files a b in
  print_string report;
  if differing = 0 then print_endline "no metric changed";
  0

let trace_cmd input fuzz_seed kernel inputs fuel out metrics_out check quiet =
  let _, m = Input_program.load ~tool:"noelle-trace" ~kernel input fuzz_seed in
  let inputs = if inputs = [] then [ [] ] else List.map (fun n -> [ n ]) inputs in
  Ir.Trace.enable ();
  let report = Ntools.Passes.run_standard ~inputs ~fuel ~vec:true m in
  if not quiet then print_string (Noelle.Pipeline.report_to_string report);
  Noelle.Telemetry.save_trace out;
  Noelle.Telemetry.save_metrics metrics_out;
  (* round-trip the file we just wrote through the repo's own JSON parser
     and summarize which layers produced spans *)
  let triples =
    Noelle.Telemetry.validate_chrome_json (In_channel.with_open_bin out In_channel.input_all)
  in
  let layers = Noelle.Telemetry.layers_of triples in
  Printf.printf "wrote %s (%d events) and %s (%d metrics)\n" out (List.length triples)
    metrics_out
    (List.length (Ir.Trace.metrics ()));
  List.iter (fun (cat, n) -> Printf.printf "  layer %-10s %d spans\n" cat n) layers;
  (* buffer truncation is observable, not silent: say how many events the
     capped buffer dropped (0 in any healthy run) *)
  Printf.printf "  events dropped: %Ld\n" (Ir.Trace.counter "trace.dropped");
  (* the sparse analysis engine (DESIGN.md §11), the observable-event
     oracle (§12) and the profile-free bounds analysis (§13) must have
     been exercised: their counters are registered
     (possibly at zero) whenever the worklist solver, the bucketed PDG
     builder, fingerprint-keyed invalidation and the trace-equivalence
     gate (with its executed-once reuse) actually ran, so a missing
     counter means a silent fallback to a slow, stale or weaker path *)
  let metric_names = List.map fst (Ir.Trace.metrics ()) in
  let missing =
    List.filter
      (fun c -> not (List.mem c metric_names))
      [ "andersen.delta_props"; "andersen.cycles_collapsed";
        "pdg.pairs_skipped_bucketing"; "pdg.alias_memo_hits";
        "noelle.invalidate.kept"; "pipeline.exec_reused";
        "obs.events"; "obs.trace_compares"; "obs.reorders_rejected";
        "bounds.queries"; "bounds.loops_exact";
        "vec.loops_considered"; "vec.vectorized"; "vec.if_converted";
        "vec.rejected";
        "trace.dropped" ]
  in
  Ir.Trace.disable ();
  if check && List.length layers < 3 then begin
    Printf.eprintf
      "noelle-trace: expected spans from at least 3 layers, got %d (%s)\n"
      (List.length layers)
      (String.concat ", " (List.map fst layers));
    1
  end
  else if check && missing <> [] then begin
    Printf.eprintf "noelle-trace: required counters missing: %s\n"
      (String.concat ", " missing);
    1
  end
  else if check && not report.Noelle.Pipeline.final_ok then 1
  else 0

let run input pos1 fuzz_seed kernel inputs fuel out metrics_out compare check
    quiet =
  if compare then
    match (input, pos1) with
    | Some a, Some b -> compare_cmd a b
    | _ ->
      prerr_endline "noelle-trace: --compare needs two metrics files: A.json B.json";
      2
  else
    trace_cmd input fuzz_seed kernel inputs fuel out metrics_out check quiet

let pos1 = Arg.(value & pos 1 (some file) None & info [] ~docv:"B.json")
let inputs =
  Arg.(value & opt_all int [] & info [ "input"; "i" ] ~docv:"N"
         ~doc:"argument for a differential run (repeatable)")
let fuel =
  Arg.(value & opt int 3_000_000 & info [ "fuel" ] ~docv:"N"
         ~doc:"interpreter fuel per differential run")
let out =
  Arg.(value & opt string "trace.json" & info [ "o"; "trace" ] ~docv:"OUT.json"
         ~doc:"where to write the Chrome trace-event JSON")
let metrics_out =
  Arg.(value & opt string "trace_metrics.json" & info [ "metrics" ] ~docv:"OUT.json"
         ~doc:"where to write the metrics-registry dump")
let compare =
  Arg.(value & flag & info [ "compare" ]
         ~doc:"diff two metrics dumps given as the positional arguments")
let check =
  Arg.(value & flag & info [ "check" ]
         ~doc:"fail unless spans from at least 3 layers are present, the \
               sparse-engine counters are registered, and the pipeline \
               survived its gates (CI smoke mode)")
let quiet = Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"suppress the pipeline report")

let cmd =
  Cmd.v
    (Cmd.info "noelle-trace"
       ~doc:"Run the standard pass stack under tracing; export Chrome trace + metrics")
    Term.(const run $ Input_program.file $ pos1 $ Input_program.fuzz_seed
          $ Input_program.kernel $ inputs $ fuel $ out
          $ metrics_out $ compare $ check $ quiet)

let () = exit (Cmd.eval' cmd)
