(** noelle-serve — the analysis service loop over a kernel corpus
    (DESIGN.md §14, §15).

    Three modes, all driven by deterministic generated workloads of
    interleaved module edits and analysis queries:

    - default (replay): serve a workload, then "restart the process"
      (fresh managers, pristine corpus, same store) and serve it again —
      the second run must answer partly from the persistent store, and
      never stale: functions edited in run 1 fingerprint-miss and are
      recomputed.  The replay is also the SLO gate: the per-kind
      [serve.latency_us.*] percentiles of exactly these two runs are
      printed as a table (optionally written as text and as a
      Prometheus exposition) and checked against the spec ([--slo]:
      per-kind p99 budgets, max shed %, max deadline misses).
      [--p99-budget-us N] overrides every kind's budget, which is how the
      negative leg deliberately violates the SLO.
    - [--faults]: the kill-and-recover soak gate.  For each of
      [--seeds] seeds, a fault plan ({!Ir.Faultgen.serve_plan}) arms
      kills-mid-write, artifact truncation, bit flips and shard stalls
      while the workload is served, recovering after every kill; the
      recovered run's answers must be identical to a from-scratch cold
      run, with zero [Trust.Tainted] escapes and every corrupt artifact
      quarantined.
    - [--overload]: the shedding gate.  Arrivals outpace service until
      the circuit breaker opens; shed dependence answers must be
      conservative supersets of the exact PDG (never wrong, only
      coarser), and every request must still be served.

    Every mode runs under the telemetry spine, self-checks that the
    [serve.*] counters are registered, and writes a metrics dump
    ([serve_metrics.json]) and the flight ring ([<store-root>/flight.json]).
    Exit 0 when every gate holds, 1 when one fails (an SLO violation
    prints [VIOLATION] lines on stderr), 2 on an unreadable or malformed
    SLO spec. *)

open Cmdliner

let say quiet fmt =
  Printf.ksprintf (fun s -> if not quiet then print_string s) fmt

let corpus_of () = Bsuite.Kernels.corpus Serve.Workload.default_pool

let required_counters =
  [ "serve.requests"; "serve.queries"; "serve.edits"; "serve.store.hits";
    "serve.store.misses"; "serve.store.writes"; "serve.shed";
    "serve.recoveries"; "serve.quarantined"; "serve.flight.replayed" ]

let check_counters () =
  let names = List.map fst (Ir.Trace.metrics ()) in
  let missing = List.filter (fun c -> not (List.mem c names)) required_counters in
  if missing <> [] then begin
    Printf.eprintf "noelle-serve: serve.* counters missing: %s\n"
      (String.concat ", " missing);
    false
  end
  else true

let pct a b = if b = 0 then 0. else 100. *. float_of_int a /. float_of_int b

let print_report quiet tag (r : Serve.report) =
  say quiet
    "%s: served=%d (edits=%d queries=%d) hits=%d computed=%d shed=%d \
     hit-rate=%.0f%% max-backlog=%d breaker-opens=%d quarantined=%d wall=%.1fms\n"
    tag r.Serve.rserved r.Serve.redits r.Serve.rqueries r.Serve.rhits
    r.Serve.rcomputed r.Serve.rshed
    (pct r.Serve.rhits r.Serve.rqueries)
    r.Serve.rmax_backlog r.Serve.rbreaker_opens r.Serve.rquarantined
    r.Serve.rwall_ms

(* ------------------------------------------------------------------ *)
(* Default mode: replay + warm restart                                 *)
(* ------------------------------------------------------------------ *)

let replay ~root ~seed ~modules ~requests ~spec ~report_out ~prom_out ~quiet =
  let mods = Serve.Workload.pick_modules ~seed ~count:modules in
  let w = Serve.Workload.generate ~seed ~mods ~requests in
  say quiet "corpus: %s | %d requests (seed %d)\n" (String.concat ", " mods)
    requests seed;
  let (r1, r2), window =
    Serve.Slo.measure (fun () ->
        Serve.replay ~corpus_of
          ~root:(Filename.concat root (Printf.sprintf "replay%d" seed))
          w)
  in
  (* transcript of the first few requests *)
  List.iteri
    (fun i (a : Serve.answer) ->
      if i < 12 then say quiet "  [%02d] %-28s -> %-8s %s\n" a.Serve.aidx a.Serve.areq a.Serve.asource a.Serve.atext
      else if i = 12 then say quiet "  ... (%d more)\n" (requests - 12))
    r1.Serve.ranswers;
  print_report quiet "run 1 (cold store)" r1;
  print_report quiet "run 2 (warm store)" r2;
  let ok =
    r1.Serve.rserved = requests && r2.Serve.rserved = requests
    && r2.Serve.rhits > r1.Serve.rhits
    && r1.Serve.rshed = 0 && r2.Serve.rshed = 0
  in
  if not ok then
    Printf.eprintf
      "noelle-serve: replay gate failed (run2 hits %d must exceed run1 hits \
       %d, no shedding)\n"
      r2.Serve.rhits r1.Serve.rhits;
  let tbl = Serve.Slo.table window in
  say quiet "%s" tbl;
  say quiet "shed=%.1f%% deadline-misses=%d\n" window.Serve.Slo.shed_pct
    window.Serve.Slo.deadline_misses;
  Option.iter (fun p -> Noelle.Telemetry.write_file p tbl) report_out;
  Option.iter
    (fun p -> Noelle.Telemetry.write_file p (Serve.Slo.prometheus window))
    prom_out;
  match Serve.Slo.evaluate spec window with
  | [] ->
    say quiet "slo: ok (%d kinds within budget)\n" (List.length window.Serve.Slo.rows);
    ok
  | violations ->
    List.iter (Printf.eprintf "noelle-serve: VIOLATION: %s\n") violations;
    false

(* ------------------------------------------------------------------ *)
(* Soak and overload gates                                             *)
(* ------------------------------------------------------------------ *)

let soak ~root ~seeds ~modules ~requests ~quiet =
  let ok, stats, _ =
    Serve.soak ~corpus_of ~root:(Filename.concat root "soak") ~seeds ~modules
      ~requests
      ~progress:(fun line -> say quiet "  %s\n" line)
      ()
  in
  say quiet
    "soak: %d/%d seeds ok | kills=%d recoveries=%d quarantined=%d \
     recovery=%.1fms total\n"
    stats.Serve.t_ok stats.Serve.t_seeds stats.Serve.t_kills
    stats.Serve.t_recoveries stats.Serve.t_quarantined stats.Serve.t_recovery_ms;
  if not ok then
    Printf.eprintf
      "noelle-serve: kill-and-recover gate FAILED (%d/%d seeds ok, kills=%d, \
       quarantined=%d)\n"
      stats.Serve.t_ok stats.Serve.t_seeds stats.Serve.t_kills
      stats.Serve.t_quarantined;
  ok

let overload ~root ~seed ~modules ~requests ~quiet =
  let ok, r =
    Serve.overload ~corpus_of ~root:(Filename.concat root "over") ~seed ~modules
      ~requests ()
  in
  print_report quiet "overload" r;
  say quiet "  shed-rate=%.0f%% violations=%d\n"
    (pct r.Serve.rshed r.Serve.rqueries)
    (List.length r.Serve.rviolations);
  List.iter (Printf.eprintf "noelle-serve: NOT conservative: %s\n") r.Serve.rviolations;
  if not ok then
    Printf.eprintf
      "noelle-serve: overload gate FAILED (served=%d/%d breaker-opens=%d \
       shed=%d hits=%d violations=%d)\n"
      r.Serve.rserved requests r.Serve.rbreaker_opens r.Serve.rshed
      r.Serve.rhits
      (List.length r.Serve.rviolations);
  ok

(* ------------------------------------------------------------------ *)

(** Run one gate under the telemetry spine, then check the counters and
    leave the metrics dump and the flight ring behind. *)
let under_telemetry ~root ~metrics_out ~quiet (gate : unit -> bool) =
  Ir.Trace.enable ();
  let ok =
    try gate ()
    with e ->
      (* trap: preserve the flight ring for post-mortem before dying *)
      let p = Serve.dump_flight root in
      Printf.eprintf "noelle-serve: trapped %s; flight recorder dumped to %s\n"
        (Printexc.to_string e) p;
      raise e
  in
  let counters_ok = check_counters () in
  Noelle.Telemetry.save_metrics metrics_out;
  (* always leave a flight dump behind (CI uploads it): even on a clean
     exit it names the last few hundred waypoints served *)
  let flight = Serve.dump_flight root in
  say quiet "wrote %s and %s (%d flight events)\n" metrics_out flight
    (List.length (Ir.Trace.flight_events ()));
  Ir.Trace.disable ();
  if ok && counters_ok then 0 else 1

let run faults over seeds seed modules requests root metrics_out slo_path
    report_out prom_out budget_override quiet =
  let gate = under_telemetry ~root ~metrics_out ~quiet in
  if faults then gate (fun () -> soak ~root ~seeds ~modules ~requests ~quiet)
  else if over then gate (fun () -> overload ~root ~seed ~modules ~requests ~quiet)
  else
    (* the spec is read, and a malformed one refused, before serving *)
    match Serve.Slo.load slo_path with
    | Error e ->
      Printf.eprintf "noelle-serve: SLO spec %s\n" e;
      2
    | Ok spec ->
      let spec =
        match budget_override with
        | Some us ->
          { spec with
            Serve.Slo.p99_us =
              List.map (fun (k, _) -> (k, Int64.of_int us)) spec.Serve.Slo.p99_us }
        | None -> spec
      in
      gate (fun () ->
          replay ~root ~seed ~modules ~requests ~spec ~report_out ~prom_out ~quiet)

let faults =
  Arg.(value & flag & info [ "faults" ]
         ~doc:"kill-and-recover soak gate: serve with armed faults, recover, \
               demand answers identical to a cold run")
let over =
  Arg.(value & flag & info [ "overload" ]
         ~doc:"overload gate: high-traffic workload must shed to \
               conservative degraded answers, never wrong ones")
let seeds =
  Arg.(value & opt int 50 & info [ "seeds" ] ~docv:"N"
         ~doc:"seeds for the --faults soak sweep")
let seed =
  Arg.(value & opt int 0 & info [ "seed" ] ~docv:"N"
         ~doc:"workload seed for replay/overload modes")
let modules =
  Arg.(value & opt int 3 & info [ "modules" ] ~docv:"N"
         ~doc:"corpus modules per run (drawn from the kernel pool)")
let requests =
  Arg.(value & opt int 40 & info [ "requests" ] ~docv:"N"
         ~doc:"requests per generated workload")
let root =
  Arg.(value & opt string "_serve" & info [ "store-root" ] ~docv:"DIR"
         ~doc:"directory holding the on-disk artifact stores")
let metrics_out =
  Arg.(value & opt string "serve_metrics.json" & info [ "metrics" ]
         ~docv:"OUT.json" ~doc:"where to write the metrics-registry dump")
let slo_path =
  Arg.(value & opt string "slo.json" & info [ "slo" ] ~docv:"FILE.json"
         ~doc:"replay mode: the SLO spec (per-kind p99 budgets, max shed %, \
               max deadline misses)")
let report_out =
  Arg.(value & opt (some string) None & info [ "report" ] ~docv:"OUT.txt"
         ~doc:"replay mode: write the percentile table here")
let prom_out =
  Arg.(value & opt (some string) None & info [ "prom" ] ~docv:"OUT.prom"
         ~doc:"replay mode: write a Prometheus text exposition of the \
               percentiles here")
let budget_override =
  Arg.(value & opt (some int) None & info [ "p99-budget-us" ] ~docv:"US"
         ~doc:"replay mode: override every kind's p99 budget (negative testing)")
let quiet = Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"only report failures")

let cmd =
  Cmd.v
    (Cmd.info "noelle-serve"
       ~doc:"Analysis-as-a-service loop: crash-consistent artifact store, \
             latency SLO, kill-and-recover soak, overload shedding")
    Term.(const run $ faults $ over $ seeds $ seed $ modules $ requests $ root
          $ metrics_out $ slo_path $ report_out $ prom_out $ budget_override
          $ quiet)

let () = exit (Cmd.eval' cmd)
