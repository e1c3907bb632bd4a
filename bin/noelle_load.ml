(** noelle-load — load the NOELLE layer in memory and run custom tools
    over an IR file (Table 2; the replacement for LLVM's [opt]). *)

open Cmdliner

(* one table: the --tool converter and its help text are derived from it *)
let tools : (string * (Noelle.t -> Ir.Irmod.t -> unit)) list =
  [
    ("licm", fun n m ->
        let s = Ntools.Licm.run n m in
        Printf.printf "LICM: hoisted %d invariants across %d loops\n"
          s.Ntools.Licm.hoisted s.Ntools.Licm.loops_visited);
    ("licm-llvm", fun _ m ->
        let s = Ntools.Licm_llvm.run m in
        Printf.printf "LICM(llvm-baseline): hoisted %d across %d loops\n"
          s.Ntools.Licm_llvm.hoisted s.Ntools.Licm_llvm.loops_visited);
    ("dead", fun n m ->
        let s = Ntools.Deadfunc.run n m () in
        Printf.printf "DEAD: removed %d functions (%d -> %d instructions, -%.1f%%)\n"
          (List.length s.Ntools.Deadfunc.removed)
          s.Ntools.Deadfunc.insts_before s.Ntools.Deadfunc.insts_after
          (Ntools.Deadfunc.reduction s));
    ("doall", fun n m ->
        List.iter
          (fun (id, r) ->
            match r with
            | Ok (_ : Ntools.Doall.stats) -> Printf.printf "DOALL %s: parallelized\n" id
            | Error e -> Printf.printf "DOALL %s: %s\n" id e)
          (Ntools.Doall.run n m ()));
    ("helix", fun n m ->
        List.iter
          (fun (id, r) ->
            match r with
            | Ok (s : Ntools.Helix.stats) ->
              Printf.printf "HELIX %s: parallelized (%d segments)\n" id s.Ntools.Helix.nsegments
            | Error e -> Printf.printf "HELIX %s: %s\n" id e)
          (Ntools.Helix.run n m ()));
    ("dswp", fun n m ->
        List.iter
          (fun (id, r) ->
            match r with
            | Ok (s : Ntools.Dswp.stats) ->
              Printf.printf "DSWP %s: %d stages, %d queues\n" id s.Ntools.Dswp.nstages
                s.Ntools.Dswp.nqueues
            | Error e -> Printf.printf "DSWP %s: %s\n" id e)
          (Ntools.Dswp.run n m ()));
    ("carat", fun n m ->
        let s = Ntools.Carat.run n m in
        Printf.printf
          "CARAT: %d accesses; %d guards, %d range guards, %d proven safe, %d redundant\n"
          s.Ntools.Carat.mem_insts s.Ntools.Carat.guards_inserted
          s.Ntools.Carat.range_guards s.Ntools.Carat.proven_safe
          s.Ntools.Carat.redundant_skipped);
    ("coos", fun n m ->
        let s = Ntools.Coos.run n m () in
        Printf.printf "COOS: inserted %d callbacks in %d functions\n"
          s.Ntools.Coos.callbacks_inserted s.Ntools.Coos.functions_instrumented);
    ("time", fun n m ->
        let s = Ntools.Timesqueezer.run n m in
        Printf.printf
          "TIME: swapped %d compares; switches %d -> %d; est cycles %.0f -> %.0f\n"
          s.Ntools.Timesqueezer.cmps_swapped s.Ntools.Timesqueezer.switches_before
          s.Ntools.Timesqueezer.switches_after s.Ntools.Timesqueezer.est_cycles_before
          s.Ntools.Timesqueezer.est_cycles_after);
    ("prvj", fun n m ->
        let s = Ntools.Prvjeeves.run n m () in
        Printf.printf "PRVJ: %d sites, %d generators changed\n"
          (List.length s.Ntools.Prvjeeves.sites) s.Ntools.Prvjeeves.changed);
    ("pers", fun n m ->
        Ntools.Perspective.profile_conflicts m;
        List.iter
          (fun (id, r) ->
            match r with
            | Ok (s : Ntools.Perspective.stats) ->
              Printf.printf "PERS %s: parallelized speculating %d edges\n" id
                s.Ntools.Perspective.speculated_edges
            | Error e -> Printf.printf "PERS %s: %s\n" id e)
          (Ntools.Perspective.run n m ()));
    ("autopar-baseline", fun _ m ->
        let vs = Ntools.Autopar_baseline.run m in
        Printf.printf "autopar-baseline: %d/%d loops parallelizable\n"
          (Ntools.Autopar_baseline.parallelized vs)
          (List.length vs));
  ]

let run input tools output usage =
  let m = Input_program.read ~tool:"noelle-load" input in
  let n = Noelle.create m in
  List.iter (fun run -> run n m) tools;
  Ir.Verify.verify_module m;
  Option.iter (Ir.Printer.to_file m) output;
  if usage then begin
    Printf.printf "abstractions requested (tool, abstraction):\n";
    List.iter (fun (t, a) -> Printf.printf "  %s %s\n" t a) (Noelle.usage_pairs n)
  end;
  0

let tools =
  Arg.(value & opt_all (enum tools) [] & info [ "tool"; "t" ] ~docv:"TOOL"
         ~doc:(Printf.sprintf "custom tool to run (%s)"
                 (String.concat ", " (List.map fst tools))))
let usage = Arg.(value & flag & info [ "usage" ] ~doc:"print the abstraction-usage log")

let cmd =
  Cmd.v
    (Cmd.info "noelle-load" ~doc:"Run NOELLE custom tools over an IR file")
    Term.(const run $ Input_program.input $ tools $ Input_program.output $ usage)

let () = exit (Cmd.eval' cmd)
