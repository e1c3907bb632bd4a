(** noelle-meta-pdg-embed — compute the PDG of every function with the
    full (expensive) alias stack and embed it as metadata, so later tool
    invocations reconstruct abstractions without re-running the analyses
    (Table 2). *)

open Cmdliner

let run input output baseline =
  let m = Input_program.read ~tool:"noelle-meta-pdg-embed" input in
  let n = Noelle.create ~use_noelle_aa:(not baseline) m in
  Noelle.set_tool n "noelle-meta-pdg-embed";
  List.iter
    (fun f ->
      let pdg = Noelle.pdg n f in
      Noelle.Pdg.embed pdg)
    (Ir.Irmod.defined_functions m);
  let out = Input_program.write input output m in
  Printf.printf "noelle-meta-pdg-embed: %s -> %s\n" input out;
  0

let baseline =
  Arg.(value & flag & info [ "baseline-aa" ] ~doc:"use only the baseline alias analysis")

let cmd =
  Cmd.v
    (Cmd.info "noelle-meta-pdg-embed" ~doc:"Compute and embed the PDG")
    Term.(const run $ Input_program.input $ Input_program.output $ baseline)

let () = exit (Cmd.eval' cmd)
