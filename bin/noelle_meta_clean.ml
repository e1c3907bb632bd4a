(** noelle-meta-clean — strip NOELLE-generated metadata from an IR file
    (§2.1's compilation-flow step between transformation rounds). *)

open Cmdliner

let run input output prefixes =
  let m = Input_program.read ~tool:"noelle-meta-clean" input in
  let prefixes = if prefixes = [] then [ "prof."; "pdg."; "arch."; "memprof." ] else prefixes in
  List.iter (Ir.Meta.clear_prefix m.Ir.Irmod.meta) prefixes;
  let out = Input_program.write input output m in
  Printf.printf "noelle-meta-clean: %s -> %s (cleared %s)\n" input out
    (String.concat " " prefixes);
  0

let prefixes = Arg.(value & opt_all string [] & info [ "prefix" ] ~docv:"P")

let cmd =
  Cmd.v
    (Cmd.info "noelle-meta-clean" ~doc:"Strip NOELLE metadata from an IR file")
    Term.(const run $ Input_program.input $ Input_program.output $ prefixes)

let () = exit (Cmd.eval' cmd)
