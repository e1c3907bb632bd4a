(** noelle-linker — link IR files while preserving the semantics of
    NOELLE-generated metadata (Table 2). *)

open Cmdliner

let run inputs output =
  let m = Input_program.link ~tool:"noelle-linker" ~name:"linked" inputs in
  Ir.Printer.to_file m output;
  Printf.printf "noelle-linker: %d files -> %s\n" (List.length inputs) output;
  0

let inputs = Arg.(non_empty & pos_all file [] & info [] ~docv:"FILES")
let output = Arg.(value & opt string "linked.ir" & info [ "o" ] ~docv:"OUT.ir")

let cmd =
  Cmd.v
    (Cmd.info "noelle-linker" ~doc:"Link IR files preserving metadata")
    Term.(const run $ inputs $ output)

let () = exit (Cmd.eval' cmd)
