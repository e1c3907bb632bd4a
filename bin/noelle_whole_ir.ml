(** noelle-whole-IR — merge compilation units into a single whole-program
    IR file (Table 2; based on gllvm in the paper).

    Accepts any mix of [.mc] sources (compiled on the fly) and [.ir]
    modules, links them, verifies the result, and records the requested
    link options as metadata — the options [noelle-bin] later honours. *)

open Cmdliner

let run inputs output opts =
  let whole = Input_program.link ~tool:"noelle-whole-ir" ~name:"whole" inputs in
  List.iteri
    (fun i o -> Ir.Meta.set whole.Ir.Irmod.meta (Printf.sprintf "option.%d" i) o)
    opts;
  Ir.Printer.to_file whole output;
  Printf.printf "noelle-whole-ir: %d modules -> %s (%d instructions)\n"
    (List.length inputs) output (Ir.Irmod.total_insts whole);
  0

let inputs = Arg.(non_empty & pos_all file [] & info [] ~docv:"FILES")
let output = Arg.(value & opt string "whole.ir" & info [ "o" ] ~docv:"OUT.ir")
let opts = Arg.(value & opt_all string [] & info [ "option" ] ~docv:"OPT")

let cmd =
  Cmd.v
    (Cmd.info "noelle-whole-ir" ~doc:"Link units into a whole-program IR file")
    Term.(const run $ inputs $ output $ opts)

let () = exit (Cmd.eval' cmd)
