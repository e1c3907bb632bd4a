(** minicc — compile Mini-C source files to textual IR.

    The front half of [noelle-whole-IR]'s job: each [.mc] file becomes a
    verified SSA [.ir] module. *)

open Cmdliner

let compile input output =
  let m = Input_program.read ~tool:"minicc" ~minic:true input in
  let out =
    Input_program.write ~default:(fun i -> Filename.remove_extension i ^ ".ir") input
      output m
  in
  Printf.printf "minicc: %s -> %s (%d functions, %d instructions)\n" input out
    (List.length (Ir.Irmod.defined_functions m))
    (Ir.Irmod.total_insts m);
  0

let input = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.mc")

let cmd =
  Cmd.v
    (Cmd.info "minicc" ~doc:"Compile Mini-C to NOELLE IR")
    Term.(const compile $ input $ Input_program.output)

let () = exit (Cmd.eval' cmd)
