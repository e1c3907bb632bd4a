(** minicc — compile Mini-C source files to textual IR.

    The front half of [noelle-whole-IR]'s job: each [.mc] file becomes a
    verified SSA [.ir] module. *)

open Cmdliner

let compile input output =
  let ic = open_in input in
  let src = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let name = Filename.remove_extension (Filename.basename input) in
  match Minic.Lower.compile ~name src with
  | m ->
    let out =
      match output with Some o -> o | None -> Filename.remove_extension input ^ ".ir"
    in
    Ir.Printer.to_file m out;
    Printf.printf "minicc: %s -> %s (%d functions, %d instructions)\n" input out
      (List.length (Ir.Irmod.defined_functions m))
      (Ir.Irmod.total_insts m);
    0
  | exception Minic.Ast.Error { line; msg } ->
    Printf.eprintf "minicc: %s: %s\n" input (Minic.Ast.error_to_string line msg);
    1

let input = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.mc")
let output = Arg.(value & opt (some string) None & info [ "o" ] ~docv:"OUT.ir")

let cmd =
  Cmd.v
    (Cmd.info "minicc" ~doc:"Compile Mini-C to NOELLE IR")
    Term.(const compile $ input $ output)

let () = exit (Cmd.eval' cmd)
