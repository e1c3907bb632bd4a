(** noelle-bin — produce and run the final program (Table 2).

    The paper's noelle-bin hands the IR to the LLVM backend; this
    reproduction's "binary" is execution on the IR interpreter with the
    parallel runtime and the tool runtimes installed, reporting program
    output and the simulated cycle count. *)

open Cmdliner

let run input args fuel cores =
  let m = Input_program.read ~tool:"noelle-bin" input in
  let arch = Noelle.Arch.measure ~physical_cores:cores () in
  let configure st =
    ignore (Psim.Runtime.install ~arch st);
    ignore (Ntools.Toolrt.install st)
  in
  let r = Ir.Interp.start ~args ?fuel ~configure m in
  print_string (Ir.Interp.output r);
  match r.Ir.Interp.outcome with
  | Ok v ->
    Printf.printf "[noelle-bin] exit=%s cycles=%Ld\n" (Ir.Interp.v_to_string v)
      (Ir.Interp.clock r);
    0
  | Error (Ir.Interp.Trap e) ->
    Printf.eprintf "[noelle-bin] trap: %s\n" e;
    1
  | Error e -> raise e

let args = Arg.(value & opt_all int [] & info [ "arg" ] ~docv:"N")
let fuel = Arg.(value & opt (some int) None & info [ "fuel" ] ~docv:"N")
let cores = Arg.(value & opt int 12 & info [ "cores" ] ~docv:"N")

let cmd =
  Cmd.v
    (Cmd.info "noelle-bin" ~doc:"Run an IR program (the simulated binary)")
    Term.(const run $ Input_program.input $ args $ fuel $ cores)

let () = exit (Cmd.eval' cmd)
