(** noelle-prof-coverage — run the instruction/branch/loop profilers over
    an IR file with a training input (Table 2). Writes a profile file that
    [noelle-meta-prof-embed] merges into the IR. *)

open Cmdliner

let run input args output =
  let tool = "noelle-prof-coverage" in
  let m = Input_program.read ~tool input in
  let p, _out =
    try Noelle.Profiler.run ~args m
    with Ir.Interp.Trap e -> Input_program.fail ~tool input ("trap: " ^ e)
  in
  (* write through a scratch module's metadata, in printable form *)
  let scratch = Ir.Irmod.create () in
  Noelle.Profiler.embed p scratch;
  let oc = open_out output in
  Ir.Meta.iter_sorted
    (fun k v -> Printf.fprintf oc "%s=%s\n" k v)
    scratch.Ir.Irmod.meta;
  close_out oc;
  Printf.printf
    "noelle-prof-coverage: %s -> %s (%Ld dynamic instructions)\n" input output
    (Ir.Meta.get scratch.Ir.Irmod.meta "prof.total"
    |> Option.map Int64.of_string |> Option.value ~default:0L);
  0

let args =
  Arg.(value & opt_all int [] & info [ "arg" ] ~docv:"N" ~doc:"program argument")
let output = Arg.(value & opt string "prof.out" & info [ "o" ] ~docv:"PROFILE")

let cmd =
  Cmd.v
    (Cmd.info "noelle-prof-coverage" ~doc:"Profile an IR file")
    Term.(const run $ Input_program.input $ args $ output)

let () = exit (Cmd.eval' cmd)
