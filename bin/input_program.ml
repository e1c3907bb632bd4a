(** The one door through which a CLI reads and writes its program.
    [read] lowers a [.mc] file with Mini-C or parses any other file as
    IR, then verifies the module; [link] reads and links several files;
    [write] prints to [-o] or a default path.  A parse, frontend,
    verifier or link error prints [<tool>: <path>: <message>] and exits 1
    inside the Cmdliner term, so exit 125 (an exception escaping
    [Cmd.eval']) only ever means a bug.  [load] is the input of
    [noelle-trace], [noelle-pipeline] and [noelle-check]: a [FILE.ir], a
    corpus kernel ([--kernel], [noelle-trace] only) or a generated program
    ([--fuzz-seed]), in that order; an unknown kernel is a usage error
    (exit 124), no input at all exits 2. *)

open Cmdliner

(** The required positional [FILE.ir]. *)
let input = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.ir")

(** The optional positional [FILE.ir]. *)
let file = Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE.ir")

(** The optional [-o OUT.ir]. *)
let output = Arg.(value & opt (some string) None & info [ "o" ] ~docv:"OUT.ir")

let fuzz_seed =
  Arg.(value & opt (some int) None & info [ "fuzz-seed" ] ~docv:"N"
         ~doc:"generate the input program from fuzzer seed $(docv)")

let kernel =
  let names = List.map (fun k -> (k.Bsuite.Kernels.kname, k)) Bsuite.Kernels.all in
  Arg.(value & opt (some (enum names)) None & info [ "kernel" ] ~docv:"NAME"
         ~doc:"load a named benchmark kernel (e.g. histogram, blackscholes)")

(** Print [<tool>: <path>: <msg>] on stderr and exit 1. *)
let fail ~tool path msg =
  Printf.eprintf "%s: %s: %s\n" tool path msg;
  exit 1

(** The verified module in [path], or exit 1 naming what is wrong.
    [minic] (default: [path] ends in [.mc]) picks the frontend. *)
let read ~tool ?minic path =
  match
    if Option.value minic ~default:(Filename.check_suffix path ".mc") then
      Minic.Lower.compile
        ~name:(Filename.remove_extension (Filename.basename path))
        (In_channel.with_open_bin path In_channel.input_all)
    else Ir.Parser.parse_file path
  with
  | exception (Ir.Parser.Parse_error msg | Sys_error msg) -> fail ~tool path msg
  | exception Minic.Ast.Error { line; msg } ->
    fail ~tool path (Minic.Ast.error_to_string line msg)
  | m -> (
    match Ir.Verify.check m with Ok () -> m | Error msg -> fail ~tool path msg)

(** Read every file of [paths] and link them into one verified module
    named [name]; a link error exits 1. *)
let link ~tool ~name paths =
  let ms = List.map (read ~tool) paths in
  let error msg =
    Printf.eprintf "%s: %s\n" tool msg;
    exit 1
  in
  match Ir.Linker.link ~name ms with
  | exception Ir.Linker.Link_error msg -> error msg
  | m -> ( match Ir.Verify.check m with Ok () -> m | Error msg -> error msg)

(** Print [m] to [output], else to [default input] (in place unless
    [default] says otherwise), and return the path written. *)
let write ?(default = Fun.id) input output m =
  let out = match output with Some o -> o | None -> default input in
  Ir.Printer.to_file m out;
  out

(** [(name, module)] of the input: the file's path, the kernel's name or
    [fuzzN].  [kernel] is given only by the CLIs that take [--kernel]. *)
let load ~tool ?kernel file fuzz_seed =
  match (file, Option.join kernel, fuzz_seed) with
  | Some f, _, _ -> (f, read ~tool f)
  | None, Some k, _ -> (k.Bsuite.Kernels.kname, Bsuite.Kernels.compile k)
  | None, None, Some seed ->
    let name = Printf.sprintf "fuzz%d" seed in
    (name, Minic.Lower.compile ~name (Bsuite.Generator.program seed))
  | None, None, None ->
    Printf.eprintf "%s: need FILE.ir%s or --fuzz-seed N\n" tool
      (if Option.is_none kernel then "" else ", --kernel NAME");
    exit 2
