(** The input program of [noelle-trace], [noelle-pipeline] and
    [noelle-check]: a parsed [FILE.ir], a corpus kernel ([--kernel],
    [noelle-trace] only) or a generated program ([--fuzz-seed]), in that
    order of precedence.  A missing [FILE.ir] or an unknown kernel is a
    usage error (exit 124); no input at all exits 2. *)

open Cmdliner

let file = Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE.ir")

let fuzz_seed =
  Arg.(value & opt (some int) None & info [ "fuzz-seed" ] ~docv:"N"
         ~doc:"generate the input program from fuzzer seed $(docv)")

let kernel =
  let names = List.map (fun k -> (k.Bsuite.Kernels.kname, k)) Bsuite.Kernels.all in
  Arg.(value & opt (some (enum names)) None & info [ "kernel" ] ~docv:"NAME"
         ~doc:"load a named benchmark kernel (e.g. histogram, blackscholes)")

(** [(name, module)] of the input: the file's path, the kernel's name or
    [fuzzN].  [kernel] is given only by the CLIs that take [--kernel]. *)
let load ~tool ?kernel file fuzz_seed =
  match (file, Option.join kernel, fuzz_seed) with
  | Some f, _, _ -> (f, Ir.Parser.parse_file f)
  | None, Some k, _ -> (k.Bsuite.Kernels.kname, Bsuite.Kernels.compile k)
  | None, None, Some seed ->
    let name = Printf.sprintf "fuzz%d" seed in
    (name, Minic.Lower.compile ~name (Bsuite.Generator.program seed))
  | None, None, None ->
    Printf.eprintf "%s: need FILE.ir%s or --fuzz-seed N\n" tool
      (if Option.is_none kernel then "" else ", --kernel NAME");
    exit 2
