(** noelle-check — static race detection and IR sanitizers built on the
    NOELLE abstractions: loop-carried memory dependences off the PDG,
    uninitialized loads / dead stores / heap misuse / out-of-bounds
    accesses off the DFE, Andersen points-to, and SCEV.  Exit status 1 when
    any unsuppressed error remains, so it can gate a build. *)

open Cmdliner
module Check = Noelle.Check

let check_module ~checks ~json ~stats ~quiet (name : string) (m : Ir.Irmod.t) =
  let r = Check.run ?checks m in
  if json then print_endline (Check.report_to_json ~mname:name r)
  else begin
    if not quiet then Printf.printf "== %s ==\n" name;
    print_string (Check.report_to_text ~stats r)
  end;
  List.length (Check.errors r)

let run input fuzz_seed checks complexity_budget flag_unbounded json
    stats list_checks quiet =
  if list_checks then begin
    List.iter
      (fun (c : Check.checker) -> Printf.printf "%-20s %s\n" c.Check.cid c.Check.cdoc)
      Check.all;
    0
  end
  else begin
    let checks = match checks with [] -> None | cs -> Some cs in
    let name, (m : Ir.Irmod.t) =
      match (input, fuzz_seed) with
      | Some f, _ -> (f, Ir.Parser.parse_file f)
      | None, Some seed ->
        let name = Printf.sprintf "fuzz%d" seed in
        (name, Minic.Lower.compile ~name (Bsuite.Generator.program seed))
      | None, None ->
        prerr_endline "noelle-check: need FILE.ir or --fuzz-seed";
        exit 2
    in
    (* the complexity checker reads its configuration from module
       metadata, so the flags just seed the module before the run *)
    (match complexity_budget with
    | Some b -> Ir.Meta.set_int m.Ir.Irmod.meta "check.complexity.budget" b
    | None -> ());
    if flag_unbounded then
      Ir.Meta.set m.Ir.Irmod.meta "check.complexity.flag-unbounded" "1";
    let errors = check_module ~checks ~json ~stats ~quiet name m in
    if errors > 0 then 1 else 0
  end

let input = Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE.ir")
let fuzz_seed =
  Arg.(value & opt (some int) None & info [ "fuzz-seed" ] ~docv:"N"
         ~doc:"generate the input program from fuzzer seed $(docv)")
let checks =
  Arg.(value & opt_all string [] & info [ "check"; "c" ] ~docv:"ID"
         ~doc:"run only checker $(docv) (repeatable; default: all)")
let complexity_budget =
  Arg.(value & opt (some int) None & info [ "complexity-budget" ] ~docv:"N"
         ~doc:"trip-count budget for the complexity checker (default 1000000): \
               loops whose static bound exceeds $(docv) are flagged")
let flag_unbounded =
  Arg.(value & flag & info [ "flag-unbounded" ]
         ~doc:"complexity checker also flags loops with no exit edge \
               (provably unable to terminate)")
let json =
  Arg.(value & flag & info [ "json" ] ~doc:"emit the report as JSON")
let stats =
  Arg.(value & flag & info [ "stats" ]
         ~doc:"per-checker fixpoint iteration counts and wall time")
let list_checks =
  Arg.(value & flag & info [ "list" ] ~doc:"list available checkers and exit")
let quiet = Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"suppress module headers")

let cmd =
  Cmd.v
    (Cmd.info "noelle-check"
       ~doc:"Static race detector and IR sanitizer suite over NOELLE abstractions")
    Term.(const run $ input $ fuzz_seed $ checks $ complexity_budget
          $ flag_unbounded $ json $ stats $ list_checks $ quiet)

let () = exit (Cmd.eval' cmd)
