(** The command-line tools as built executables: every tool that reads a
    program exits 1 with [<tool>: <path>: <message>] on stderr when the
    input does not parse, lower or verify (exit 125 is only ever a bug),
    and exits 0 on a printed kernel; a module DOALL or HELIX wrote prints
    what the original prints. *)

open Helpers

(* the tools sit next to the test directory in the build tree *)
let bin_dir = Filename.concat (Filename.dirname Sys.executable_name) "../bin"

(* [(tool name, executable, arguments after the input file)]; [out] is a
   scratch path for whatever the tool writes *)
let ir_tools out =
  [
    ("noelle-whole-ir", "noelle_whole_ir", [ "-o"; out ]);
    ("noelle-linker", "noelle_linker", [ "-o"; out ]);
    ("noelle-arch", "noelle_arch", [ "-o"; out ]);
    ("noelle-bin", "noelle_bin", []);
    ("noelle-load", "noelle_load", []);
    ("noelle-meta-clean", "noelle_meta_clean", [ "-o"; out ]);
    ("noelle-meta-pdg-embed", "noelle_meta_pdg_embed", [ "-o"; out ]);
    ("noelle-meta-prof-embed", "noelle_meta_prof_embed", [ out ^ ".prof"; "-o"; out ]);
    ("noelle-meta-verify", "noelle_meta_verify", []);
    ("noelle-prof-coverage", "noelle_prof_coverage", [ "-o"; out ^ ".prof" ]);
    ("noelle-rm-lc-dependences", "noelle_rm_lc_deps", [ "-o"; out ]);
    ("noelle-pipeline", "noelle_pipeline", [ "-q" ]);
    ("noelle-check", "noelle_check", []);
    ("noelle-trace", "noelle_trace",
     [ "-q"; "-o"; out ^ ".json"; "--metrics"; out ^ ".metrics.json" ]);
  ]

let minic_tools out =
  [
    ("minicc", "minicc", [ "-o"; out ]);
    ("noelle-whole-ir", "noelle_whole_ir", [ "-o"; out ]);
  ]

let ir_malformed =
  [
    ("before-label.ir", "define i64 @main() {\nret 0\n}\n");
    ("literal.ir", "define i64 @main() {\nentry:\n%1 = add i64 99999999999999999999, 1\nret %1\n}\n");
    ("register.ir",
     "define i64 @main() {\nentry:\n%99999999999999999999 = add i64 1, 1\nret %99999999999999999999\n}\n");
    ("undefined.ir", "define i64 @main() {\nentry:\nret %7\n}\n");
  ]

let minic_malformed =
  [
    ("operator.mc", "int main() {\n  return 1 @ 2;\n}\n");
    ("literal.mc", "int main() {\n  return 99999999999999999999;\n}\n");
  ]

let trapping = ("trap.ir", "define i64 @main() {\nentry:\n%1 = sdiv 1, 0\nret %1\n}\n")

(* a while loop whose exit test reads the update ([%3 = add %2, 1],
   [icmp.slt %3, 4000]), storing [3*i+7] to [a[i+16]], then a checksum
   loop whose body reads its own update ([i+1]); [noelle-bin] prints
   64392153936 for it, and so must the module DOALL or HELIX wrote *)
let tests_update =
  ( "tests-update.ir",
    String.concat "\n"
      [ "global @a = 4100"; "define i64 @main() {"; "entry:"; "%1 = br header"; "header:";
        "%2 = phi.i64 [entry: 0] [body: %3]"; "%3 = add %2, 1"; "%4 = icmp.slt %3, 4000";
        "%5 = cbr %4, body, exit"; "body:"; "%10 = add %2, 16"; "%11 = gep @a, %10";
        "%12 = mul %2, 3"; "%13 = add %12, 7"; "%14 = store %13, %11"; "%7 = br header";
        "exit:"; "%20 = br sum"; "sum:"; "%21 = phi.i64 [exit: 0] [sum.body: %22]";
        "%23 = phi.i64 [exit: 0] [sum.body: %24]"; "%25 = icmp.slt %21, 4100";
        "%26 = cbr %25, sum.body, sum.done"; "sum.body:"; "%27 = gep @a, %21";
        "%28 = load.i64 %27"; "%22 = add %21, 1"; "%29 = mul %28, %22"; "%24 = add %23, %29";
        "%30 = br sum"; "sum.done:"; "%31 = call.void @print(%23)"; "%8 = ret 0"; "}";
        "declare void @print(i64 %a0)"; "" ] )

let test_cli_inputs () =
  let dir = Filename.temp_dir "noelle_cli" "" in
  let file (name, text) =
    let path = Filename.concat dir name in
    Out_channel.with_open_bin path (fun oc -> output_string oc text);
    path
  in
  let out = Filename.concat dir "out" in
  let err = Filename.concat dir "stderr" and stdout = Filename.concat dir "stdout" in
  ignore (file ("out.prof", ""));
  let run (tool, exe, args) input =
    let cmd =
      String.concat " "
        (List.map Filename.quote (Filename.concat bin_dir (exe ^ ".exe") :: input :: args))
    in
    let code =
      Sys.command
        (Printf.sprintf "%s >%s 2>%s" cmd (Filename.quote stdout) (Filename.quote err))
    in
    (code, In_channel.with_open_bin err In_channel.input_all, tool)
  in
  let rejects tools input =
    List.iter
      (fun t ->
        let code, stderr, tool = run t input in
        checki (Printf.sprintf "%s on %s exits 1 (stderr: %s)" tool input stderr) 1 code;
        let prefix = Printf.sprintf "%s: %s:" tool input in
        checkb (Printf.sprintf "%s on %s: stderr %S starts %S" tool input stderr prefix)
          (String.starts_with ~prefix stderr))
      tools
  in
  let accepts tools input =
    List.iter
      (fun t ->
        let code, stderr, tool = run t input in
        checki (Printf.sprintf "%s on %s exits 0 (stderr: %s)" tool input stderr) 0 code)
      tools
  in
  let sweep () =
    List.iter (fun f -> rejects (ir_tools out) (file f)) ir_malformed;
    List.iter (fun f -> rejects (minic_tools out) (file f)) minic_malformed;
    (* an unreadable input: a directory passes the usage check *)
    let unreadable = Filename.concat dir "dir.ir" in
    Sys.mkdir unreadable 0o755;
    rejects (ir_tools out) unreadable;
    rejects
      (List.filter (fun (tool, _, _) -> tool = "noelle-prof-coverage") (ir_tools out))
      (file trapping);
    let k = List.find (fun k -> k.Bsuite.Kernels.kname = "bitcount") Bsuite.Kernels.all in
    accepts (minic_tools out) (file ("bitcount.mc", k.Bsuite.Kernels.src));
    accepts (ir_tools out)
      (file ("bitcount.ir", Ir.Printer.module_str (Bsuite.Kernels.compile k)));
    let counted = file tests_update in
    List.iter
      (fun tool ->
        accepts [ ("noelle-load -t " ^ tool, "noelle_load", [ "-t"; tool; "-o"; out ]) ] counted;
        accepts [ ("noelle-bin", "noelle_bin", []) ] out;
        checks
          (Printf.sprintf "noelle-bin after noelle-load -t %s" tool)
          "64392153936"
          (List.hd (String.split_on_char '\n' (In_channel.with_open_bin stdout In_channel.input_all))))
      [ "doall"; "helix" ]
  in
  Fun.protect sweep ~finally:(fun () ->
      Array.iter
        (fun f ->
          let f = Filename.concat dir f in
          if Sys.is_directory f then Sys.rmdir f else Sys.remove f)
        (Sys.readdir dir);
      Sys.rmdir dir)

let suite = [ tc "malformed input exits 1, a printed kernel exits 0" test_cli_inputs ]
