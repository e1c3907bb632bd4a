(** noelle-meta-prof-embed — embed a profile produced by
    [noelle-prof-coverage] into an IR file as metadata (Table 2). *)

open Cmdliner

let run input profile output =
  let m = Input_program.read ~tool:"noelle-meta-prof-embed" input in
  Ir.Meta.clear_prefix m.Ir.Irmod.meta "prof.";
  let ic = open_in profile in
  (try
     while true do
       let line = input_line ic in
       match String.index_opt line '=' with
       | Some i ->
         Ir.Meta.set m.Ir.Irmod.meta (String.sub line 0 i)
           (String.sub line (i + 1) (String.length line - i - 1))
       | None -> ()
     done
   with End_of_file -> ());
  close_in ic;
  (* stamp the freshly written payload so consumers can verify it *)
  Noelle.Trust.stamp m.Ir.Irmod.meta ~prefix:"prof." ~tool:"noelle-meta-prof-embed"
    ~fp:(Ir.Fingerprint.module_fp m);
  let out = Input_program.write input output m in
  Printf.printf "noelle-meta-prof-embed: %s + %s -> %s\n" input profile out;
  0

let profile = Arg.(required & pos 1 (some file) None & info [] ~docv:"PROFILE")

let cmd =
  Cmd.v
    (Cmd.info "noelle-meta-prof-embed" ~doc:"Embed profile metadata into IR")
    Term.(const run $ Input_program.input $ profile $ Input_program.output)

let () = exit (Cmd.eval' cmd)
