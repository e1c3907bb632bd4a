(** noelle-meta-verify — audit the embedded analysis artifacts of an IR
    file against the code they claim to describe (Noelle.Trust): every
    PDG / profile / architecture payload must carry a stamp whose
    fingerprint and checksum verify.  Exit status 1 when any artifact is
    stale, corrupt or unstamped, so it can gate a build.  The corpus
    trust gate is [noelle-gate --gate meta]. *)

open Cmdliner
module Trust = Noelle.Trust

let verdict_char = function
  | Trust.Trusted _ -> '+'
  | Trust.Unstamped -> '?'
  | Trust.Stale _ -> '!'
  | Trust.Corrupt _ -> '!'

let event_json (e : Trust.event) =
  let escape s = String.concat "\\\"" (String.split_on_char '"' s) in
  Printf.sprintf "{\"check\":\"%s\",\"artifact\":\"%s\",\"verdict\":\"%s\"}"
    (Trust.check_id e.Trust.averdict)
    (escape (Trust.kind_to_string e.Trust.akind))
    (escape (Trust.verdict_to_string e.Trust.averdict))

(* ------------------------------------------------------------------ *)
(* File audit mode                                                     *)
(* ------------------------------------------------------------------ *)

let audit_file input quarantine json output =
  let m = Input_program.read ~tool:"noelle-meta-verify" input in
  let events = Trust.audit m in
  let failures = Trust.failures events in
  if json then
    Printf.printf "{\"module\":\"%s\",\"artifacts\":%d,\"failures\":%d,\"events\":[%s]}\n"
      input (List.length events) (List.length failures)
      (String.concat "," (List.map event_json events))
  else begin
    List.iter
      (fun (e : Trust.event) ->
        Printf.printf "%c %s\n" (verdict_char e.Trust.averdict) (Trust.event_to_string e))
      events;
    Printf.printf "noelle-meta-verify: %d artifacts, %d failures\n"
      (List.length events) (List.length failures)
  end;
  if quarantine && failures <> [] then begin
    List.iter
      (fun (e : Trust.event) -> Trust.quarantine m.Ir.Irmod.meta ~prefix:e.Trust.aprefix)
      failures;
    let out = Input_program.write input output m in
    if not json then
      Printf.printf "quarantined %d artifacts -> %s\n" (List.length failures) out
  end;
  if failures = [] then 0 else 1

let quarantine =
  Arg.(value & flag & info [ "quarantine" ]
         ~doc:"move failing artifacts into the quarantine namespace and \
               rewrite the file (or $(b,-o))")
let json = Arg.(value & flag & info [ "json" ] ~doc:"emit the audit as JSON")

let cmd =
  Cmd.v
    (Cmd.info "noelle-meta-verify"
       ~doc:"Verify embedded analysis metadata against the IR it describes")
    Term.(const audit_file $ Input_program.input $ quarantine $ json $ Input_program.output)

let () = exit (Cmd.eval' cmd)
