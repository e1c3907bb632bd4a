(** Noelle.Trust: self-validating embedded analysis metadata —
    fingerprints, stamp verification, quarantine-and-recompute, strict
    mode, metadata fault injection, and the differential sweep proving
    that no stale or corrupt artifact ever changes a tool's output
    versus fresh recomputation. *)

open Helpers
open Ir
module Trust = Noelle.Trust
module Pdg = Noelle.Pdg
module Dep = Noelle.Depgraph

let loop_src =
  {|
int main() {
  int a[8];
  for (int i = 0; i < 8; i++) { a[i] = i; }
  int s = 0;
  for (int i = 0; i < 8; i++) { s = s + a[i]; }
  print(s);
  return 0;
}
|}

let two_fn_src =
  {|
int work(int n) {
  int s = 0;
  for (int i = 0; i < n; i++) { s = s + i; }
  return s;
}
int main() { print(work(10)); return 0; }
|}

let edge_set (p : Pdg.t) =
  List.map
    (fun (e : Dep.edge) ->
      ((e.Dep.esrc, e.Dep.edst), (Dep.kind_to_string e.Dep.kind, e.Dep.must)))
    (Dep.edges p.Pdg.fdg)
  |> List.sort compare

let fresh_edge_set (m : Irmod.t) (f : Func.t) =
  edge_set (Pdg.build ~stack:(Andersen.noelle_stack m) m f)

let embed_pdgs m =
  let n = Noelle.create m in
  List.iter (fun f -> Pdg.embed (Noelle.pdg n f)) (Irmod.defined_functions m)

(* flip the fp= field of a stamp to a fingerprint no code ever had *)
let garble_fp meta key =
  match Meta.get meta key with
  | None -> Alcotest.failf "no stamp at %s" key
  | Some line ->
    let fields =
      List.map
        (fun kv ->
          if String.length kv >= 3 && String.sub kv 0 3 = "fp=" then
            "fp=0000000000000000"
          else kv)
        (String.split_on_char ' ' line)
    in
    Meta.set meta key (String.concat " " fields)

let roundtrip m = Parser.parse_module ~name:m.Irmod.mname (Printer.module_str m)

(* ------------------------------------------------------------------ *)
(* Fingerprints                                                        *)
(* ------------------------------------------------------------------ *)

let test_fingerprint_stability () =
  let m = compile loop_src in
  let m2 = roundtrip m in
  checks "func fp survives round trip"
    (Fingerprint.func_fp (Irmod.func m "main"))
    (Fingerprint.func_fp (Irmod.func m2 "main"));
  checks "module fp survives round trip" (Fingerprint.module_fp m)
    (Fingerprint.module_fp m2);
  (* metadata is deliberately outside the module fingerprint: stamping
     one artifact must not invalidate another's stamp *)
  let before = Fingerprint.module_fp m in
  Meta.set m.Irmod.meta "pdg.main.count" "0";
  checks "module fp ignores metadata" before (Fingerprint.module_fp m)

let test_fingerprint_tracks_code () =
  let m = compile loop_src in
  let f = Irmod.func m "main" in
  let before = Fingerprint.func_fp f in
  let first = List.hd (Func.block f (Func.entry f)).Func.insts in
  ignore
    (Builder.insert_before f ~before:first
       (Instr.Bin (Instr.Add, Instr.Cint 1L, Instr.Cint 2L))
       Ty.I64);
  checkb "func fp changes with the code" (before <> Fingerprint.func_fp f)

(* ------------------------------------------------------------------ *)
(* Stamp round trips                                                   *)
(* ------------------------------------------------------------------ *)

let test_pdg_stamp_roundtrip () =
  let m = compile loop_src in
  embed_pdgs m;
  let m2 = roundtrip m in
  (match Trust.verify_artifact m2 (Trust.Pdg_artifact "main") with
  | Trust.Trusted s -> checks "producing tool recorded" "noelle-meta-pdg-embed" s.Trust.tool
  | v -> Alcotest.failf "expected trusted, got %s" (Trust.verdict_to_string v));
  match Pdg.of_embedded m2 (Irmod.func m2 "main") with
  | Some p ->
    Alcotest.(check (list (pair (pair int int) (pair string bool))))
      "reloaded edges match"
      (edge_set (Option.get (Pdg.of_embedded m (Irmod.func m "main"))))
      (edge_set p)
  | None -> Alcotest.fail "stamped artifact should reload"

let test_prof_arch_stamp_roundtrip () =
  let m = compile loop_src in
  let prof, _ = Noelle.Profiler.run m in
  Noelle.Profiler.embed prof m;
  Noelle.Arch.to_meta (Noelle.Arch.measure ()) m.Irmod.meta;
  embed_pdgs m;
  let m2 = roundtrip m in
  let events = Trust.audit m2 in
  checki "three artifacts" 3 (List.length events);
  List.iter
    (fun (e : Trust.event) ->
      match e.Trust.averdict with
      | Trust.Trusted _ -> ()
      | _ -> Alcotest.failf "after round trip: %s" (Trust.event_to_string e))
    events

let test_linker_preserves_stamps () =
  let lib = compile ~name:"lib" two_fn_src in
  (* keep only the helper in the library module, then embed its PDG *)
  Irmod.remove_func lib "main";
  embed_pdgs lib;
  let app = compile ~name:"app" {|int main() { print(2); return 0; }|} in
  let whole = Linker.link [ lib; app ] in
  match Trust.verify_artifact whole (Trust.Pdg_artifact "work") with
  | Trust.Trusted _ -> ()
  | v ->
    Alcotest.failf "stamp should survive linking, got %s" (Trust.verdict_to_string v)

(* ------------------------------------------------------------------ *)
(* Staleness, quarantine, recompute                                    *)
(* ------------------------------------------------------------------ *)

let test_partial_staleness () =
  let m = compile two_fn_src in
  embed_pdgs m;
  (* transform only [work]: its artifact must go stale, main's must not *)
  let w = Irmod.func m "work" in
  let first = List.hd (Func.block w (Func.entry w)).Func.insts in
  ignore
    (Builder.insert_before w ~before:first
       (Instr.Bin (Instr.Add, Instr.Cint 5L, Instr.Cint 6L))
       Ty.I64);
  (match Trust.verify_artifact m (Trust.Pdg_artifact "work") with
  | Trust.Stale _ -> ()
  | v -> Alcotest.failf "work should be stale, got %s" (Trust.verdict_to_string v));
  (match Trust.verify_artifact m (Trust.Pdg_artifact "main") with
  | Trust.Trusted _ -> ()
  | v -> Alcotest.failf "main should stay trusted, got %s" (Trust.verdict_to_string v));
  (* reconcile quarantines exactly the stale one *)
  let evs = Trust.reconcile m in
  checki "one artifact quarantined" 1 (List.length evs);
  Alcotest.(check (list string)) "work quarantined" [ "work" ]
    (Trust.quarantined_pdg_functions m);
  checkb "main's artifact still live"
    (Trust.has_artifact m.Irmod.meta ~prefix:"pdg.main.")

let test_invalidate_kills_stale_reload () =
  (* the PR's motivating miscompile vector: transform, invalidate,
     re-request — the stale pre-transform PDG must NOT come back *)
  let m = compile loop_src in
  let n = Noelle.create m in
  let f = Irmod.func m "main" in
  let p0 = Noelle.pdg n f in
  Pdg.embed p0;
  let stale_edges = edge_set p0 in
  (* delete the store into a[i]: the dep structure changes for real *)
  let store =
    Func.fold_insts
      (fun acc (i : Instr.inst) ->
        match i.Instr.op with Instr.Store _ -> Some i | _ -> acc)
      None f
    |> Option.get
  in
  Builder.remove f store.Instr.id;
  Noelle.invalidate n;
  let p1 = Noelle.pdg n f in
  let got = edge_set p1 in
  checkb "stale edge set is gone" (got <> stale_edges);
  checkb "no edge touches the deleted instruction"
    (not
       (List.exists
          (fun ((s, d), _) -> s = store.Instr.id || d = store.Instr.id)
          got));
  Alcotest.(check (list (pair (pair int int) (pair string bool))))
    "recomputed PDG equals fresh analysis" (fresh_edge_set m f) got;
  (* invalidate logged the quarantine *)
  checkb "trust event recorded" (Noelle.trust_events n <> []);
  checkb "artifact quarantined, not live"
    (not (Trust.has_artifact m.Irmod.meta ~prefix:"pdg.main."))

let test_ghost_edges_rejected () =
  let m = compile loop_src in
  embed_pdgs m;
  let f = Irmod.func m "main" in
  (* retarget edge 0 to an instruction id that does not exist *)
  (match Meta.get m.Irmod.meta "pdg.main.0" with
  | Some line -> (
    match String.split_on_char ' ' line with
    | [ s; _; k; must ] ->
      Meta.set m.Irmod.meta "pdg.main.0"
        (Printf.sprintf "%s 999999 %s %s" s k must)
    | _ -> Alcotest.fail "unexpected edge encoding")
  | None -> Alcotest.fail "no embedded edge to tamper with");
  checkb "ghost edge rejects the artifact" (Pdg.of_embedded m f = None)

let test_unstamped_distrusted () =
  let m = compile loop_src in
  let f = Irmod.func m "main" in
  (* a legacy artifact: payload without any stamp *)
  Meta.set m.Irmod.meta "pdg.main.count" "0";
  Meta.set m.Irmod.meta "pdg.main.stats" "0 0";
  let n = Noelle.create m in
  let p = Noelle.pdg n f in
  Alcotest.(check (list (pair (pair int int) (pair string bool))))
    "recomputed, not the empty embedded graph" (fresh_edge_set m f) (edge_set p);
  (match Noelle.trust_events n with
  | [ e ] -> checks "unstamped diagnosed" "meta.unstamped" (Trust.check_id e.Trust.averdict)
  | evs -> Alcotest.failf "expected one trust event, got %d" (List.length evs));
  checki "no fast reload" 0 (Noelle.fast_reloads n)

let test_strict_mode_traps () =
  let m = compile loop_src in
  embed_pdgs m;
  garble_fp m.Irmod.meta "pdg.main.stamp";
  let n = Noelle.create ~trust_mode:Trust.Strict m in
  (match Noelle.pdg n (Irmod.func m "main") with
  | _ -> Alcotest.fail "strict mode should trap on a stale artifact"
  | exception Trust.Tainted _ -> ());
  (* degrade mode on the same tampering recovers by recomputation *)
  let m2 = compile loop_src in
  embed_pdgs m2;
  garble_fp m2.Irmod.meta "pdg.main.stamp";
  let n2 = Noelle.create m2 in
  let f2 = Irmod.func m2 "main" in
  Alcotest.(check (list (pair (pair int int) (pair string bool))))
    "degrade mode recomputes" (fresh_edge_set m2 f2)
    (edge_set (Noelle.pdg n2 f2))

let test_payload_tamper_is_corrupt () =
  let m = compile loop_src in
  embed_pdgs m;
  (match Meta.get m.Irmod.meta "pdg.main.count" with
  | Some c -> Meta.set m.Irmod.meta "pdg.main.count" (c ^ "0")
  | None -> Alcotest.fail "no count key");
  match Trust.verify_artifact m (Trust.Pdg_artifact "main") with
  | Trust.Corrupt _ -> ()
  | v -> Alcotest.failf "expected corrupt, got %s" (Trust.verdict_to_string v)

(* ------------------------------------------------------------------ *)
(* Metadata fault injection                                            *)
(* ------------------------------------------------------------------ *)

let embed_all_artifacts m =
  let prof, _ = Noelle.Profiler.run m in
  Noelle.Profiler.embed prof m;
  embed_pdgs m;
  Noelle.Arch.to_meta (Noelle.Arch.measure ()) m.Irmod.meta

let expected_check_id = function
  | Faultgen.Stale_stamp -> "meta.stale"
  | _ -> "meta.corrupt"

let test_faultgen_metadata_kinds () =
  List.iter
    (fun kind ->
      let m = compile loop_src in
      embed_all_artifacts m;
      match Faultgen.inject_info ~kinds:[ kind ] ~seed:7 m with
      | None ->
        Alcotest.failf "no site for %s on a fully embedded module"
          (Faultgen.kind_to_string kind)
      | Some info ->
        let prefix = Option.get info.Faultgen.imeta in
        let failures = Trust.failures (Trust.audit m) in
        checki
          (Printf.sprintf "%s: exactly one artifact fails"
             (Faultgen.kind_to_string kind))
          1 (List.length failures);
        let e = List.hd failures in
        checks "detected at the planted artifact" prefix e.Trust.aprefix;
        checks "with the expected check id"
          (expected_check_id info.Faultgen.ikind)
          (Trust.check_id e.Trust.averdict))
    Faultgen.metadata_kinds

let test_check_meta_verify () =
  let m = compile loop_src in
  embed_pdgs m;
  garble_fp m.Irmod.meta "pdg.main.stamp";
  let diags = (Noelle.Check.run ~checks:[ "meta.verify" ] m).Noelle.Check.diags in
  match diags with
  | [ d ] ->
    checks "stable id" "meta.stale" d.Noelle.Check.did;
    checkb "stale PDG is an error" (d.Noelle.Check.dsev = Noelle.Check.Error);
    checks "located at the function" "main" d.Noelle.Check.dloc.Noelle.Check.lfunc
  | ds -> Alcotest.failf "expected one diagnostic, got %d" (List.length ds)

let test_pipeline_verify_meta_gate () =
  let m =
    compile
      {|
int main() {
  int k = clock() + 3;
  int s = 0;
  for (int i = 0; i < 50; i++) { s = s + k * k + i; }
  print(s);
  return 0;
}
|}
  in
  embed_pdgs m;
  let report = Ntools.Passes.run_standard ~verify_meta:true m in
  checkb "pipeline final module OK" report.Noelle.Pipeline.final_ok;
  checkb "at least one pass committed"
    (Noelle.Pipeline.committed report <> []);
  (* a commit invalidated main's embedded PDG: the gate quarantined it *)
  checkb "the gate quarantined the stale artifact"
    (List.exists
       (fun (e : Noelle.Pipeline.entry) -> e.Noelle.Pipeline.emeta <> [])
       report.Noelle.Pipeline.entries
    || Trust.quarantined_pdg_functions m <> []);
  (* ... and run_standard re-embedded a fresh, trusted one at the end *)
  (match Trust.verify_artifact m (Trust.Pdg_artifact "main") with
  | Trust.Trusted s -> checks "re-embedded by the pipeline" "noelle-pipeline" s.Trust.tool
  | v -> Alcotest.failf "expected a re-embedded trusted PDG, got %s"
           (Trust.verdict_to_string v));
  checkb "final audit clean" (Trust.failures (Trust.audit m) = [])

(* ------------------------------------------------------------------ *)
(* The 50-seed metadata-corruption differential sweep                  *)
(* ------------------------------------------------------------------ *)

let test_metadata_sweep () =
  let fuel = 2_000_000 in
  let detected = ref 0 and skipped_prof = ref 0 in
  for seed = 0 to 49 do
    let name = Printf.sprintf "fuzz%d" seed in
    let m = Minic.Lower.compile ~name (Bsuite.Generator.program seed) in
    (* embed every artifact class (profiles only when the program runs
       to completion under the profiler) *)
    (match Noelle.Profiler.run ~fuel m with
    | prof, _ -> Noelle.Profiler.embed prof m
    | exception Interp.Trap _ -> incr skipped_prof);
    embed_pdgs m;
    Noelle.Arch.to_meta (Noelle.Arch.measure ()) m.Irmod.meta;
    let fns = Irmod.defined_functions m in
    (* pristine corpus: clean audit, fast-path reloads observed *)
    List.iter
      (fun (e : Trust.event) ->
        match e.Trust.averdict with
        | Trust.Trusted _ -> ()
        | _ -> Alcotest.failf "seed %d pristine: %s" seed (Trust.event_to_string e))
      (Trust.audit m);
    let n0 = Noelle.create m in
    List.iter (fun f -> ignore (Noelle.pdg n0 f)) fns;
    checki
      (Printf.sprintf "seed %d: every PDG fast-reloads" seed)
      (List.length fns) (Noelle.fast_reloads n0);
    checkb
      (Printf.sprintf "seed %d: no trust events on pristine corpus" seed)
      (Noelle.trust_events n0 = []);
    (* plant one metadata corruption *)
    let clean = Irmod.copy m in
    match Faultgen.inject_info ~kinds:Faultgen.metadata_kinds ~seed m with
    | None -> Alcotest.failf "seed %d: no metadata fault site" seed
    | Some info ->
      incr detected;
      let prefix = Option.get info.Faultgen.imeta in
      (* detection: the planted artifact fails with a stable check id,
         and no other artifact is implicated *)
      let failures = Trust.failures (Trust.audit m) in
      (match failures with
      | [ e ] ->
        checks
          (Printf.sprintf "seed %d: detected at the planted artifact" seed)
          prefix e.Trust.aprefix;
        checks
          (Printf.sprintf "seed %d: stable check id" seed)
          (expected_check_id info.Faultgen.ikind)
          (Trust.check_id e.Trust.averdict)
      | es ->
        Alcotest.failf "seed %d (%s): expected exactly one failure, got %d" seed
          info.Faultgen.idesc (List.length es));
      (* zero divergence: quarantine-and-recompute over the corrupted
         module must agree with fresh analysis of a clean copy *)
      let n = Noelle.create m in
      List.iter
        (fun (f : Func.t) ->
          Alcotest.(check (list (pair (pair int int) (pair string bool))))
            (Printf.sprintf "seed %d %s: recompute == fresh" seed f.Func.fname)
            (fresh_edge_set clean (Irmod.func clean f.Func.fname))
            (edge_set (Noelle.pdg n f)))
        fns
  done;
  checki "all 50 seeds planted a fault" 50 !detected;
  (* the sweep only proves what it exercised: most seeds must profile *)
  checkb "majority of seeds carried profiles" (!skipped_prof < 25)

(* ------------------------------------------------------------------ *)
(* Torn on-disk artifacts (DESIGN.md §14)                              *)
(*                                                                     *)
(* The serve store persists Trust-stamped artifacts as files; a crash  *)
(* mid-write leaves zero-length or truncated files behind.  The stamp  *)
(* checksum must catch every such shape — a torn artifact may never    *)
(* verify, and must be quarantined, not served.                        *)
(* ------------------------------------------------------------------ *)

module Sstore = Serve.Store

let torn_root name =
  let root =
    Filename.concat (Filename.get_temp_dir_name ()) ("noelle_trust_" ^ name)
  in
  Sstore.remove_tree root;
  root

(** Exhaustive torn-write sweep: every proper prefix of a stamped
    artifact file — from zero-length up — must fail verification and be
    quarantined.  No prefix may ever verify as a Hit. *)
let test_torn_artifact_never_verifies () =
  let root = torn_root "torn" in
  let st = Sstore.open_store root in
  let key = { Sstore.kmod = "m"; kshard = "s"; kfn = "f"; kkind = "pdg" } in
  let payload = "0 1 mem true false\n2 3 ctrl true false" in
  Sstore.write st key ~fp:"abcd" ~afp:"eeff" ~payload;
  let path = Filename.concat root "m/s/f.pdg.art" in
  let full = In_channel.with_open_bin path In_channel.input_all in
  let n = String.length full in
  let corrupt = ref 0 in
  for cut = 0 to n - 1 do
    let oc = open_out_bin path in
    output_string oc (String.sub full 0 cut);
    close_out oc;
    (match Sstore.lookup st key ~fp:"abcd" ~afp:"eeff" ~now:0 with
    | Sstore.Hit _ -> Alcotest.failf "torn artifact verified at cut=%d" cut
    | Sstore.Miss_stale _ -> Alcotest.failf "torn artifact stale (not corrupt) at cut=%d" cut
    | Sstore.Miss_absent -> Alcotest.failf "lookup lost the file at cut=%d" cut
    | Sstore.Miss_corrupt _ -> incr corrupt);
    checkb "torn file quarantined" (not (Sys.file_exists path))
  done;
  checki "every prefix (incl. zero-length) caught as corrupt" n !corrupt;
  checki "quarantine bookkeeping" n st.Sstore.qcount;
  (* quarantine-and-recompute: a fresh write fully heals the slot *)
  Sstore.write st key ~fp:"abcd" ~afp:"eeff" ~payload;
  (match Sstore.lookup st key ~fp:"abcd" ~afp:"eeff" ~now:0 with
  | Sstore.Hit p -> checks "recomputed artifact serves again" payload p
  | _ -> Alcotest.fail "recomputed artifact did not verify");
  Sstore.close st

(** The recovery journal tolerates a torn tail: committed intents are
    settled, uncommitted and garbled ones only trigger re-verification. *)
let test_journal_torn_tail () =
  let root = torn_root "journal" in
  let st = Sstore.open_store root in
  Sstore.close st;
  let oc = open_out_bin (Filename.concat root "journal") in
  (* committed write, garbage record, uncommitted write, torn tail
     (no trailing newline, record cut mid-path) *)
  output_string oc "W m/s/f.pdg.art\nC m/s/f.pdg.art\nQ garbage\nW m/s/g.pdg.art\nW m/";
  close_out oc;
  let st = Sstore.open_store root in
  checkb "reopen survives the torn journal"
    (st.Sstore.last_recovery.Sstore.r_pending >= 1);
  checki "nothing live, nothing falsely quarantined" 0
    st.Sstore.last_recovery.Sstore.r_quarantined;
  Sstore.close st

let suite =
  [
    tc "fingerprint stability" test_fingerprint_stability;
    tc "fingerprint tracks code" test_fingerprint_tracks_code;
    tc "pdg stamp round trip" test_pdg_stamp_roundtrip;
    tc "prof/arch stamp round trip" test_prof_arch_stamp_roundtrip;
    tc "linker preserves stamps" test_linker_preserves_stamps;
    tc "partial staleness" test_partial_staleness;
    tc "invalidate kills stale reload" test_invalidate_kills_stale_reload;
    tc "ghost edges rejected" test_ghost_edges_rejected;
    tc "unstamped distrusted" test_unstamped_distrusted;
    tc "strict mode traps" test_strict_mode_traps;
    tc "payload tamper is corrupt" test_payload_tamper_is_corrupt;
    tc "faultgen metadata kinds" test_faultgen_metadata_kinds;
    tc "check meta.verify" test_check_meta_verify;
    tc "pipeline verify-meta gate" test_pipeline_verify_meta_gate;
    tc "metadata-corruption sweep (50 seeds)" test_metadata_sweep;
    tc "torn artifact files never verify" test_torn_artifact_never_verifies;
    tc "recovery journal tolerates torn tail" test_journal_torn_tail;
  ]
