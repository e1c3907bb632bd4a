(** Tests of the resilience layer: module snapshots, deterministic fault
    injection, verifier rejection paths, the transactional pass pipeline,
    and degraded-mode parallel execution. *)

open Helpers
open Ir

let parse = Parser.parse_module

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* a two-loop Mini-C program: DOALL-able, store-rich, output-sensitive *)
let loopy_src =
  {|
int main() {
  int *a = malloc(64);
  int s = 0;
  for (int i = 0; i < 64; i++) {
    a[i] = i * 3 - 1;
  }
  for (int i = 0; i < 64; i++) {
    s += a[i];
  }
  print(s);
  return 0;
}
|}

(* hand-written IR with a phi-carried counting loop *)
let loop_ir =
  {|
define i64 @main() {
entry:
  %1 = add 1, 2
  %2 = mul %1, 3
  br loop
loop:
  %3 = phi.i64 [entry: 0] [loop: %4]
  %4 = add %3, 1
  %5 = icmp.slt %4, 10
  cbr %5, loop, done
done:
  %6 = sub %2, %4
  call.void @print(%6)
  call.void @print(%3)
  ret 0
}
declare void @print(i64 %x)
|}

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

let test_snapshot_restore () =
  let m = compile loopy_src in
  let expected = output m in
  let snap = Snapshot.capture m in
  (* corrupt, restore, corrupt differently, restore again: the snapshot
     must stay valid across repeated rollbacks *)
  List.iter
    (fun seed ->
      (match Faultgen.inject ~seed m with
      | Some _ -> ()
      | None -> Alcotest.fail "no fault site found");
      checkb "corruption changed the module"
        (not (same_ir (Snapshot.view snap) m));
      Snapshot.restore snap m;
      checkb "restore rolled the module back" (same_ir (Snapshot.view snap) m))
    [ 1; 2; 3; 4 ];
  verifies "restored module" m;
  checks "restored module behaves identically" expected (output m)

let test_snapshot_diff () =
  let m = compile loopy_src in
  let snap = Snapshot.capture m in
  checkb "no diff on identical modules" (Snapshot.diff (Snapshot.view snap) m = []);
  ignore (Faultgen.inject ~kinds:[ Faultgen.Drop_store ] ~seed:1 m);
  let d = Snapshot.diff (Snapshot.view snap) m in
  checkb "diff reports the changed function"
    (List.exists (fun l -> contains l "@main changed") d);
  checkb "diff shows a removed line" (List.exists (fun l -> contains l "- ") d)

(* ------------------------------------------------------------------ *)
(* Verifier rejection paths                                            *)
(* ------------------------------------------------------------------ *)

let expect_invalid ~frag m =
  match Verify.check m with
  | Ok () -> Alcotest.failf "verifier accepted a module corrupted for %S" frag
  | Error msg ->
    checkb (Printf.sprintf "message %S mentions %S" msg frag) (contains msg frag)

let inject_kind kind m =
  match Faultgen.inject ~kinds:[ kind ] ~seed:1 m with
  | Some d -> d
  | None -> Alcotest.fail "fault generator found no site"

let test_verifier_mid_terminator () =
  let m = parse loop_ir in
  ignore (inject_kind Faultgen.Mid_terminator m);
  expect_invalid ~frag:"in the middle of a block" m

let test_verifier_phi_mismatch () =
  let m = parse loop_ir in
  ignore (inject_kind Faultgen.Corrupt_phi_edge m);
  expect_invalid ~frag:"incoming blocks do not match predecessors" m;
  (* arity mismatch straight from source: one incoming, two predecessors *)
  let m2 =
    parse
      {|
define i64 @main() {
entry:
  br loop
loop:
  %2 = phi.i64 [entry: 0]
  %3 = add %2, 1
  %4 = icmp.slt %3, 10
  cbr %4, loop, done
done:
  ret %3
}
|}
  in
  expect_invalid ~frag:"incoming blocks do not match predecessors" m2

let test_verifier_use_before_def () =
  let m = parse loop_ir in
  ignore (inject_kind Faultgen.Undef_operand m);
  expect_invalid ~frag:"undefined register" m;
  (* use textually before the def in the same block *)
  let m2 =
    parse
      {|
define i64 @main() {
entry:
  %1 = add %2, 1
  %2 = add 1, 2
  ret %1
}
|}
  in
  expect_invalid ~frag:"not dominated by its def" m2

let test_verifier_duplicate_label () =
  (* two blocks may not print under one label: the text would no longer
     say which of them a branch targets *)
  let m = parse loop_ir in
  let f = Irmod.func m "main" in
  Builder.set_label f (List.nth (Func.blocks f) 2) "loop";
  expect_invalid ~frag:"duplicate block label loop" m

(* ------------------------------------------------------------------ *)
(* Transactional pipeline                                              *)
(* ------------------------------------------------------------------ *)

let corrupting_pass kind : Noelle.Pipeline.pass =
  {
    Noelle.Pipeline.pname = "corrupt-" ^ Faultgen.kind_to_string kind;
    papply = (fun m -> inject_kind kind m);
    plicense = Obs.Exact;
  }

let small_config =
  { Noelle.Pipeline.default_config with Noelle.Pipeline.fuel = 200_000 }

let run_one ?(config = small_config) m pass =
  let r = Noelle.Pipeline.run ~config m [ pass ] in
  match r.Noelle.Pipeline.entries with
  | [ e ] -> (r, e)
  | es -> Alcotest.failf "expected 1 entry, got %d" (List.length es)

let test_pipeline_rolls_back_structural () =
  List.iter
    (fun kind ->
      let m = parse loop_ir in
      let pristine = Snapshot.capture m in
      let r, e = run_one m (corrupting_pass kind) in
      (match e.Noelle.Pipeline.eoutcome with
      | Noelle.Pipeline.Rolled_back reason ->
        checkb "rejected by the verifier gate" (contains reason "verifier")
      | _ -> Alcotest.failf "%s: expected rollback" (Faultgen.kind_to_string kind));
      checkb "rollback recorded a diff" (e.Noelle.Pipeline.ediff <> []);
      checkb "module rolled back to the pristine state"
        (same_ir (Snapshot.view pristine) m);
      checkb "final module ok" r.Noelle.Pipeline.final_ok)
    [ Faultgen.Mid_terminator; Faultgen.Corrupt_phi_edge; Faultgen.Undef_operand ]

let test_pipeline_rolls_back_semantic () =
  (* structurally valid corruptions must die at the differential gate *)
  List.iter
    (fun kind ->
      let m = compile loopy_src in
      let pristine = Snapshot.capture m in
      let r, e = run_one m (corrupting_pass kind) in
      (match e.Noelle.Pipeline.eoutcome with
      | Noelle.Pipeline.Rolled_back reason ->
        checkb
          (Printf.sprintf "%s rejected by the differential gate (%s)"
             (Faultgen.kind_to_string kind) reason)
          (contains reason "differential")
      | _ -> Alcotest.failf "%s: expected rollback" (Faultgen.kind_to_string kind));
      checkb "module rolled back" (same_ir (Snapshot.view pristine) m);
      checkb "final module ok" r.Noelle.Pipeline.final_ok)
    [ Faultgen.Drop_store; Faultgen.Swap_operands ]

let test_pipeline_commits_good_pass () =
  let m = compile loopy_src in
  let expected = output m in
  let n = Noelle.create m in
  let config =
    { small_config with Noelle.Pipeline.on_change = (fun () -> Noelle.invalidate n) }
  in
  let r = Noelle.Pipeline.run ~config m [ Ntools.Passes.licm n; Ntools.Passes.dead n ] in
  List.iter
    (fun (e : Noelle.Pipeline.entry) ->
      match e.Noelle.Pipeline.eoutcome with
      | Noelle.Pipeline.Committed _ -> ()
      | o ->
        Alcotest.failf "%s: expected commit, got %s" e.Noelle.Pipeline.epass
          (Noelle.Pipeline.outcome_to_string o))
    r.Noelle.Pipeline.entries;
  checkb "final ok" r.Noelle.Pipeline.final_ok;
  checks "behaviour preserved" expected (output m)

let test_pipeline_times_out () =
  let m = parse loop_ir in
  let pristine = Snapshot.capture m in
  (* rewrite the loop's exit test into an unconditional back edge: still
     verifier-valid, but the differential run never terminates *)
  let loopify : Noelle.Pipeline.pass =
    {
      Noelle.Pipeline.pname = "loopify";
      papply =
        (fun m ->
          let f = Irmod.func m "main" in
          Func.iter_insts
            (fun i ->
              match i.Instr.op with
              | Instr.Cbr (_, t, _) when t = i.Instr.parent -> Builder.set_op f i (Instr.Br t)
              | _ -> ())
            f;
          "made the loop infinite");
      plicense = Obs.Exact;
    }
  in
  let config = { small_config with Noelle.Pipeline.fuel = 20_000 } in
  let r, e = run_one ~config m loopify in
  (match e.Noelle.Pipeline.eoutcome with
  | Noelle.Pipeline.Timed_out _ -> ()
  | o -> Alcotest.failf "expected timeout, got %s" (Noelle.Pipeline.outcome_to_string o));
  checkb "module rolled back" (same_ir (Snapshot.view pristine) m);
  checkb "final ok" r.Noelle.Pipeline.final_ok

let test_pipeline_injected_sweep () =
  (* the full standard stack with a corrupted output per pass: whatever the
     gates decide, the surviving module must behave like the original *)
  let expected = output (compile loopy_src) in
  let rollbacks = ref 0 in
  List.iter
    (fun seed ->
      let m = compile loopy_src in
      let r = Ntools.Passes.run_standard ~fuel:500_000 ~inject_seed:seed m in
      checkb
        (Printf.sprintf "seed %d: final module ok\n%s" seed
           (Noelle.Pipeline.report_to_string r))
        r.Noelle.Pipeline.final_ok;
      rollbacks := !rollbacks + List.length (Noelle.Pipeline.rolled_back r);
      let got, _ = run_parallel m in
      checks (Printf.sprintf "seed %d: output preserved" seed) expected got)
    [ 1; 2; 3; 4; 5 ];
  checkb "the sweep exercised at least one rollback" (!rollbacks > 0)

(* ------------------------------------------------------------------ *)
(* One execution per distinct module                                   *)
(* ------------------------------------------------------------------ *)

(* [config] with an executor that counts its calls *)
let counting ?(config = small_config) () =
  let count = ref 0 in
  let exec m ~args ~fuel =
    incr count;
    config.Noelle.Pipeline.exec m ~args ~fuel
  in
  ({ config with Noelle.Pipeline.exec }, count)

let noop name : Noelle.Pipeline.pass =
  { Noelle.Pipeline.pname = name; papply = (fun _ -> "no change"); plicense = Obs.Exact }

let outcome_is what (e : Noelle.Pipeline.entry) =
  match (what, e.Noelle.Pipeline.eoutcome) with
  | `Committed, Noelle.Pipeline.Committed _ -> true
  | `Differential, Noelle.Pipeline.Rolled_back r -> contains r "differential"
  | _ -> false

let test_noops_execute_once () =
  let m = compile loopy_src in
  let config, count = counting () in
  Ir.Trace.enable ();
  let r, reused =
    Fun.protect
      ~finally:(fun () ->
        Ir.Trace.disable ();
        Ir.Trace.reset ())
      (fun () ->
        let r = Noelle.Pipeline.run ~config m [ noop "a"; noop "b" ] in
        (r, Ir.Trace.counter "pipeline.exec_reused"))
  in
  checki "pipeline.exec_reused counts the skipped runs" 3 (Int64.to_int reused);
  checkb "both no-ops committed"
    (List.for_all (outcome_is `Committed) r.Noelle.Pipeline.entries);
  checkb "final ok" r.Noelle.Pipeline.final_ok;
  checki "only the reference executed, final check included" 1 !count;
  checki "report: executed" 1 r.Noelle.Pipeline.executed;
  checki "report: runs asked for" 4 r.Noelle.Pipeline.runs;
  checkb "summary line counts the runs"
    (contains (Noelle.Pipeline.report_to_string r) "1 of 4 differential runs executed")

(* renames the last block: a new text, the same behaviour *)
let relabel : Noelle.Pipeline.pass =
  {
    Noelle.Pipeline.pname = "relabel";
    papply =
      (fun m ->
        let f = Irmod.func m "main" in
        let b = Func.block f (List.nth (Func.blocks f) (List.length (Func.blocks f) - 1)) in
        Builder.set_label f b.Func.bid (b.Func.label ^ ".renamed");
        "renamed " ^ b.Func.label);
    plicense = Obs.Exact;
  }

let test_rollback_then_noop_reuses_accepted () =
  let m = compile loopy_src in
  let config, count = counting () in
  let r =
    Noelle.Pipeline.run ~config m
      [ relabel; corrupting_pass Faultgen.Drop_store; noop "after" ]
  in
  (match r.Noelle.Pipeline.entries with
  | [ a; b; c ] ->
    checkb "relabel committed" (outcome_is `Committed a);
    checkb "dropped store rolled back by the differential gate"
      (outcome_is `Differential b);
    (* reusing the rejected candidate's behaviours would roll this back;
       re-executing it, or keying on the pristine text, would count 4 *)
    checkb "no-op committed" (outcome_is `Committed c)
  | es -> Alcotest.failf "expected 3 entries, got %d" (List.length es));
  checkb "final ok" r.Noelle.Pipeline.final_ok;
  checki "reference, relabel and the rejected candidate executed" 3 !count

let test_one_ulp_change_reexecutes () =
  let m =
    parse
      {|
define i64 @main() {
entry:
  %1 = fadd 1.5, 0.25
  call.void @print_float(%1)
  ret 0
}
declare void @print_float(f64 %x)
|}
  in
  let nudge : Noelle.Pipeline.pass =
    {
      Noelle.Pipeline.pname = "nudge";
      papply =
        (fun m ->
          let f = Irmod.func m "main" in
          Func.iter_insts
            (fun i ->
              match i.Instr.op with
              | Instr.Fbin (o, Instr.Cfloat x, b) ->
                Builder.set_op f i (Instr.Fbin (o, Instr.Cfloat (Float.succ x), b))
              | _ -> ())
            f;
          "moved a constant by one ulp");
      plicense = Obs.Exact;
    }
  in
  let config, count = counting () in
  let r = Noelle.Pipeline.run ~config m [ nudge ] in
  checki "the nudged module executed too" 2 !count;
  checki "report agrees" 2 r.Noelle.Pipeline.executed;
  checkb "final ok" r.Noelle.Pipeline.final_ok

let test_injected_noop_still_executes () =
  let differential = ref 0 in
  List.iter
    (fun seed ->
      let m = compile loopy_src in
      let config, count = counting () in
      let r = Noelle.Pipeline.run ~config ~inject:seed m [ noop "victim" ] in
      checkb (Printf.sprintf "seed %d: final ok" seed) r.Noelle.Pipeline.final_ok;
      match r.Noelle.Pipeline.entries with
      | [ e ] when outcome_is `Differential e ->
        incr differential;
        checki (Printf.sprintf "seed %d: the corrupted no-op executed" seed) 2 !count
      | [ e ] when e.Noelle.Pipeline.einjected = None ->
        checki (Printf.sprintf "seed %d: nothing injected, nothing run" seed) 1 !count
      | _ -> ())
    [ 1; 2; 3; 4; 5; 6; 7; 8 ];
  checkb "a fault reached the differential gate" (!differential > 0)

let test_standard_stack_exec_counts () =
  List.iter
    (fun (name, expected) ->
      let k = Option.get (Bsuite.Kernels.find name) in
      let m = Bsuite.Kernels.compile k in
      let p, _ = Noelle.Profiler.run ~fuel:k.Bsuite.Kernels.fuel m in
      Noelle.Profiler.embed p m;
      let r =
        Ntools.Passes.run_standard ~fuel:(4 * k.Bsuite.Kernels.fuel) ~vec:true m
      in
      checkb (name ^ ": final ok") r.Noelle.Pipeline.final_ok;
      checki (name ^ ": differential runs asked for") 8 r.Noelle.Pipeline.runs;
      checki (name ^ ": differential runs executed") expected r.Noelle.Pipeline.executed)
    [ ("patricia", 1); ("blackscholes", 4) ]

(* ------------------------------------------------------------------ *)
(* Analysis budgets                                                    *)
(* ------------------------------------------------------------------ *)

let test_analysis_budget_degrades () =
  let m = compile loopy_src in
  let a = Andersen.analyze ~budget:1 m in
  checkb "tiny budget degrades Andersen" a.Andersen.degraded;
  let full = Andersen.analyze m in
  checkb "no budget, no degradation" (not full.Andersen.degraded);
  (* a degraded manager still answers every query, conservatively *)
  let n = Noelle.create ~analysis_budget:1 m in
  ignore (Noelle.callgraph n);
  let f = Irmod.func m "main" in
  let p = Noelle.pdg n f in
  checkb "degradation surfaces on the manager" (Noelle.degraded n);
  checkb "budgeted PDG is flagged degraded" p.Noelle.Pdg.degraded;
  let fullp = Noelle.pdg (Noelle.create m) f in
  checkb "full PDG is not degraded" (not fullp.Noelle.Pdg.degraded);
  checkb "full PDG disproves more pairs than the degraded one"
    (fullp.Noelle.Pdg.mem_pairs_disproved > p.Noelle.Pdg.mem_pairs_disproved)

let test_budgeted_pipeline_still_correct () =
  let expected = output (compile loopy_src) in
  let m = compile loopy_src in
  let r = Ntools.Passes.run_standard ~fuel:500_000 ~analysis_budget:5 m in
  checkb "budgeted pipeline final ok" r.Noelle.Pipeline.final_ok;
  let got, _ = run_parallel m in
  checks "budgeted pipeline preserves behaviour" expected got

(* ------------------------------------------------------------------ *)
(* Degraded-mode parallel execution                                    *)
(* ------------------------------------------------------------------ *)

let parallelized_copy src =
  let m = compile src in
  let n = Noelle.create m in
  let results = Ntools.Doall.run n m ~ncores:4 ~min_hotness:0.0 ~min_work:0.0 () in
  checkb "DOALL parallelized at least one loop"
    (List.exists (fun (_, r) -> Result.is_ok r) results);
  m

let test_psim_no_fault () =
  let original = compile loopy_src in
  let expected = output original in
  let m = parallelized_copy loopy_src in
  let r = Psim.Runtime.run_resilient ~original m in
  checkb "parallel mode" (r.Psim.Runtime.rmode = `Parallel);
  checki "no restarts" 0 r.Psim.Runtime.rrun.Interp.setup.Psim.Runtime.restarts;
  checks "output" expected (String.trim (Interp.output r.Psim.Runtime.rrun))

let test_psim_retry () =
  let original = compile loopy_src in
  let expected = output original in
  let m = parallelized_copy loopy_src in
  (* sweep seeds: transient faults must always be healed by re-execution,
     and at least one seed must actually kill a task *)
  let restarts = ref 0 in
  List.iter
    (fun seed ->
      let fault = Psim.Runtime.seeded_fault ~seed () in
      let r = Psim.Runtime.run_resilient ~fault ~original m in
      checkb (Printf.sprintf "seed %d: stayed parallel" seed)
        (r.Psim.Runtime.rmode = `Parallel);
      checks (Printf.sprintf "seed %d: output" seed) expected
        (String.trim (Interp.output r.Psim.Runtime.rrun));
      restarts := !restarts + r.Psim.Runtime.rrun.Interp.setup.Psim.Runtime.restarts;
      List.iter
        (fun (ev : Psim.Runtime.task_event) ->
          match ev with
          | Psim.Runtime.Task_died { tid; attempt; _ } ->
            checkb
              (Printf.sprintf "seed %d: task %d death on attempt %d was retried" seed
                 tid attempt)
              (List.exists
                 (function
                   | Psim.Runtime.Task_ok { tid = tid'; attempt = a' } ->
                     tid' = tid && a' > attempt
                   | _ -> false)
                 (Psim.Runtime.dispositions r.Psim.Runtime.rrun.Interp.setup))
          | _ -> ())
        (Psim.Runtime.dispositions r.Psim.Runtime.rrun.Interp.setup))
    [ 1; 2; 3; 4; 5; 6 ];
  checkb "the sweep exercised at least one restart" (!restarts > 0)

let test_psim_sequential_fallback () =
  let original = compile loopy_src in
  let expected = output original in
  let m = parallelized_copy loopy_src in
  let fault = Psim.Runtime.persistent_fault ~max_restarts:2 ~tid:0 () in
  let r = Psim.Runtime.run_resilient ~fault ~original m in
  checkb "fell back to sequential" (r.Psim.Runtime.rmode = `Sequential_fallback);
  checki "used the whole restart budget" 2 r.Psim.Runtime.rrun.Interp.setup.Psim.Runtime.restarts;
  checks "fallback output is the original's" expected
    (String.trim (Interp.output r.Psim.Runtime.rrun));
  checki "three failed attempts logged" 3
    (List.length
       (List.filter
          (function Psim.Runtime.Task_died { tid = 0; _ } -> true | _ -> false)
          (Psim.Runtime.dispositions r.Psim.Runtime.rrun.Interp.setup)));
  checkb "abandonment recorded"
    (List.exists
       (function Psim.Runtime.Section_abandoned _ -> true | _ -> false)
       (Psim.Runtime.dispositions r.Psim.Runtime.rrun.Interp.setup))

let suite =
  [
    tc "snapshot restore" test_snapshot_restore;
    tc "snapshot diff" test_snapshot_diff;
    tc "verifier rejects mid-block terminator" test_verifier_mid_terminator;
    tc "verifier rejects phi mismatch" test_verifier_phi_mismatch;
    tc "verifier rejects use-before-def" test_verifier_use_before_def;
    tc "verifier rejects duplicate labels" test_verifier_duplicate_label;
    tc "pipeline rolls back structural faults" test_pipeline_rolls_back_structural;
    tc "pipeline rolls back semantic faults" test_pipeline_rolls_back_semantic;
    tc "pipeline commits good passes" test_pipeline_commits_good_pass;
    tc "pipeline times out runaway passes" test_pipeline_times_out;
    tc "pipeline injected-fault sweep" test_pipeline_injected_sweep;
    tc "pipeline no-ops execute once" test_noops_execute_once;
    tc "pipeline rollback then no-op reuses accepted" test_rollback_then_noop_reuses_accepted;
    tc "pipeline one-ulp change re-executes" test_one_ulp_change_reexecutes;
    tc "pipeline injected no-op still executes" test_injected_noop_still_executes;
    tc "pipeline standard stack exec counts" test_standard_stack_exec_counts;
    tc "analysis budget degrades gracefully" test_analysis_budget_degrades;
    tc "budgeted pipeline stays correct" test_budgeted_pipeline_still_correct;
    tc "psim fault-free resilient run" test_psim_no_fault;
    tc "psim transient faults retried" test_psim_retry;
    tc "psim sequential fallback" test_psim_sequential_fallback;
  ]
