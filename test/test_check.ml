(** noelle-check: the static race detector and sanitizer suite, plus direct
    unit tests for the DFE canned analyses it consumes. *)

open Helpers
open Ir
module Check = Noelle.Check
module Dfe = Noelle.Dfe

let find_inst pred f =
  Func.fold_insts (fun acc i -> if pred i then Some i else acc) None f

let stores_to_const f =
  Func.fold_insts
    (fun acc (i : Instr.inst) ->
      match i.Instr.op with Instr.Store (Instr.Cint n, _) -> (n, i) :: acc | _ -> acc)
    [] f

let diags_of ?checks m = (Check.run ?checks m).Check.diags

let has_diag ?(did = "") diags (i : Instr.inst) =
  List.exists
    (fun (d : Check.diag) ->
      d.Check.dloc.Check.linst = i.Instr.id && (did = "" || d.Check.did = did))
    diags

(* ------------------------------------------------------------------ *)
(* DFE canned analyses: direct unit tests                              *)
(* ------------------------------------------------------------------ *)

let test_dfe_liveness_loop () =
  let m =
    compile
      {|
int main() {
  int n = clock() + 10;
  int s = 0;
  for (int i = 0; i < n; i++) { s = s + i; }
  print(s);
  return 0;
}
|}
  in
  let f = Irmod.func m "main" in
  let live = Dfe.liveness f in
  checkb "fixpoint took iterations" (live.Dfe.iterations > 0);
  (* n is used by the loop test every iteration: its definition must be
     live-out of the entry block *)
  let n_def =
    find_inst
      (fun i ->
        match i.Instr.op with
        | Instr.Bin (Instr.Add, _, Instr.Cint 10L) -> true
        | _ -> false)
      f
    |> Option.get
  in
  checkb "n live-out of entry"
    (Dfe.IntSet.mem n_def.Instr.id (Hashtbl.find live.Dfe.out (Func.entry f)));
  (* the reported iteration count is a real fixpoint measure: at least one
     transfer per block *)
  checkb "iterations cover the CFG"
    (live.Dfe.iterations >= List.length (Func.blocks f))

let test_dfe_reaching_stores_kill () =
  let m =
    compile
      {|
int main() {
  int a[4];
  a[0] = 1;
  if (clock() > 0) { a[0] = 2; } else { a[0] = 3; }
  print(a[0]);
  return 0;
}
|}
  in
  let f = Irmod.func m "main" in
  let res = Dfe.reaching_stores m f in
  let store n = List.assoc n (stores_to_const f) in
  let load =
    find_inst (fun i -> match i.Instr.op with Instr.Load _ -> true | _ -> false) f
    |> Option.get
  in
  let reaching = Hashtbl.find res.Dfe.in_ load.Instr.parent in
  (* the initial store is must-overwritten on both paths; the branch
     stores both reach the join *)
  checkb "store 2 reaches join" (Dfe.IntSet.mem (store 2L).Instr.id reaching);
  checkb "store 3 reaches join" (Dfe.IntSet.mem (store 3L).Instr.id reaching);
  checkb "store 1 killed on both paths"
    (not (Dfe.IntSet.mem (store 1L).Instr.id reaching))

let test_dfe_live_memory () =
  let m =
    compile
      {|
int main() {
  int a[4];
  a[0] = 1;
  if (clock() > 0) { a[0] = 2; }
  print(a[0]);
  return 0;
}
|}
  in
  let f = Irmod.func m "main" in
  let res = Dfe.live_memory m f in
  let load =
    find_inst (fun i -> match i.Instr.op with Instr.Load _ -> true | _ -> false) f
    |> Option.get
  in
  let store1 = List.assoc 1L (stores_to_const f) in
  (* the load is downstream of the first store: it must be live-out of the
     store's block (the conditional overwrite cannot kill it on the
     fall-through path) *)
  checkb "load live-out of entry"
    (Dfe.IntSet.mem load.Instr.id (Hashtbl.find res.Dfe.out store1.Instr.parent))

(* ------------------------------------------------------------------ *)
(* Sanitizer checkers                                                  *)
(* ------------------------------------------------------------------ *)

let test_uninit_load () =
  let m =
    compile
      {|
int main() {
  int a[4];
  print(a[0]);
  return 0;
}
|}
  in
  let f = Irmod.func m "main" in
  let load =
    find_inst (fun i -> match i.Instr.op with Instr.Load _ -> true | _ -> false) f
    |> Option.get
  in
  let diags = diags_of ~checks:[ "san.uninit-load" ] m in
  checkb "uninit load flagged" (has_diag ~did:"san.uninit-load" diags load)

let test_uninit_load_negative () =
  let clean =
    compile
      {|
int main() {
  int a[4];
  a[0] = 1;
  print(a[0]);
  return 0;
}
|}
  in
  checki "stored array is clean" 0
    (List.length (diags_of ~checks:[ "san.uninit-load" ] clean));
  (* a store on only one path still reaches: may-initialized is not
     reported (the checker only fires on definitely-uninitialized) *)
  let partial =
    compile
      {|
int main() {
  int a[4];
  if (clock() > 0) { a[0] = 1; }
  print(a[0]);
  return 0;
}
|}
  in
  checki "may-initialized not reported" 0
    (List.length (diags_of ~checks:[ "san.uninit-load" ] partial))

let test_dead_store () =
  let m =
    compile
      {|
int main() {
  int a[4];
  a[0] = 1;
  a[0] = 2;
  print(a[0]);
  return 0;
}
|}
  in
  let f = Irmod.func m "main" in
  let diags = diags_of ~checks:[ "san.dead-store" ] m in
  checkb "overwritten store flagged"
    (has_diag ~did:"san.dead-store" diags (List.assoc 1L (stores_to_const f)));
  checkb "live store not flagged"
    (not (has_diag diags (List.assoc 2L (stores_to_const f))))

let test_dead_store_negative () =
  let m =
    compile
      {|
int main() {
  int a[4];
  a[0] = 1;
  if (clock() > 0) { a[0] = 2; }
  print(a[0]);
  return 0;
}
|}
  in
  checki "conditionally-overwritten store is live" 0
    (List.length (diags_of ~checks:[ "san.dead-store" ] m))

(* heap checkers need malloc/free: built directly as IR *)
let heap_module build =
  let m = Irmod.create ~name:"heap" () in
  Faultgen.declare_alloc_builtins m;
  let f = Func.create ~name:"main" ~params:[] ~ret:Ty.I64 in
  let b = Builder.add_block f ~label:"entry" in
  let p =
    Builder.add f b.Func.bid (Instr.Call (Instr.Glob "malloc", [ Instr.Cint 2L ])) Ty.Ptr
  in
  build f b p;
  ignore (Builder.set_term f b.Func.bid (Instr.Ret (Some (Instr.Cint 0L))));
  Irmod.add_func m f;
  m

let test_use_after_free () =
  let faulty = ref None in
  let m =
    heap_module (fun f b p ->
        ignore
          (Builder.add f b.Func.bid
             (Instr.Call (Instr.Glob "free", [ Instr.Reg p.Instr.id ]))
             Ty.Void);
        faulty :=
          Some
            (Builder.add f b.Func.bid
               (Instr.Store (Instr.Cint 7L, Instr.Reg p.Instr.id))
               Ty.Void))
  in
  let diags = diags_of ~checks:[ "san.heap" ] m in
  checkb "store after free flagged"
    (has_diag ~did:"san.use-after-free" diags (Option.get !faulty))

let test_double_free () =
  let faulty = ref None in
  let m =
    heap_module (fun f b p ->
        ignore
          (Builder.add f b.Func.bid
             (Instr.Call (Instr.Glob "free", [ Instr.Reg p.Instr.id ]))
             Ty.Void);
        faulty :=
          Some
            (Builder.add f b.Func.bid
               (Instr.Call (Instr.Glob "free", [ Instr.Reg p.Instr.id ]))
               Ty.Void))
  in
  let diags = diags_of ~checks:[ "san.heap" ] m in
  checkb "second free flagged"
    (has_diag ~did:"san.double-free" diags (Option.get !faulty))

let test_heap_negative () =
  let m =
    heap_module (fun f b p ->
        ignore
          (Builder.add f b.Func.bid
             (Instr.Store (Instr.Cint 7L, Instr.Reg p.Instr.id))
             Ty.Void);
        ignore
          (Builder.add f b.Func.bid
             (Instr.Call (Instr.Glob "free", [ Instr.Reg p.Instr.id ]))
             Ty.Void))
  in
  checki "store-then-free is clean" 0
    (List.length (diags_of ~checks:[ "san.heap" ] m))

let test_oob_constant () =
  let m =
    compile
      {|
int main() {
  int a[4];
  a[0] = 1;
  a[5] = 2;
  print(a[0]);
  return 0;
}
|}
  in
  let f = Irmod.func m "main" in
  let diags = diags_of ~checks:[ "san.oob-gep" ] m in
  checkb "constant index past the end flagged"
    (has_diag ~did:"san.oob-gep" diags (List.assoc 2L (stores_to_const f)));
  checkb "in-bounds store not flagged"
    (not (has_diag diags (List.assoc 1L (stores_to_const f))))

let test_oob_affine () =
  let bad =
    compile
      {|
int main() {
  int a[4];
  for (int i = 0; i < 8; i++) { a[i] = i; }
  print(a[0]);
  return 0;
}
|}
  in
  let diags = diags_of ~checks:[ "san.oob-gep" ] bad in
  checkb "affine overrun flagged"
    (List.exists (fun (d : Check.diag) -> d.Check.did = "san.oob-gep") diags);
  let good =
    compile
      {|
int main() {
  int a[4];
  for (int i = 0; i < 4; i++) { a[i] = i; }
  print(a[0]);
  return 0;
}
|}
  in
  checki "in-bounds affine loop is clean" 0
    (List.length (diags_of ~checks:[ "san.oob-gep" ] good))

(* ------------------------------------------------------------------ *)
(* The race detector and the pipeline gate                             *)
(* ------------------------------------------------------------------ *)

let two_loop_src =
  {|
int A[100];
int main() {
  for (int i = 0; i < 100; i++) { A[i] = i * 3; }
  for (int j = 1; j < 100; j++) { A[j] = A[j - 1] + 1; }
  print(A[99]);
  return 0;
}
|}

let loop_keys m =
  let f = Irmod.func m "main" in
  let nest = Loopnest.compute f in
  List.map (fun l -> Ids.loop_key f l) nest.Loopnest.loops

let test_race_two_loops () =
  let m = compile two_loop_src in
  let keys = loop_keys m in
  checki "two loops" 2 (List.length keys);
  let flagged = Check.race_flagged_loops m in
  (* exactly the recurrence loop is flagged *)
  checki "one loop flagged" 1 (Hashtbl.length flagged);
  let diags = diags_of ~checks:[ "race.loop-carried" ] m in
  let in_key k (d : Check.diag) =
    d.Check.did = "race.loop-carried"
    && String.length d.Check.dmsg >= String.length ("loop " ^ k)
    && String.sub d.Check.dmsg 5 (String.length k) = k
  in
  let safe, unsafe =
    match keys with [ a; b ] -> (a, b) | _ -> Alcotest.fail "expected two loops"
  in
  (* loop keys come outermost-first in layout order: first is the safe one *)
  checkb "unsafe loop flagged" (Hashtbl.mem flagged unsafe);
  checkb "safe loop not flagged" (not (Hashtbl.mem flagged safe));
  checkb "diag names the unsafe loop" (List.exists (in_key unsafe) diags);
  (* the offending dependence is named: a RAW between the A[j]/A[j-1] pair *)
  checkb "dependence sort named"
    (List.exists
       (fun (d : Check.diag) ->
         in_key unsafe d
         &&
         let has s =
           let sl = String.length s and ml = String.length d.Check.dmsg in
           let rec go k = k + sl <= ml && (String.sub d.Check.dmsg k sl = s || go (k + 1)) in
           go 0
         in
         has "RAW")
       diags)

let test_race_gate_doall () =
  let m = compile two_loop_src in
  let safe, unsafe =
    match loop_keys m with [ a; b ] -> (a, b) | _ -> Alcotest.fail "two loops"
  in
  let n = Noelle.create m in
  let skip = Ntools.Lint.race_gate m in
  let results =
    Ntools.Doall.run n m ~ncores:4 ~min_hotness:0.0 ~min_work:0.0 ~skip ()
  in
  let result_of k = List.assoc_opt k results in
  (match result_of unsafe with
  | Some (Error e) -> checkb "unsafe loop skipped by gate"
      (String.length e >= 7 && String.sub e 0 7 = "skipped")
  | _ -> Alcotest.fail "unsafe loop should be refused by the race gate");
  (match result_of safe with
  | Some (Ok _) -> ()
  | Some (Error e) -> Alcotest.failf "safe loop not parallelized: %s" e
  | None -> Alcotest.fail "safe loop never attempted");
  verifies "gated module verifies" m

let test_race_gate_pipeline () =
  (* end-to-end: the gated standard stack still preserves behaviour *)
  let m = compile two_loop_src in
  let expected = output m in
  let m2 = compile two_loop_src in
  let report = Ntools.Passes.run_standard ~check_races:true m2 in
  checkb "pipeline final module ok" report.Noelle.Pipeline.final_ok;
  let got, _ = run_parallel m2 in
  checks "gated pipeline preserves output" expected got

(* ------------------------------------------------------------------ *)
(* Engine: suppression, JSON, stats                                    *)
(* ------------------------------------------------------------------ *)

let uninit_module () =
  compile {|
int main() {
  int a[4];
  print(a[0]);
  return 0;
}
|}

(** Record an instruction-granular suppression in the module metadata. *)
let suppress (m : Irmod.t) ~did ~fname ~inst =
  Meta.set m.Irmod.meta (Printf.sprintf "check.suppress.%s.%s.%d" did fname inst) "1"

let test_suppression () =
  let m = uninit_module () in
  let r = Check.run ~checks:[ "san.uninit-load" ] m in
  (match Check.errors r with
  | [ d ] ->
    suppress m ~did:d.Check.did ~fname:d.Check.dloc.Check.lfunc
      ~inst:d.Check.dloc.Check.linst;
    let r2 = Check.run ~checks:[ "san.uninit-load" ] m in
    checki "suppressed error no longer gates" 0 (List.length (Check.errors r2));
    checkb "diagnostic still emitted, marked suppressed"
      (List.exists (fun d -> d.Check.dsuppressed) r2.Check.diags)
  | ds -> Alcotest.failf "expected one error, got %d" (List.length ds));
  (* module-wide suppression of a whole check id *)
  let m2 = uninit_module () in
  Ir.Meta.set m2.Irmod.meta "check.suppress.san.uninit-load" "1";
  checki "check-wide suppression" 0
    (List.length (Check.errors (Check.run ~checks:[ "san.uninit-load" ] m2)))

let test_suppression_roundtrip () =
  (* suppressions survive printing and reparsing the module *)
  let m = uninit_module () in
  let r = Check.run ~checks:[ "san.uninit-load" ] m in
  let d = List.hd (Check.errors r) in
  suppress m ~did:d.Check.did ~fname:d.Check.dloc.Check.lfunc
    ~inst:d.Check.dloc.Check.linst;
  let m' = Ir.Parser.parse_module ~name:"t" (Ir.Printer.module_str m) in
  checki "suppression survives print/parse" 0
    (List.length (Check.errors (Check.run ~checks:[ "san.uninit-load" ] m')))

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go k = k + nl <= hl && (String.sub hay k nl = needle || go (k + 1)) in
  go 0

let test_json_and_stats () =
  let m = uninit_module () in
  let r = Check.run m in
  let js = Check.report_to_json ~mname:"t" r in
  checkb "json has module" (contains js "\"module\":\"t\"");
  checkb "json has an error count" (contains js "\"errors\":1");
  checkb "json has the check id" (contains js "\"check\":\"san.uninit-load\"");
  checkb "json has stats" (contains js "\"iterations\":");
  checkb "stats cover every checker"
    (List.length r.Check.rstats = List.length Check.all);
  checkb "uninit checker charged DFE iterations"
    (List.exists
       (fun (s : Check.checker_stats) ->
         s.Check.sname = "san.uninit-load" && s.Check.siters > 0)
       r.Check.rstats)

(* ------------------------------------------------------------------ *)
(* Differential soundness: planted sanitizer faults                    *)
(* ------------------------------------------------------------------ *)

let test_planted_faults_detected () =
  let sanitizer_checks = [ "san.uninit-load"; "san.heap"; "san.oob-gep" ] in
  for seed = 1 to 50 do
    let m =
      Minic.Lower.compile ~name:(Printf.sprintf "fuzz%d" seed)
        (Bsuite.Generator.program seed)
    in
    match Faultgen.inject_info ~kinds:[ Faultgen.Uninit_load; Faultgen.Wild_store ] ~seed m with
    | None -> Alcotest.failf "seed %d: no plant site" seed
    | Some info ->
      (* static: a diagnostic at exactly the faulted instruction *)
      let r = Check.run ~checks:sanitizer_checks m in
      checkb
        (Printf.sprintf "seed %d: %s reported statically" seed info.Faultgen.idesc)
        (List.exists
           (fun (d : Check.diag) ->
             d.Check.dloc.Check.lfunc = info.Faultgen.ifunc
             && d.Check.dloc.Check.linst = info.Faultgen.iinst)
           r.Check.diags);
      (* dynamic: the interpreter's memory oracle confirms the bug is real *)
      let ev = Sanitizer_oracle.sanitize ~fuel:300_000 m in
      checkb
        (Printf.sprintf "seed %d: %s confirmed dynamically" seed info.Faultgen.idesc)
        (Sanitizer_oracle.confirms ev ~func:info.Faultgen.ifunc ~inst:info.Faultgen.iinst)
  done

let test_pristine_modules_clean () =
  (* no checker may error on healthy modules: benchmark kernels... *)
  each_kernel (fun k m ->
      let r = Check.run m in
      checki (k.Bsuite.Kernels.kname ^ " clean") 0 (List.length (Check.errors r)));
  (* ...and a sweep of fuzzer outputs *)
  for seed = 1 to 10 do
    let m =
      Minic.Lower.compile ~name:(Printf.sprintf "fuzz%d" seed)
        (Bsuite.Generator.program seed)
    in
    checki (Printf.sprintf "fuzz%d clean" seed) 0
      (List.length (Check.errors (Check.run m)))
  done

let suite =
  [
    tc "dfe: liveness in a loop" test_dfe_liveness_loop;
    tc "dfe: reaching-stores must-alias kill" test_dfe_reaching_stores_kill;
    tc "dfe: live-memory keeps observed stores" test_dfe_live_memory;
    tc "san: uninit load" test_uninit_load;
    tc "san: uninit load negatives" test_uninit_load_negative;
    tc "san: dead store" test_dead_store;
    tc "san: dead store negative" test_dead_store_negative;
    tc "san: use after free" test_use_after_free;
    tc "san: double free" test_double_free;
    tc "san: heap negative" test_heap_negative;
    tc "san: oob constant index" test_oob_constant;
    tc "san: oob affine index" test_oob_affine;
    tc "race: flags exactly the recurrence loop" test_race_two_loops;
    tc "race: DOALL gate skips the flagged loop" test_race_gate_doall;
    tc "race: gated pipeline preserves output" test_race_gate_pipeline;
    tc "engine: suppression" test_suppression;
    tc "engine: suppression round-trips" test_suppression_roundtrip;
    tc "engine: json and stats" test_json_and_stats;
    tc "differential: planted faults detected" test_planted_faults_detected;
    tc "differential: pristine modules clean" test_pristine_modules_clean;
  ]
