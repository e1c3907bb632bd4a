(** The compiled-layout interpreter against its differential oracle.

    {!Interp_oracle} is the per-step loop the layouts replaced.  Each input
    runs through both on a fresh state with the {!Ir.Obs} recorder and the
    profiler attached (the fast loop with {!Noelle.Profiler.attach} and the
    allocation sites its steps record, the oracle with the profiler's
    former hooks and the recorder's former site hook), and everything
    observable must agree: exit value or exact trap text, output, steps,
    virtual clock, remaining fuel, the event trace and the profile
    tables. *)

open Helpers
open Ir

let profile_lines (p : Noelle.Profiler.t) =
  let rows tbl show =
    Hashtbl.fold (fun k c acc -> Printf.sprintf "%s %Ld" (show k) c :: acc) tbl []
    |> List.sort compare
  in
  (("total " ^ Int64.to_string p.Noelle.Profiler.total_insts)
   :: rows p.block_counts (fun (f, l) -> "block " ^ f ^ "." ^ l))
  @ rows p.edge_counts (fun (f, i, l) -> Printf.sprintf "edge %s.%d.%s" f i l)
  @ rows p.fn_insts (( ^ ) "fninsts ")
  @ rows p.fn_calls (( ^ ) "fncalls ")
  @ rows p.call_pair (fun (a, b) -> "callpair " ^ a ^ "." ^ b)

(* everything one run exposes, rendered for exact comparison: the
   profiler and the Obs recorder share the run, as they share hooks *)
let observe ?(install = ignore) (call, attach_profile) ~fuel m =
  let sites = Obs.escape_sites m in
  let st = Interp.create m in
  st.Interp.fuel <- fuel;
  let profile = attach_profile st in
  let rc = Obs.attach ~sites st in
  install st;
  let outcome =
    match call st "main" [] with
    | v ->
      Obs.finish rc (Obs.Exit (Obs.render rc v));
      "exit " ^ Interp.v_to_string v
    | exception Interp.Trap msg ->
      Obs.finish rc (Obs.terminal_of_trap msg);
      "trap " ^ msg
    | exception e -> "raised " ^ Printexc.to_string e
  in
  [ outcome;
    Printf.sprintf "steps=%d clock=%d fuel=%d" st.Interp.steps st.Interp.clock st.Interp.fuel;
    "output:"; Buffer.contents st.Interp.output; "trace:" ]
  @ List.map Obs.event_display (Obs.events rc)
  @ ("profile:" :: profile_lines (profile ()))

let oracle =
  ( Interp_oracle.call,
    fun st ->
      let p = Interp_oracle.attach_profile st in
      Interp_oracle.attach_sites st;
      fun () -> p )
let fast = (Interp.call, Noelle.Profiler.attach)

(* [fresh ()] gives each run its own copy of the module *)
let same ?install name ~fuel fresh =
  Alcotest.(check (list string)) name
    (observe ?install oracle ~fuel (fresh ())) (observe ?install fast ~fuel (fresh ()))

let fuzz_fuel = 3_000_000

let test_kernels () =
  List.iter
    (fun (k : Bsuite.Kernels.kernel) ->
      same k.Bsuite.Kernels.kname ~fuel:k.Bsuite.Kernels.fuel (fun () ->
          Bsuite.Kernels.compile k))
    Bsuite.Kernels.all

let fuzz seed = Minic.Lower.compile ~name:"fuzz" (Bsuite.Generator.program seed)

let test_fuzz_seeds () =
  for seed = 1 to 50 do
    same (Printf.sprintf "seed %d" seed) ~fuel:fuzz_fuel (fun () -> fuzz seed)
  done

(* each plant on the first 8 seeds that have a site for it; the planted
   modules fail (traps, bad phis, early returns), so the trap texts and
   the partial traces are what is compared *)
let test_fault_plants () =
  List.iter
    (fun kind ->
      let planted = ref 0 in
      for seed = 1 to 40 do
        if !planted < 8 then begin
          let fresh () =
            let m = fuzz seed in
            (m, Faultgen.inject ~kinds:[ kind ] ~seed m)
          in
          match fresh () with
          | _, None -> ()
          | _, Some _ ->
            incr planted;
            same
              (Printf.sprintf "%s seed %d" (Faultgen.kind_to_string kind) seed)
              ~fuel:fuzz_fuel
              (fun () -> fst (fresh ()))
        end
      done;
      checki (Faultgen.kind_to_string kind ^ ": planted") 8 !planted)
    Faultgen.[ Undef_operand; Corrupt_phi_edge; Mid_terminator; Uninit_load; Wild_store ]

(* one faulty instruction per module, with every operand bad where the
   op has several, so the trap text pins the operand evaluation order *)
let trap_bodies =
  [ "%1 = add 1.5, 2.5";
    "%1 = sdiv 1, 0";
    "%1 = fadd 1, 2";
    "%1 = icmp.slt 1.5, 2.5";
    "%1 = fcmp.slt 1, 2";
    "%1 = gep 1.5, 2.5";
    "%1 = sitofp 1.5";
    "%1 = alloca -1";
    "%1 = load.i64 null";
    "%1 = store %8, %9";
    "%1 = store 1, 2.5";
    "%1 = select.i64 %8, %9, %10";
    "%1 = select.i64 0, %9, %10";
    "%1 = call.void @print(%8, %9)";
    "%1 = call.i64 @nosuch()";
    "%1 = call.i64 @two(1)";
    "%1 = inttoptr 12345\n  %2 = call.i64 %1()";
    "%1 = cbr 1.5, entry, entry";
    "%1 = ret %7";
    "%1 = unreachable";
    "%1 = add @nowhere, 1" ]

let test_trap_paths () =
  List.iter
    (fun body ->
      let src =
        Printf.sprintf
          "module \"t\"\ndefine i64 @two(i64 %%a, i64 %%b) {\nentry:\n  %%3 = ret %%a\n}\n\
           define i64 @main() {\nentry:\n  %s\n  %%20 = ret 0\n}\ndeclare void @print(i64 %%a0)\n"
          body
      in
      same body ~fuel:1000 (fun () -> Parser.parse_module src))
    trap_bodies;
  (* a branch to a block that does not exist, and phis with no incoming
     value for the edge taken *)
  let broken edit () =
    let m = compile "int main() { int s = 0; for (int i = 0; i < 3; i++) { s += i; } print(s); return 0; }" in
    let f = Irmod.func m "main" in
    Func.iter_insts (fun i -> Option.iter (Builder.set_op f i) (edit i.Instr.op)) f;
    m
  in
  same "missing block" ~fuel:1000
    (broken (function Instr.Br _ -> Some (Instr.Br 999) | _ -> None));
  same "phi without edge" ~fuel:1000
    (broken (function
         | Instr.Phi incs -> Some (Instr.Phi (List.map (fun (p, v) -> (p + 1000, v)) incs))
         | _ -> None))

(* an escaping malloc reached through a helper, after a non-escaping
   alloca, a non-escaping malloc and a builtin call: every allocation
   before it must leave no site behind, so the escaping objects are
   heap#0 and heap#1 in both loops *)
let test_helper_malloc_site () =
  let src =
    {|
int *g;
int *h;
int *mk(int n) { int *p = malloc(n); return p; }
int main() {
  int local[4];
  int *tmp = malloc(3);
  for (int i = 0; i < 4; i++) { local[i] = i; tmp[i % 3] = i; }
  print(local[3] + tmp[0]);
  g = mk(4);
  h = mk(2);
  for (int i = 0; i < 4; i++) { g[i] = local[i] * 2; }
  h[1] = 7;
  print(g[3]);
  return 0;
}
|}
  in
  let observed = observe fast ~fuel:100_000 (compile src) in
  List.iter
    (fun event -> checkb (event ^ " in the trace") (List.mem event observed))
    [ "store @g[0] = &heap#0"; "store heap#0[3] = 6"; "store @h[0] = &heap#1";
      "store heap#1[1] = 7" ];
  same "helper malloc" ~fuel:100_000 (fun () -> compile src)

let test_fuel_exhaustion () =
  let k = List.hd Bsuite.Kernels.all in
  let m () = Bsuite.Kernels.compile k in
  checkb "runs out" (String.starts_with ~prefix:"trap" (List.hd (observe fast ~fuel:5_000 (m ()))));
  same "fuel 5000" ~fuel:5_000 m

(* ------------------------------------------------------------------ *)
(* Unboxed words                                                       *)
(* ------------------------------------------------------------------ *)

let ir body =
  Printf.sprintf
    "module \"t\"\nglobal @g = 4\nglobal @p = 1\n%s\n\
     declare ptr @malloc(i64 %%a0)\ndeclare void @print(i64 %%a0)\n\
     declare void @print_float(f64 %%a0)\n"
    body

(* [main]'s float result, as bits, from each loop *)
let result_bits m =
  List.map
    (fun (call, _) ->
      match call (Interp.create (m ())) "main" [] with
      | Interp.VF x -> Int64.bits_of_float x
      | v -> Alcotest.failf "main returned %s" (Interp.v_to_string v))
    [ oracle; fast ]

(* a float stored, loaded, sent through a phi and a select, and returned *)
let test_float_bits () =
  let src =
    ir
      "define f64 @main() {\nentry:\n  %1 = store 0.5, @g\n  %2 = load.f64 @g\n\
      \  %3 = br next\nnext:\n  %4 = phi.f64 [entry: %2]\n\
      \  %5 = select.f64 1, %4, 0.0\n  %6 = ret %5\n}"
  in
  List.iter
    (fun (what, bits) ->
      let m () =
        let m = Parser.parse_module src in
        let f = Irmod.func m "main" in
        Func.iter_insts
          (fun i ->
            match i.Instr.op with
            | Instr.Store (_, p) ->
              Builder.set_op f i (Instr.Store (Instr.Cfloat (Int64.float_of_bits bits), p))
            | _ -> ())
          f;
        m
      in
      List.iter
        (fun got -> check Alcotest.int64 (what ^ ": same bits") bits got)
        (result_bits m);
      same what ~fuel:100 m)
    [ ("NaN payload", 0x7ff8_0000_dead_beefL); ("-0.0", Int64.bits_of_float (-0.0));
      ("subnormal", 1L) ]

(* a pointer through memory and a select prints as one *)
let test_pointer_stays_pointer () =
  let m () =
    Parser.parse_module
      (ir
         "define ptr @main() {\nentry:\n  %1 = call.ptr @malloc(2)\n\
         \  %2 = store %1, @p\n  %3 = load.ptr @p\n  %4 = select.ptr 1, %3, null\n\
         \  %5 = call.void @print(%4)\n  %6 = ret %4\n}")
  in
  let observed = observe fast ~fuel:100 (m ()) in
  checkb "returns a pointer" (String.starts_with ~prefix:"exit &" (List.hd observed));
  checkb "prints a pointer" (String.starts_with ~prefix:"&" (List.nth observed 3));
  same "pointer" ~fuel:100 m

(* a word changes type when a store of the other type overwrites it *)
let test_retyped_words () =
  let m () =
    Parser.parse_module
      (ir
         "define i64 @main() {\nentry:\n  %1 = store 2.5, @g\n  %2 = store 7, @g\n\
         \  %3 = load.i64 @g\n  %4 = call.void @print(%3)\n  %5 = gep @g, 1\n\
         \  %6 = store 9, %5\n  %7 = store 1.25, %5\n  %8 = load.f64 %5\n\
         \  %9 = call.void @print_float(%8)\n  %10 = ret 0\n}")
  in
  checks "output" "7\n1.250000\n" (List.nth (observe fast ~fuel:100 (m ())) 3);
  same "retyped words" ~fuel:100 m

(* the typed readers' traps on frame words, operands read right to left *)
let test_mistyped_slots () =
  List.iter
    (fun (body, expected) ->
      let m () =
        Parser.parse_module
          (ir
             (Printf.sprintf
                "define i64 @main() {\nentry:\n  %%1 = fadd 1.5, 0.0\n  %%2 = fadd 2.5, 0.0\n\
                 \  %%3 = gep @g, 1\n  %%4 = gep @g, 2\n  %%5 = add 3, 0\n  %s\n  %%20 = ret 0\n}"
                body))
      in
      let outcome = List.hd (observe fast ~fuel:100 (m ())) in
      checkb (Printf.sprintf "%s: %s in %S" body expected outcome) (Obs.has_sub outcome expected);
      same body ~fuel:100 m)
    [ ("%10 = add %1, %2", "expected integer, got float 2.5");
      ("%10 = add %5, %1", "expected integer, got float 1.5");
      ("%10 = fadd %3, %4", "expected float, got pointer");
      ("%10 = fadd %1, %5", "expected float, got int 3");
      ("%10 = load.i64 %1", "expected pointer, got float 1.5");
      ("%10 = gep %1, %2", "expected integer, got float 2.5");
      ("%10 = gep %1, %5", "expected pointer, got float 1.5");
      ("%10 = store %5, %2", "expected pointer, got float 2.5") ]

(* a register defined later in the frame, read through each word copy *)
let test_copies_before_definition () =
  List.iter
    (fun (name, body) ->
      let m () = Parser.parse_module (ir ("define i64 @main() {\nentry:\n" ^ body ^ "\n}")) in
      let outcome = List.hd (observe fast ~fuel:100 (m ())) in
      checkb (name ^ ": " ^ outcome) (Obs.has_sub outcome "register %5 read before definition");
      same name ~fuel:100 m)
    [ ("phi source",
       "  %1 = br next\nnext:\n  %2 = phi.i64 [entry: %5]\n  %5 = add 1, 2\n  %6 = ret %2");
      ("store source", "  %1 = store %5, @g\n  %5 = add 1, 2\n  %6 = ret 0");
      ("select", "  %1 = select.i64 1, %5, 0\n  %5 = add 1, 2\n  %6 = ret %1") ]

(* a task of the read-modify-write section dies after writing part of
   its range; the retry must start from the memory the section began
   with, ints and floats alike *)
let test_psim_retry_restores_memory () =
  let src =
    {|
int main() {
  int *a = malloc(64);
  float *b = malloc(64);
  for (int i = 0; i < 64; i = i + 1) { a[i] = i; b[i] = 0.5 * i; }
  for (int i = 0; i < 64; i = i + 1) { a[i] = a[i] * 3 + i; b[i] = b[i] * 1.5 + 0.25; }
  int s = 0;
  float t = 0.0;
  for (int i = 0; i < 64; i = i + 1) { s = s + a[i] * (i + 1); t = t + b[i]; }
  print(s);
  print_float(t);
  return 0;
}
|}
  in
  let original = compile src in
  let m = compile src in
  let n = Noelle.create m in
  let results = Ntools.Doall.run n m ~ncores:4 ~min_hotness:0.0 ~min_work:0.0 () in
  checki "three loops parallelized" 3
    (List.length (List.filter (fun (_, r) -> Result.is_ok r) results));
  List.iter
    (fun victim ->
      let fault =
        { Psim.Runtime.max_restarts = 2;
          death = (fun ~tid ~attempt -> if tid = victim && attempt = 1 then Some 200L else None) }
      in
      let r = Psim.Runtime.run_resilient ~fault ~original m in
      let what = Printf.sprintf "task %d dies" victim in
      checki (what ^ ": one restart") 1 r.Psim.Runtime.rrestarts;
      checkb (what ^ ": stayed parallel") (r.Psim.Runtime.rmode = `Parallel);
      checks (what ^ ": output") "349440\n1528.000000\n" r.Psim.Runtime.routput;
      check Alcotest.int64 (what ^ ": cycles") 6899L r.Psim.Runtime.rcycles)
    [ 4; 7 ]

(* ------------------------------------------------------------------ *)
(* CARAT guards                                                         *)
(* ------------------------------------------------------------------ *)

(* the guard as it was: a scan over every allocation ever made *)
let guard_oracle (st : Interp.state) addr =
  let ix = st.Interp.by_base in
  let ok = ref false in
  for k = 0 to ix.Interp.n - 1 do
    let a = ix.Interp.recs.(k) in
    if a.Interp.alive && addr >= a.Interp.base && addr < a.Interp.base + a.Interp.size then
      ok := true
  done;
  !ok

let same_guard_verdicts what (st : Interp.state) =
  let bad = ref [] in
  for addr = -1 to st.Interp.brk + 1 do
    if Interp.addr_is_guarded_valid st addr <> guard_oracle st addr then bad := addr :: !bad
  done;
  checks (what ^ ": addresses where the guard and the scan disagree") ""
    (String.concat " " (List.rev_map string_of_int !bad))

(* 3000 calls each leave a dead alloca behind, among live, freed and
   empty mallocs; the allocations and the bump pointer are saved
   Psim-style halfway through the run, and after it a retry puts both
   back and allocates again *)
let test_guard_lookup () =
  let m =
    compile
      {|
int touch(int k) { int a[3]; a[0] = k; a[1] = k + 1; a[2] = k + 2; return a[0] + a[2]; }
int main() {
  int s = 0;
  int *keep = malloc(5);
  for (int i = 0; i < 3000; i = i + 1) {
    s = s + touch(i);
    if (i % 300 == 0) { int *p = malloc(i % 7); free(p); }
  }
  int *empty = malloc(0);
  keep[0] = s;
  print(keep[0]);
  return 0;
}
|}
  in
  let made = ref 0 and saved = ref None in
  let _, st =
    Interp.run_state m ~configure:(fun st ->
        st.Interp.hooks.Interp.on_alloc <-
          Some
            (fun _ ->
              incr made;
              if !made = 1500 then saved := Some (Interp.save_allocs st, st.Interp.brk)))
  in
  let ix = st.Interp.by_base in
  let dead = ref 0 in
  for k = 0 to ix.Interp.n - 1 do
    if not ix.Interp.recs.(k).Interp.alive then incr dead
  done;
  checkb (Printf.sprintf "%d dead allocations" !dead) (!dead > 3000);
  same_guard_verdicts "after the run" st;
  let snap, brk = Option.get !saved in
  Interp.restore_allocs st snap;
  st.Interp.brk <- brk;
  (* the allocations made after the save are gone, and the retry's land
     where the first of them was *)
  List.iter (fun size -> ignore (Interp.allocate st size)) [ 2; 0; 7; 1 ];
  same_guard_verdicts "after a retry" st;
  checki "the saved allocations plus the retry's" 1504 st.Interp.by_base.Interp.n;
  checkb "the retry's first allocation is live" (Interp.addr_is_guarded_valid st (brk + 1));
  checki "the saved copy is untouched" 1500 snap.Interp.n

(* [outer]'s frame holds an alloca while a Psim-style save, a callee's
   alloca and a restore happen under it: the restore replaces every
   record with a copy, and the frame's return must still kill the
   alloca, so the frame looks its allocations up by base *)
let test_release_after_restore () =
  let m =
    compile
      {|
void save(int *p);
void restore();
int inner() { int b[2]; b[0] = 4; b[1] = 5; return b[0] + b[1]; }
int outer() {
  int a[3];
  a[0] = 1;
  save(a);
  int r = inner();
  restore();
  return a[0] + r;
}
int main() { print(outer()); return 0; }
|}
  in
  let base = ref 0 and snap = ref None in
  let v, st =
    Interp.run_state m ~configure:(fun st ->
        Interp.register_builtin st "save" (fun st args ->
            base := Interp.as_ptr (List.hd args);
            snap := Some (Interp.save_allocs st, st.Interp.brk);
            Interp.VI 0L);
        Interp.register_builtin st "restore" (fun st _ ->
            let allocs, brk = Option.get !snap in
            Interp.restore_allocs st allocs;
            st.Interp.brk <- brk;
            Interp.VI 0L))
  in
  checks "result" "0 10\n" (Interp.v_to_string v ^ " " ^ Buffer.contents st.Interp.output);
  checkb "the scan finds the alloca dead" (not (guard_oracle st !base));
  checkb "the guard finds the alloca dead" (not (Interp.addr_is_guarded_valid st !base));
  same_guard_verdicts "after the return" st

(* ------------------------------------------------------------------ *)
(* The call path                                                       *)
(* ------------------------------------------------------------------ *)

(* [main] prints 1, then reaches [call] only if [taken] *)
let call_module ~taken call =
  Parser.parse_module
    (ir
       (Printf.sprintf
          "define i64 @two(i64 %%a, i64 %%b) {\nentry:\n  %%3 = ret %%a\n}\n\
           define i64 @main() {\nentry:\n  %%1 = call.void @print(1)\n\
          \  %%2 = cbr %d, bad, ok\nbad:\n  %s\n  %%4 = br ok\nok:\n  %%5 = ret 0\n}\n\
           declare i64 @nobuiltin(i64 %%a0)"
          (if taken then 1 else 0) call))

let test_deferred_call_failures () =
  List.iter
    (fun (call, expected) ->
      let untaken = observe fast ~fuel:100 (call_module ~taken:false call) in
      checks (call ^ ": not reached") "exit 0" (List.hd untaken);
      let outcome = List.hd (observe fast ~fuel:100 (call_module ~taken:true call)) in
      checks (call ^ ": reached") ("trap " ^ expected) outcome;
      same (call ^ ", reached") ~fuel:100 (fun () -> call_module ~taken:true call);
      same (call ^ ", not reached") ~fuel:100 (fun () -> call_module ~taken:false call))
    [ ("%3 = call.i64 @nosuch(1)", "call to unknown function nosuch");
      ("%3 = call.i64 @nobuiltin(1)", "call to declaration nobuiltin with no builtin");
      ("%3 = call.i64 @two(1)", "two: expected 2 arguments, got 1");
      (* the arguments are read before the failure is raised *)
      ("%3 = call.i64 @nosuch(%9)", "main: register %9 read before definition");
      ("%3 = call.i64 @two(%9)", "main: register %9 read before definition") ]

(* [get]'s one call site first reaches the defined [ext]; [swap]
   registers a builtin [ext], which that site uses from its next call *)
let late_builtin_module () =
  Parser.parse_module
    (ir
       "define i64 @ext() {\nentry:\n  %1 = ret 1\n}\n\
        define i64 @get() {\nentry:\n  %1 = call.i64 @ext()\n  %2 = ret %1\n}\n\
        define i64 @main() {\nentry:\n  %1 = call.i64 @get()\n  %2 = call.void @print(%1)\n\
       \  %3 = call.void @swap()\n  %4 = call.i64 @get()\n  %5 = call.void @print(%4)\n\
       \  %6 = call.i64 @get()\n  %7 = call.void @print(%6)\n  %8 = ret 0\n}\n\
        declare void @swap()")

let install_swap st =
  Interp.register_builtin st "swap" (fun st _ ->
      Interp.register_builtin st "ext" (fun _ _ -> Interp.VI 2L);
      Interp.VI 0L)

let test_late_builtin () =
  let observed = observe ~install:install_swap fast ~fuel:100 (late_builtin_module ()) in
  checks "output" "1\n2\n2\n" (List.nth observed 3);
  checkb "ext counted at every call" (List.mem "fncalls ext 3" observed);
  same ~install:install_swap "late builtin" ~fuel:100 late_builtin_module

(* a builtin shadows a defined function of its name, at a call step and
   at the [Interp.call] boundary *)
let test_builtin_shadows () =
  let m () =
    Parser.parse_module
      (ir
         "define i64 @i64_max(i64 %a, i64 %b) {\nentry:\n  %1 = ret 0\n}\n\
          define i64 @main() {\nentry:\n  %1 = call.i64 @i64_max(3, 7)\n\
         \  %2 = call.void @print(%1)\n  %3 = ret 0\n}")
  in
  checks "call step" "7\n" (List.nth (observe fast ~fuel:100 (m ())) 3);
  (match Interp.call (Interp.create (m ())) "i64_max" [ Interp.VI 3L; Interp.VI 7L ] with
  | Interp.VI 7L -> ()
  | v -> Alcotest.failf "Interp.call: %s" (Interp.v_to_string v));
  same "shadowed" ~fuel:100 m

(* one indirect step reaching two callees counts each *)
let test_indirect_counts () =
  let src =
    {|
int a(int x) { return x + 1; }
int b(int x) { return x * 2; }
int dispatch(int x) {
  int* t[2];
  t[0] = (int*)a;
  t[1] = (int*)b;
  return t[x & 1](x);
}
int main() {
  int s = 0;
  for (int i = 0; i < 5; i++) { s += dispatch(i); }
  print(s);
  return 0;
}
|}
  in
  let observed = observe fast ~fuel:10_000 (compile src) in
  List.iter
    (fun line -> checkb line (List.mem line observed))
    [ "fncalls a 3"; "fncalls b 2"; "callpair dispatch.a 3"; "callpair dispatch.b 2" ];
  same "indirect" ~fuel:10_000 (fun () -> compile src)

(* a call of a defined function takes a pooled frame and passes words:
   twice the calls allocate no more than a few words more *)
let test_calls_allocate_nothing () =
  let src =
    "int inc(int x) { return x + 1; }
     int loop(int n) { int s = 0; for (int i = 0; i < n; i++) { s = inc(s); } return s; }
     int main() { return 0; }"
  in
  let words n =
    let st = Interp.create (compile src) in
    let before = Gc.minor_words () in
    let v = Interp.call st "loop" [ Interp.VI (Int64.of_int n) ] in
    let after = Gc.minor_words () in
    checks "result" (string_of_int n) (Interp.v_to_string v);
    after -. before
  in
  let n = 20_000 in
  let once = words n and twice = words (2 * n) in
  checkb (Printf.sprintf "%.0f words for %d calls, %.0f for %d" once n twice (2 * n))
    (twice -. once < 64.)

let suite =
  [
    tc "oracle: all kernels" test_kernels;
    tc "oracle: fuzz seeds 1-50" test_fuzz_seeds;
    tc "oracle: fault plants" test_fault_plants;
    tc "oracle: trap paths" test_trap_paths;
    tc "oracle: fuel exhaustion" test_fuel_exhaustion;
    tc "oracle: malloc through a helper" test_helper_malloc_site;
    tc "words: float bits survive memory, phis and select" test_float_bits;
    tc "words: a pointer stays a pointer" test_pointer_stays_pointer;
    tc "words: a store retypes a word" test_retyped_words;
    tc "words: type-confusion traps" test_mistyped_slots;
    tc "words: copies of an undefined register trap" test_copies_before_definition;
    tc "words: a Psim retry restores memory" test_psim_retry_restores_memory;
    tc "carat: the guard finds the covering allocation by base" test_guard_lookup;
    tc "carat: a frame frees its allocas after a restore" test_release_after_restore;
    tc "calls: deferred failures trap only when reached" test_deferred_call_failures;
    tc "calls: a builtin registered later is used at the next call" test_late_builtin;
    tc "calls: a builtin shadows a defined function" test_builtin_shadows;
    tc "calls: an indirect call counts per callee" test_indirect_counts;
    tc "calls: a defined-function call allocates nothing" test_calls_allocate_nothing;
  ]
