(** Tests of the IR substrate: types, instructions, builder, printer/parser
    round trips, verifier, CFG utilities, dominators, mem2reg, simplify,
    interpreter semantics, alias analyses, SCEV, linker. *)

open Helpers
open Ir

(* ------------------------------------------------------------------ *)
(* Types and instructions                                              *)
(* ------------------------------------------------------------------ *)

let test_ty () =
  checkb "i64 self-equal" (Ty.equal Ty.I64 Ty.I64);
  checkb "i64 <> f64" (not (Ty.equal Ty.I64 Ty.F64));
  checkb "fun types structural"
    (Ty.equal (Ty.Fun ([ Ty.I64 ], Ty.Ptr)) (Ty.Fun ([ Ty.I64 ], Ty.Ptr)));
  checkb "fun arity matters"
    (not (Ty.equal (Ty.Fun ([], Ty.I64)) (Ty.Fun ([ Ty.I64 ], Ty.I64))));
  checks "ptr prints" "ptr" (Ty.to_string Ty.Ptr);
  (* the types SSA values may carry *)
  let is_first_class = function Ty.I64 | Ty.F64 | Ty.Ptr -> true | Ty.Void | Ty.Fun _ -> false in
  checkb "first-class" (is_first_class Ty.Ptr);
  checkb "void not first-class" (not (is_first_class Ty.Void))

let test_instr_operands () =
  let open Instr in
  checki "bin operands" 2 (List.length (operands (Bin (Add, Cint 1L, Cint 2L))));
  checki "call operands" 3
    (List.length (operands (Call (Glob "f", [ Cint 1L; Reg 5 ]))));
  checki "phi operands" 2
    (List.length (operands (Phi [ (0, Cint 1L); (1, Reg 2) ])));
  checki "ret none" 0 (List.length (operands (Ret None)));
  checkb "cbr is terminator" (is_terminator_op (Cbr (Cint 1L, 0, 1)));
  checkb "store is not" (not (is_terminator_op (Store (Cint 1L, Reg 0))));
  let mapped = map_operands (fun _ -> Cint 9L) (Bin (Add, Reg 1, Reg 2)) in
  (match mapped with
  | Bin (Add, Cint 9L, Cint 9L) -> ()
  | _ -> Alcotest.fail "map_operands");
  checkb "uses_reg" (uses_reg (Bin (Add, Reg 3, Cint 0L)) 3);
  checkb "not uses_reg" (not (uses_reg (Bin (Add, Reg 3, Cint 0L)) 4));
  checki "cbr same-target successors deduped" 1
    (List.length (successors (Cbr (Cint 0L, 7, 7))))

(* ------------------------------------------------------------------ *)
(* Builder                                                             *)
(* ------------------------------------------------------------------ *)

let test_builder_basic () =
  let f = Func.create ~name:"f" ~params:[ ("x", Ty.I64) ] ~ret:Ty.I64 in
  let b = Builder.add_block f ~label:"entry" in
  let a = Builder.add f b.Func.bid (Instr.Bin (Instr.Add, Instr.Arg 0, Instr.Cint 1L)) Ty.I64 in
  ignore (Builder.set_term f b.Func.bid (Instr.Ret (Some (Instr.Reg a.Instr.id))));
  checki "one block" 1 (List.length (Func.blocks f));
  checki "two insts" 2 (Func.num_insts f);
  (* add after terminator goes before it *)
  let c = Builder.add f b.Func.bid (Instr.Bin (Instr.Mul, Instr.Arg 0, Instr.Cint 2L)) Ty.I64 in
  let ids = (Func.block f b.Func.bid).Func.insts in
  checki "inserted before terminator" 1
    (match ids with [ _; x; _ ] when x = c.Instr.id -> 1 | _ -> 0);
  Builder.replace_uses f ~old:a.Instr.id ~by:(Instr.Cint 7L);
  (match (Func.terminator f b.Func.bid) with
  | Some { Instr.op = Instr.Ret (Some (Instr.Cint 7L)); _ } -> ()
  | _ -> Alcotest.fail "replace_uses rewired ret");
  Builder.remove f a.Instr.id;
  checki "removed" 2 (Func.num_insts f)

(** Split block [bid] before instruction [at]: instructions from [at] to the
    terminator move into a fresh block; [bid] falls through with a [Br], and
    phis in successors name the new block.  Returns the new block. *)
let split_block (f : Func.t) bid ~at ~label =
  let rec from_at = function x :: rest when x <> at -> from_at rest | l -> l in
  let after = from_at (Func.block f bid).Func.insts in
  let nb = Builder.add_block f ~label in
  List.iter (fun id -> Builder.move_to_end f id ~bid:nb.Func.bid) after;
  List.iter
    (fun s -> Builder.rewrite_phi_pred f s ~old_pred:bid ~new_pred:nb.Func.bid)
    (Func.successors f nb.Func.bid);
  ignore (Builder.set_term f bid (Instr.Br nb.Func.bid));
  nb

let test_builder_split () =
  let f = Func.create ~name:"f" ~params:[] ~ret:Ty.I64 in
  let b = Builder.add_block f ~label:"entry" in
  let i1 = Builder.add f b.Func.bid (Instr.Bin (Instr.Add, Instr.Cint 1L, Instr.Cint 2L)) Ty.I64 in
  let i2 = Builder.add f b.Func.bid (Instr.Bin (Instr.Mul, Instr.Reg i1.Instr.id, Instr.Cint 3L)) Ty.I64 in
  ignore (Builder.set_term f b.Func.bid (Instr.Ret (Some (Instr.Reg i2.Instr.id))));
  let nb = split_block f b.Func.bid ~at:i2.Instr.id ~label:"tail" in
  checki "two blocks now" 2 (List.length (Func.blocks f));
  (match Func.terminator f b.Func.bid with
  | Some { Instr.op = Instr.Br t; _ } -> checki "falls through" nb.Func.bid t
  | _ -> Alcotest.fail "no fallthrough");
  Verify.verify_func f

let test_prune_dead_chain () =
  (* entry -> join is live; the dead chain head -> tail -> join feeds the
     join's phi.  [tail] is laid out before [head], so by the time [head]
     is erased its successor is already gone. *)
  let m = Irmod.create ~name:"prune" () in
  let f = Func.create ~name:"main" ~params:[] ~ret:Ty.I64 in
  Irmod.add_func m f;
  let bid label = (Builder.add_block f ~label).Func.bid in
  let entry = bid "entry" and tail = bid "tail" and head = bid "head" and join = bid "join" in
  ignore (Builder.set_term f entry (Instr.Br join));
  ignore (Builder.set_term f head (Instr.Br tail));
  ignore (Builder.set_term f tail (Instr.Br join));
  let phi = Builder.add f join (Instr.Phi [ (entry, Instr.Cint 7L); (tail, Instr.Cint 9L) ]) Ty.I64 in
  ignore (Builder.set_term f join (Instr.Ret (Some (Instr.Reg phi.Instr.id))));
  verifies "before pruning" m;
  let result () = Interp.(let r = start ~configure:ignore m in (value r, output r)) in
  let before = result () in
  checki "both dead blocks pruned" 2 (Cfg.prune_unreachable f);
  checkb "live layout kept" (Func.blocks f = [ entry; join ]);
  checkb "dead blocks erased" (Func.block_opt f head = None && Func.block_opt f tail = None);
  (match (Func.inst f phi.Instr.id).Instr.op with
  | Instr.Phi incs -> checkb "no incoming from an erased block" (List.map fst incs = [ entry ])
  | _ -> Alcotest.fail "phi lost");
  verifies "after pruning" m;
  checkb "same result" (result () = before)

let test_dce_phis () =
  (* dead phi cycles rotating a value around nested loops get removed *)
  let m =
    compile
      {|
int main() {
  int acc = 0;
  for (int i = 0; i < 3; i++) {
    for (int j = 0; j < 3; j++) { acc += 0; }
    int dead = i * 2;
    dead = dead + 1;
  }
  print(acc);
  return 0;
}
|}
  in
  let f = Irmod.func m "main" in
  let phis =
    Func.fold_insts
      (fun acc i -> match i.Instr.op with Instr.Phi _ -> acc + 1 | _ -> acc)
      0 f
  in
  (* only the two IV phis survive: acc's phi chain is dead (acc += 0 folds) *)
  checkb "few phis remain" (phis <= 3);
  checks "runs" "0" (output m)

(* ------------------------------------------------------------------ *)
(* Printer / parser                                                    *)
(* ------------------------------------------------------------------ *)

let test_roundtrip_kernels () =
  each_kernel (fun k m ->
      let txt = Printer.module_str m in
      let m2 = Parser.parse_module txt in
      Verify.verify_module m2;
      let txt2 = Printer.module_str m2 in
      checks (k.Bsuite.Kernels.kname ^ " round-trips") txt txt2)

let test_roundtrip_preserves_semantics () =
  each_kernel (fun k m ->
      let expected = output ~fuel:k.Bsuite.Kernels.fuel m in
      let m2 = Parser.parse_module (Printer.module_str m) in
      checks (k.Bsuite.Kernels.kname ^ " reparse runs identically") expected
        (output ~fuel:k.Bsuite.Kernels.fuel m2))

(* one block of 20k instructions: the parser lays a block out once, so
   this costs linear time (the test asserts no timing) *)
let test_roundtrip_long_block () =
  let n = 20_000 in
  let b = Buffer.create (n * 24) in
  Buffer.add_string b "module \"long\"\ndefine i64 @main() {\nentry:\n  %0 = add 1, 2\n";
  for i = 1 to n - 2 do
    Buffer.add_string b (Printf.sprintf "  %%%d = add %%%d, %d\n" i (i - 1) (i mod 7))
  done;
  Buffer.add_string b (Printf.sprintf "  %%%d = ret %%%d\n}\n" (n - 1) (n - 2));
  let src = Buffer.contents b in
  let m = Parser.parse_module src in
  Verify.verify_module m;
  checki "instructions" n (Irmod.total_insts m);
  checks "the printer round-trips it" src (Printer.module_str m)

let test_metadata_roundtrip () =
  let m = compile "int main() { print(1); return 0; }" in
  Meta.set m.Irmod.meta "key.with \"quotes\"" "value\nwith\nnewlines";
  Meta.set_int m.Irmod.meta "answer" 42;
  let m2 = Parser.parse_module (Printer.module_str m) in
  check
    Alcotest.(option string)
    "escaped value survives"
    (Some "value\nwith\nnewlines")
    (Meta.get m2.Irmod.meta "key.with \"quotes\"");
  check Alcotest.(option int) "int value" (Some 42) (Meta.get_int m2.Irmod.meta "answer")

let test_parser_errors () =
  let bad ?line s =
    match Parser.parse_module s with
    | exception Parser.Parse_error msg -> (
      match line with
      | Some l ->
        let at = Printf.sprintf "line %d: " l in
        checkb (Printf.sprintf "%S names %s" msg at) (String.starts_with ~prefix:at msg)
      | None -> ())
    | _ -> Alcotest.failf "expected parse error on %S" s
  in
  bad "define i64 @f( {";
  bad "define i64 @f() { entry: br nowhere }";
  bad "global @g = ";
  bad "meta \"unterminated";
  bad "define i64 @f() { entry: %1 = frobnicate 1, 2 }";
  bad ~line:2 "define i64 @main() {\nret 0\n}";
  bad ~line:3 "define i64 @main() {\nentry:\n%1 = add i64 99999999999999999999, 1\nret %1\n}";
  bad ~line:3
    "define i64 @main() {\nentry:\n%99999999999999999999 = add i64 1, 1\nret %99999999999999999999\n}";
  bad ~line:3 "define f64 @main() {\nentry:\n%1 = fadd 1.5e+, 0.0\nret %1\n}";
  bad ~line:2 "define f64 @main() {\nentry: %1 = fadd 1.5.5, 0.0\nret %1\n}"

(* Seeded byte mutants of every kernel, as Mini-C source and as printed
   IR: each must load or end in its frontend's own error, never in any
   other exception.  A mutant deletes, duplicates or replaces up to 8
   bytes, or inserts a 20-digit run. *)
let test_frontend_mutants () =
  let mutants_per_frontend = 100 in
  let mutate rs s =
    let n = String.length s in
    let pos = Random.State.int rs (n + 1) in
    let len = min (1 + Random.State.int rs 8) (n - pos) in
    let before = String.sub s 0 pos and after = String.sub s pos (n - pos) in
    let cut k = String.sub after k (String.length after - k) in
    match Random.State.int rs 4 with
    | 0 -> before ^ cut len
    | 1 -> before ^ String.sub after 0 len ^ after
    | 2 ->
      let pick _ =
        let alphabet = "0123456789%@=,:;()[]{}.-+ \n\"\\abcdefxyzi" in
        if Random.State.int rs 4 = 0 then Char.chr (Random.State.int rs 256)
        else alphabet.[Random.State.int rs (String.length alphabet)]
      in
      before ^ String.init len pick ^ cut len
    | _ -> before ^ String.init 20 (fun _ -> Char.chr (48 + Random.State.int rs 10)) ^ after
  in
  let escapes = ref [] in
  let sweep frontend (k : Bsuite.Kernels.kernel) text load =
    let rs = Random.State.make [| Hashtbl.hash (frontend, k.Bsuite.Kernels.kname) |] in
    for i = 1 to mutants_per_frontend do
      let s = mutate rs text in
      try load s
      with e ->
        escapes :=
          Printf.sprintf "%s %s mutant %d: %s" frontend k.Bsuite.Kernels.kname i
            (Printexc.to_string e)
          :: !escapes
    done
  in
  List.iter
    (fun (k : Bsuite.Kernels.kernel) ->
      sweep "minic" k k.Bsuite.Kernels.src (fun s ->
          match Minic.Lower.compile ~name:"mutant" s with
          | _ | (exception Minic.Ast.Error _) -> ());
      sweep "ir" k (Printer.module_str (Bsuite.Kernels.compile k)) (fun s ->
          match Parser.parse_module s with
          | m -> ignore (Verify.check m)
          | exception Parser.Parse_error _ -> ()))
    Bsuite.Kernels.all;
  match List.rev !escapes with
  | [] -> ()
  | first :: _ as all ->
    Alcotest.failf "%d mutants escaped their frontend's error, first: %s"
      (List.length all) first

let test_float_literals () =
  let vals = [ 0.0; 1.5; -3.25; 1e100; 1.0000000000000002; 6.02e23 ] in
  List.iter
    (fun v ->
      let s = Printer.float_str v in
      let m = Parser.parse_module (Printf.sprintf {|
define f64 @f() {
entry:
  %%1 = fadd %s, 0.0
  ret %%1
}
|} s)
      in
      let f = Irmod.func m "f" in
      Func.iter_insts
        (fun i ->
          match i.Instr.op with
          | Instr.Fbin (Instr.Fadd, Instr.Cfloat x, _) ->
            checkb (Printf.sprintf "float %s preserved" s) (Float.equal x v)
          | _ -> ())
        f)
    vals

(* ------------------------------------------------------------------ *)
(* Verifier                                                            *)
(* ------------------------------------------------------------------ *)

let test_verifier_catches () =
  let expect_invalid msg build =
    let f = Func.create ~name:"f" ~params:[] ~ret:Ty.I64 in
    build f;
    match Verify.verify_func f with
    | exception Verify.Invalid _ -> ()
    | () -> Alcotest.failf "verifier should reject: %s" msg
  in
  expect_invalid "no blocks" (fun _ -> ());
  expect_invalid "missing terminator" (fun f ->
      let b = Builder.add_block f ~label:"entry" in
      ignore (Builder.add f b.Func.bid (Instr.Bin (Instr.Add, Instr.Cint 1L, Instr.Cint 2L)) Ty.I64));
  expect_invalid "undefined register" (fun f ->
      let b = Builder.add_block f ~label:"entry" in
      ignore (Builder.set_term f b.Func.bid (Instr.Ret (Some (Instr.Reg 999)))));
  expect_invalid "bad argument index" (fun f ->
      let b = Builder.add_block f ~label:"entry" in
      ignore (Builder.set_term f b.Func.bid (Instr.Ret (Some (Instr.Arg 3)))));
  expect_invalid "use before def in same block" (fun f ->
      let b = Builder.add_block f ~label:"entry" in
      let a = Builder.add f b.Func.bid (Instr.Bin (Instr.Add, Instr.Reg 99, Instr.Cint 0L)) Ty.I64 in
      let d = Builder.add f b.Func.bid (Instr.Bin (Instr.Add, Instr.Cint 1L, Instr.Cint 1L)) Ty.I64 in
      (* point the first instruction at the second: use before def *)
      Builder.set_op f a (Instr.Bin (Instr.Add, Instr.Reg d.Instr.id, Instr.Cint 0L));
      ignore (Builder.set_term f b.Func.bid (Instr.Ret (Some (Instr.Reg a.Instr.id)))))

(* ------------------------------------------------------------------ *)
(* Dominators                                                          *)
(* ------------------------------------------------------------------ *)

let test_dominators_random () =
  (* random small CFGs: CHK dominators match naive removal-based check *)
  let gen = QCheck.Gen.(pair (int_range 2 8) (list_size (int_range 1 20) (pair (int_range 0 7) (int_range 0 7)))) in
  let prop (n, edges) =
    let edges = List.filter (fun (a, b) -> a < n && b < n) edges in
    (* ensure connectivity shape: add a spine 0->1->...->n-1 *)
    let spine = List.init (n - 1) (fun i -> (i, i + 1)) in
    let all_edges = List.sort_uniq compare (spine @ edges) in
    let succs x = List.filter_map (fun (a, b) -> if a = x then Some b else None) all_edges in
    let dt = Dom.compute_generic ~succs ~entry:0 ~nodes:(List.init n (fun i -> i)) in
    List.for_all
      (fun a ->
        List.for_all
          (fun b ->
            let fast = Dom.dominates dt a b in
            let slow =
              if a = b then true
              else if a = 0 then true
              else begin
                let seen = Hashtbl.create 16 in
                let rec dfs x =
                  if x <> a && not (Hashtbl.mem seen x) then begin
                    Hashtbl.replace seen x ();
                    List.iter dfs (succs x)
                  end
                in
                dfs 0;
                not (Hashtbl.mem seen b)
              end
            in
            fast = slow)
          (List.init n (fun i -> i)))
      (List.init n (fun i -> i))
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:200 ~name:"CHK dominators = naive dominators"
       (QCheck.make gen) prop)

let test_postdominators () =
  let m =
    compile
      {|
int main() {
  int x = 0;
  if (clock() > 0) { x = 1; } else { x = 2; }
  print(x);
  return 0;
}
|}
  in
  let f = Irmod.func m "main" in
  let pdt = Dom.compute_post f in
  (* the merge block postdominates both branch arms and the entry *)
  let exits = Cfg.exit_blocks f in
  checki "one exit block" 1 (List.length exits);
  List.iter
    (fun b ->
      checkb "virtual exit postdominates everything"
        (Dom.dominates pdt Dom.virtual_exit b))
    (Func.blocks f)

(* ------------------------------------------------------------------ *)
(* Mem2reg / Simplify                                                  *)
(* ------------------------------------------------------------------ *)

let test_mem2reg_semantics () =
  (* lowering without mem2reg must behave the same as with it *)
  let srcs =
    [
      {| int main() { int x = 1; int y = 2; if (x < y) { x = y * 3; } print(x); return 0; } |};
      {| int main() { int s = 0; for (int i = 0; i < 17; i++) { if (i % 3 == 0) s += i; } print(s); return 0; } |};
      {| int main() { int a = 5; int *p = &a; *p = 9; print(a); return 0; } |};
    ]
  in
  List.iter
    (fun src ->
      let prog = Minic.Parser.parse_program src in
      let raw = Minic.Lower.lower_program ~name:"raw" prog in
      let cooked = compile src in
      checks "mem2reg preserves semantics" (output raw) (output cooked))
    srcs

let test_mem2reg_promotes () =
  let m = compile {| int main() { int s = 0; for (int i = 0; i < 9; i++) s += i; print(s); return 0; } |} in
  let f = Irmod.func m "main" in
  let allocas =
    Func.fold_insts
      (fun acc i -> match i.Instr.op with Instr.Alloca _ -> acc + 1 | _ -> acc)
      0 f
  in
  checki "all scalars promoted" 0 allocas;
  checks "result" "36" (output m)

let test_address_taken_not_promoted () =
  let m = compile {| int main() { int a = 5; int *p = &a; *p = 9; print(a); return 0; } |} in
  let f = Irmod.func m "main" in
  let allocas =
    Func.fold_insts
      (fun acc i -> match i.Instr.op with Instr.Alloca _ -> acc + 1 | _ -> acc)
      0 f
  in
  checkb "address-taken alloca stays" (allocas >= 1);
  checks "result" "9" (output m)

let test_simplify () =
  let f = Func.create ~name:"f" ~params:[ ("x", Ty.I64) ] ~ret:Ty.I64 in
  let b = Builder.add_block f ~label:"entry" in
  let add = Builder.add f b.Func.bid (Instr.Bin (Instr.Add, Instr.Cint 2L, Instr.Cint 3L)) Ty.I64 in
  let a2 = Builder.add f b.Func.bid (Instr.Bin (Instr.Add, Instr.Reg add.Instr.id, Instr.Cint 0L)) Ty.I64 in
  let cmp = Builder.add f b.Func.bid (Instr.Icmp (Instr.Slt, Instr.Arg 0, Instr.Reg a2.Instr.id)) Ty.I64 in
  let dbl = Builder.add f b.Func.bid (Instr.Icmp (Instr.Ne, Instr.Reg cmp.Instr.id, Instr.Cint 0L)) Ty.I64 in
  ignore (Builder.set_term f b.Func.bid (Instr.Ret (Some (Instr.Reg dbl.Instr.id))));
  ignore (Simplify.run f);
  ignore (Builder.dce f);
  Verify.verify_func f;
  (* add 2,3 folds to 5; add x,0 folds away; double boolean collapses *)
  checki "only cmp and ret remain" 2 (Func.num_insts f)

(* ------------------------------------------------------------------ *)
(* Interpreter semantics                                               *)
(* ------------------------------------------------------------------ *)

let test_interp_arith () =
  checks "precedence" "14" (run_src "int main() { print(2 + 3 * 4); return 0; }");
  checks "negative division truncates" "-2"
    (run_src "int main() { print(-7 / 3); return 0; }");
  checks "remainder sign" "-1" (run_src "int main() { print(-7 % 3); return 0; }");
  checks "shifts" "40" (run_src "int main() { print((5 << 3) & 127); return 0; }");
  checks "float to int" "3" (run_src "int main() { print((int)3.99); return 0; }");
  checks "ternary" "7" (run_src "int main() { print(1 < 2 ? 7 : 8); return 0; }");
  checks "short-circuit and" "0"
    (run_src "int main() { int x = 0; int r = (x != 0) && (1 / x > 0); print(r); return 0; }");
  checks "short-circuit or" "1"
    (run_src "int main() { int x = 0; int r = (x == 0) || (1 / x > 0); print(r); return 0; }")

let test_interp_traps () =
  let expect_trap src =
    let m = compile src in
    match (Interp.start ~configure:ignore m).Interp.outcome with
    | Error (Interp.Trap _) -> ()
    | _ -> Alcotest.failf "expected trap: %s" src
  in
  expect_trap "int main() { int x = 0; print(1 / x); return 0; }";
  expect_trap "int main() { int *p = (int*)0; print(*p); return 0; }";
  expect_trap "int main() { while (1) { } return 0; }" (* fuel *)

let test_interp_memory () =
  checks "malloc/free" "55"
    (run_src
       {|
int main() {
  int *p = malloc(10);
  for (int i = 0; i < 10; i++) p[i] = i + 1;
  int s = 0;
  for (int i = 0; i < 10; i++) s += p[i];
  free(p);
  print(s);
  return 0;
}
|});
  checks "global init" "6"
    (run_src {|
int g[3] = {1, 2, 3};
int main() { print(g[0] + g[1] + g[2]); return 0; }
|});
  checks "function pointers" "30"
    (run_src
       {|
int twice(int x) { return 2 * x; }
int thrice(int x) { return 3 * x; }
int main() {
  int* fns[2];
  fns[0] = (int*)twice;
  fns[1] = (int*)thrice;
  int s = 0;
  for (int i = 0; i < 2; i++) { s += fns[i](6); }
  print(s);
  return 0;
}
|})

let test_interp_recursion () =
  checks "fib" "55"
    (run_src
       {|
int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
int main() { print(fib(10)); return 0; }
|})

(* a builtin swaps [on_inst] in the middle of main's frame: the new hook
   must fire at every later step of that frame, and none after restore.
   The run is an observed one ({!Obs.run}): the recorder installs no
   per-instruction hook, so the swap cannot disturb it, and the object
   malloc'd after the restore is still named *)
let test_interp_hook_swap_mid_frame () =
  let m =
    compile
      {|
int *g;
int main() {
  int s = 0;
  for (int i = 0; i < 5; i++) { s += i; }
  srand(1);
  for (int i = 0; i < 7; i++) { s += i * 2; }
  srand(0);
  g = malloc(2);
  g[1] = s;
  for (int i = 0; i < 3; i++) { s += i; }
  print(s);
  return 0;
}
|}
  in
  let fired = ref 0 and on_at = ref (-1) and off_at = ref (-1) and fns = ref [] in
  let hook f _ =
    incr fired;
    if not (List.mem f.Func.fname !fns) then fns := f.Func.fname :: !fns
  in
  let steps = ref 0 in
  let b =
    Obs.run m ~install:(fun st _ ->
        Interp.register_builtin st "srand" (fun st args ->
            (match args with
            | [ Interp.VI 1L ] ->
              on_at := st.Interp.steps;
              st.Interp.hooks.Interp.on_inst <- Some hook
            | _ ->
              off_at := st.Interp.steps;
              st.Interp.hooks.Interp.on_inst <- None);
            steps := st.Interp.steps;
            Interp.VI 0L);
        let print = Hashtbl.find st.Interp.builtins "print" in
        Interp.register_builtin st "print" (fun st args ->
            steps := st.Interp.steps;
            print st args))
  in
  checkb "output" (b.Obs.result = Ok "exit=0\n55\n");
  checkb "hook was on" (!on_at > 0 && !off_at > !on_at);
  (* every step from the one after srand(1) through the srand(0) call *)
  checki "fired for the rest of the frame" (!off_at - !on_at) !fired;
  checkb "steps ran after restore" (!steps > !off_at);
  Alcotest.(check (list string)) "only main's steps" [ "main" ] !fns;
  Alcotest.(check (list string))
    "the recorder named the object"
    [ "store @g[0] = &heap#0"; "store heap#0[1] = 52"; "call print(55)"; "exit 0" ]
    (List.map Obs.event_display b.Obs.trace)

(* layouts are compiled per state: a body edited between two runs, in place
   or by a snapshot restore, must run as edited *)
let test_interp_no_stale_layout () =
  let m = compile "int inc(int x) { return x + 1; } int main() { print(inc(41)); return 0; }" in
  checks "original" "42" (output m);
  let snap = Snapshot.capture m in
  let f = Irmod.func m "inc" in
  Func.iter_insts
    (fun (i : Instr.inst) ->
      match i.Instr.op with
      | Instr.Bin (Instr.Add, a, Instr.Cint 1L) -> Builder.set_op f i (Instr.Bin (Instr.Add, a, Instr.Cint 5L))
      | _ -> ())
    f;
  checks "edited in place" "46" (output m);
  Snapshot.restore snap m;
  checks "restored" "42" (output m)

(* each frame has its own slots: values computed before a recursive call
   must read back unchanged after it returns *)
let test_interp_recursive_slots () =
  let src =
    {|
int f(int n) {
  int a = n * 3 + 1;
  if (n == 0) return 1;
  int b = f(n - 1);
  return a * 100 + b + n;
}
int main() { print(f(6)); return 0; }
|}
  in
  let rec f n = if n = 0 then 1 else ((n * 3) + 1) * 100 + f (n - 1) + n in
  checks "own slots after inner calls" (string_of_int (f 6)) (run_src src);
  let m = compile src in
  let st = Interp.create m in
  ignore (Interp_oracle.call st "main" []);
  checks "oracle agrees" (string_of_int (f 6)) (String.trim (Buffer.contents st.Interp.output))

(* ------------------------------------------------------------------ *)
(* Alias analysis                                                      *)
(* ------------------------------------------------------------------ *)

let test_alias_baseline () =
  let m =
    compile
      {|
int g1[10];
int g2[10];
int main() {
  int a[4];
  int b[4];
  a[0] = 1; b[0] = 2; g1[0] = 3; g2[0] = 4;
  print(a[0] + b[0] + g1[0] + g2[0]);
  return 0;
}
|}
  in
  let f = Irmod.func m "main" in
  let stack = Andersen.baseline_stack in
  (* find the stored-to pointers *)
  let ptrs =
    Func.fold_insts
      (fun acc i -> match i.Instr.op with Instr.Store (_, p) -> p :: acc | _ -> acc)
      [] f
    |> List.rev
  in
  (match ptrs with
  | [ pa; pb; pg1; pg2 ] ->
    checkb "distinct allocas no-alias" (Alias.alias stack m f pa pb = Alias.No_alias);
    checkb "distinct globals no-alias" (Alias.alias stack m f pg1 pg2 = Alias.No_alias);
    checkb "alloca vs global no-alias" (Alias.alias stack m f pa pg1 = Alias.No_alias);
    checkb "same pointer must-alias" (Alias.alias stack m f pa pa = Alias.Must_alias)
  | _ -> Alcotest.fail "expected 4 stores")

let test_alias_structural_must () =
  let m =
    compile
      {|
int a[100];
int main() {
  for (int i = 0; i < 10; i++) {
    int x = a[i];
    int y = a[i];
    print(x + y);
  }
  return 0;
}
|}
  in
  let f = Irmod.func m "main" in
  let loads =
    Func.fold_insts
      (fun acc i -> match i.Instr.op with Instr.Load p -> p :: acc | _ -> acc)
      [] f
  in
  match loads with
  | [ p2; p1 ] ->
    checkb "same gep pattern must-alias"
      (Alias.alias Andersen.baseline_stack m f p1 p2 = Alias.Must_alias)
  | _ -> Alcotest.fail "expected 2 loads"

let test_andersen_resolves_indirect () =
  let m =
    compile
      {|
int f1(int x) { return x + 1; }
int f2(int x) { return x + 2; }
int main() {
  int* t[2];
  t[0] = (int*)f1;
  t[1] = (int*)f2;
  print(t[clock() & 1](1));
  return 0;
}
|}
  in
  let r = Andersen.analyze m in
  let cg = Noelle.Callgraph.build ~pts:r m in
  let callees =
    Noelle.Callgraph.callees cg "main"
    |> List.map (fun (e : Noelle.Callgraph.edge) -> e.Noelle.Callgraph.callee)
    |> List.sort compare
  in
  checkb "indirect call resolved to f1" (List.mem "f1" callees);
  checkb "indirect call resolved to f2" (List.mem "f2" callees);
  checkb "complete: no unresolved sites" (cg.Noelle.Callgraph.unresolved = [])

let test_andersen_disproves () =
  (* two disjoint malloc'd regions accessed through pointer copies: the
     baseline cannot see it, Andersen can *)
  let m =
    compile
      {|
int use(int *p, int *q) {
  *p = 1;
  return *q;
}
int main() {
  int *a = malloc(4);
  int *b = malloc(4);
  *b = 7;
  print(use(a, b));
  return 0;
}
|}
  in
  let f = Irmod.func m "use" in
  let stack_noelle = Andersen.noelle_stack m in
  let p = Instr.Arg 0 and q = Instr.Arg 1 in
  checkb "baseline cannot disprove arg aliasing"
    (Alias.alias Andersen.baseline_stack m f p q = Alias.May_alias);
  checkb "andersen disproves distinct malloc sites"
    (Alias.alias stack_noelle m f p q = Alias.No_alias)

let test_ordered_builtins_conflict () =
  let m = compile {| int main() { print(1); print(2); return 0; } |} in
  let f = Irmod.func m "main" in
  let calls =
    Func.fold_insts
      (fun acc i -> match i.Instr.op with Instr.Call _ -> i :: acc | _ -> acc)
      [] f
  in
  match calls with
  | [ c2; c1 ] ->
    checkb "two prints conflict (ordered I/O)"
      (Alias.may_conflict Andersen.baseline_stack m f c1 c2)
  | _ -> Alcotest.fail "expected 2 calls"

(* ------------------------------------------------------------------ *)
(* SCEV                                                                *)
(* ------------------------------------------------------------------ *)

let test_scev_affine () =
  let m =
    compile
      {|
int a[200];
int main() {
  for (int i = 0; i < 50; i++) {
    a[2*i + 3] = i;
  }
  print(a[5]);
  return 0;
}
|}
  in
  let f = Irmod.func m "main" in
  let nest = Loopnest.compute f in
  let l = List.hd nest.Loopnest.loops in
  let phi =
    List.find
      (fun (i : Instr.inst) -> match i.Instr.op with Instr.Phi _ -> true | _ -> false)
      (Func.insts_of_block f l.Loopnest.header)
  in
  let store_ptr =
    Func.fold_insts
      (fun acc i -> match i.Instr.op with Instr.Store (_, p) -> Some p | _ -> acc)
      None f
    |> Option.get
  in
  match Scev.affine_of f l ~iv_phi:phi.Instr.id store_ptr with
  | Some a ->
    checkb "scale 2" (Int64.equal a.Scev.scale 2L);
    checkb "offset 3" (Int64.equal a.Scev.offset 3L);
    (match a.Scev.base with
    | Some (Instr.Glob "a") -> ()
    | _ -> Alcotest.fail "base should be @a")
  | None -> Alcotest.fail "address should be affine"

let test_scev_classify_random () =
  (* classify_pair's No_dep/Intra verdicts checked against brute force *)
  let gen =
    QCheck.Gen.(
      tup4 (int_range 1 6) (int_range 0 20) (int_range 0 20) (int_range 1 5))
  in
  let prop (s, o1, o2, span) =
    let a = { Scev.pbase = []; terms = [ (0, Int64.of_int s); (1, 1L) ]; poffset = Int64.of_int o1 } in
    let b = { Scev.pbase = []; terms = [ (0, Int64.of_int s); (1, 1L) ]; poffset = Int64.of_int o2 } in
    let verdict = Scev.classify_pair ~outer:0 ~spans:[ (1, Int64.of_int span) ] a b in
    (* brute force over iteration pairs and inner values *)
    let collide_cross = ref false and collide_same = ref false in
    for i1 = 0 to 6 do
      for i2 = 0 to 6 do
        for j1 = 0 to span do
          for j2 = 0 to span do
            let a1 = (s * i1) + j1 + o1 and a2 = (s * i2) + j2 + o2 in
            if a1 = a2 then
              if i1 = i2 then collide_same := true else collide_cross := true
          done
        done
      done
    done;
    match verdict with
    | `No_dep -> (not !collide_cross) && not !collide_same
    | `Intra -> not !collide_cross
    | `Unknown -> true
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:500 ~name:"classify_pair sound vs brute force"
       (QCheck.make gen) prop)

(* ------------------------------------------------------------------ *)
(* Linker                                                              *)
(* ------------------------------------------------------------------ *)

let test_linker () =
  let m1 = compile ~name:"u1" {|
int helper(int x);
int main() { print(helper(5)); return 0; }
|} in
  let m2 = compile ~name:"u2" {|
int helper(int x) { return x * x; }
|} in
  let whole = Linker.link [ m1; m2 ] in
  Verify.verify_module whole;
  checks "cross-unit call works" "25" (output whole);
  (* duplicate definitions are an error *)
  (match Linker.link [ m2; m2 ] with
  | exception Linker.Link_error _ -> ()
  | _ -> Alcotest.fail "duplicate definition should fail")

let suite =
  [
    tc "ty" test_ty;
    tc "instr operands" test_instr_operands;
    tc "builder basics" test_builder_basic;
    tc "builder split" test_builder_split;
    tc "cfg prune: dead chain into a phi" test_prune_dead_chain;
    tc "dead phi cycles" test_dce_phis;
    tc "round-trip all kernels" test_roundtrip_kernels;
    tc "reparse preserves semantics" test_roundtrip_preserves_semantics;
    tc "round-trip a 20k-instruction block" test_roundtrip_long_block;
    tc "metadata round-trip" test_metadata_roundtrip;
    tc "parser errors" test_parser_errors;
    tc "frontend mutants" test_frontend_mutants;
    tc "float literals" test_float_literals;
    tc "verifier catches" test_verifier_catches;
    tc "dominators random" test_dominators_random;
    tc "postdominators" test_postdominators;
    tc "mem2reg semantics" test_mem2reg_semantics;
    tc "mem2reg promotes" test_mem2reg_promotes;
    tc "address-taken stays" test_address_taken_not_promoted;
    tc "simplify" test_simplify;
    tc "interp arith" test_interp_arith;
    tc "interp traps" test_interp_traps;
    tc "interp memory" test_interp_memory;
    tc "interp recursion" test_interp_recursion;
    tc "interp hook swap mid-frame" test_interp_hook_swap_mid_frame;
    tc "interp no stale layout" test_interp_no_stale_layout;
    tc "interp recursive slots" test_interp_recursive_slots;
    tc "alias baseline" test_alias_baseline;
    tc "alias structural must" test_alias_structural_must;
    tc "andersen indirect calls" test_andersen_resolves_indirect;
    tc "andersen disproves" test_andersen_disproves;
    tc "ordered builtins" test_ordered_builtins_conflict;
    tc "scev affine" test_scev_affine;
    tc "scev classify random" test_scev_classify_random;
    tc "linker" test_linker;
  ]
