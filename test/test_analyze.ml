(** Differential tests of the linear-time analyze path against its
    quadratic predecessors kept in {!Ssa_oracle} and {!Ldg_oracle}:
    printed IR must be byte-identical from both frontends, and every loop
    dependence graph identical node for node and edge for edge, in order,
    with the same flags.  Every SCCDAG must match the hash-table one kept
    in {!Sccdag_oracle}, the widened loops the vectorizer leaves behind
    included.  Plus unit cases for mem2reg's use census. *)

open Ir
open Helpers

(* the size classes of the analyze workload's generated modules *)
let large_cfg =
  { Bsuite.Generator.default_cfg with max_depth = 3; max_stmts = 18; arrays = 6 }

let small_seeds = List.init 40 (fun i -> i + 1)
let large_seeds = List.init 6 (fun i -> i + 1)

(** Every corpus kernel plus the seeded generator programs, by name. *)
let sources () =
  List.map (fun (k : Bsuite.Kernels.kernel) -> (k.kname, k.src)) Bsuite.Kernels.all
  @ List.map
      (fun s -> (Printf.sprintf "small-%d" s, Bsuite.Generator.program s))
      small_seeds
  @ List.map
      (fun s -> (Printf.sprintf "large-%d" s, Bsuite.Generator.program ~cfg:large_cfg s))
      large_seeds

(* ------------------------------------------------------------------ *)
(* Frontend                                                            *)
(* ------------------------------------------------------------------ *)

let test_frontend_identical () =
  List.iter
    (fun (name, src) ->
      checks (name ^ ": printed IR")
        (Printer.module_str (Ssa_oracle.compile ~name src))
        (Printer.module_str (Minic.Lower.compile ~name src)))
    (sources ())

(* One block of 20k statements: the lowering lays a block out once, so
   this takes well under a second (laying out per instruction took minutes). *)
let test_long_block () =
  let n = 20_000 in
  let b = Buffer.create (n * 16) in
  Buffer.add_string b "int main() {\n  int s = 0;\n";
  for k = 1 to n do Printf.bprintf b "  s = s + %d;\n" k done;
  Buffer.add_string b "  print(s);\n  return 0;\n}\n";
  let src = Buffer.contents b in
  let t0 = Unix.gettimeofday () in
  let m = Minic.Lower.lower_program ~name:"long" (Minic.Parser.parse_program src) in
  let secs = Unix.gettimeofday () -. t0 in
  checkb (Printf.sprintf "lowered in %.2f s (bound 10 s)" secs) (secs < 10.);
  let f = Irmod.func m "main" in
  let ids = (Func.block f (Func.entry f)).Func.insts in
  (* alloca and store of [s]; load, add, store per statement; load, print, ret *)
  checki "one block" 1 (List.length (Func.blocks f));
  checki "instructions" (3 * n + 5) (List.length ids);
  checkb "laid out in creation order" (ids = List.sort compare ids);
  checkb "terminator last"
    (Instr.is_terminator (Func.inst f (List.nth ids (List.length ids - 1))));
  checks "runs" (string_of_int (n * (n + 1) / 2)) (run_src src)

(* 4k blocks' worth of [if]s: adding a block is O(1), so lowering stays
   linear in the number of blocks *)
let test_many_ifs () =
  let n = 4_000 and s0 = 3_000 in
  let b = Buffer.create (n * 40) in
  Printf.bprintf b "int main() {\n  int s = %d;\n" s0;
  for k = 1 to n do Printf.bprintf b "  if (s > %d) { s = s - 1; }\n" k done;
  Buffer.add_string b "  print(s);\n  return 0;\n}\n";
  let src = Buffer.contents b in
  let t0 = Unix.gettimeofday () in
  let m = Minic.Lower.lower_program ~name:"ifs" (Minic.Parser.parse_program src) in
  let secs = Unix.gettimeofday () -. t0 in
  checkb (Printf.sprintf "lowered in %.2f s (bound 2 s)" secs) (secs < 2.);
  let f = Irmod.func m "main" in
  let labels = List.map (fun bid -> (Func.block f bid).Func.label) (Func.blocks f) in
  checkb "more than 2 blocks per if" (List.length labels > 2 * n);
  checki "labels unique" (List.length labels)
    (List.length (List.sort_uniq compare labels));
  let s = ref s0 in
  for k = 1 to n do if !s > k then decr s done;
  checks "runs" (string_of_int !s) (run_src src)

(** Run the census mem2reg and the oracle on two parses of [src]; both
    must print the same function, which is returned. *)
let promote src =
  let m = Parser.parse_module src and m' = Parser.parse_module src in
  let f = Irmod.func m "f" and f' = Irmod.func m' "f" in
  ignore (Mem2reg.run f);
  ignore (Ssa_oracle.Mem2reg.run f');
  checks "same as the oracle" (Printer.func_str f') (Printer.func_str f);
  Verify.verify_func f;
  f

let allocas f =
  Func.fold_insts
    (fun n i -> match i.Instr.op with Instr.Alloca _ -> n + 1 | _ -> n)
    0 f

let phis f =
  List.filter
    (fun (i : Instr.inst) -> match i.Instr.op with Instr.Phi _ -> true | _ -> false)
    (Func.insts f)

let test_stored_address_escapes () =
  let f =
    promote
      {|
define i64 @f() {
entry:
  %1 = alloca 1
  %2 = alloca 1
  %3 = alloca 1
  store %1, %2
  store %3, %3
  store 5, %1
  %4 = load.i64 %1
  ret %4
}
|}
  in
  (* %1 is stored as a value and %3 through itself; only %2 promotes *)
  checki "two allocas stay" 2 (allocas f)

let test_gep_escapes () =
  let f =
    promote
      {|
define i64 @f() {
entry:
  %1 = alloca 1
  %2 = gep %1, 0
  store 7, %2
  %3 = load.i64 %1
  ret %3
}
|}
  in
  checki "indexed alloca stays" 1 (allocas f)

(* loads of one alloca typed i64, ptr, f64, i64 in layout order: the
   promoted value is an f64, the type of the last non-i64 load *)
let test_last_non_i64_load_types () =
  let f =
    promote
      {|
define f64 @f(i64 %c) {
entry:
  %1 = alloca 1
  %2 = load.i64 %1
  %5 = load.ptr %1
  cbr %c, then, join
then:
  store 2.5, %1
  br join
join:
  %3 = load.f64 %1
  %4 = load.i64 %1
  ret %3
}
|}
  in
  checki "promoted" 0 (allocas f);
  match phis f with
  | [ p ] ->
    checkb "phi typed by the f64 load" (Ty.equal p.Instr.ty Ty.F64);
    checkb "undefined path reads 0.0"
      (match p.Instr.op with
      | Instr.Phi incs -> List.exists (fun (_, v) -> v = Instr.Cfloat 0.0) incs
      | _ -> false)
  | ps -> Alcotest.failf "expected one phi, got %d" (List.length ps)

let test_cbr_same_target () =
  let f =
    promote
      {|
define i64 @f(i64 %c) {
entry:
  %1 = alloca 1
  store 1, %1
  cbr %c, left, join
left:
  store 2, %1
  cbr %c, join, join
join:
  %2 = load.i64 %1
  ret %2
}
|}
  in
  match phis f with
  | [ { Instr.op = Instr.Phi incs; _ } ] ->
    checki "one incoming per predecessor" 2 (List.length incs)
  | ps -> Alcotest.failf "expected one phi, got %d" (List.length ps)

(* ------------------------------------------------------------------ *)
(* Loop dependence graphs                                              *)
(* ------------------------------------------------------------------ *)

let edge_str (e : Noelle.Depgraph.edge) =
  Printf.sprintf "%d->%d %s must=%b lc=%b" e.Noelle.Depgraph.esrc e.Noelle.Depgraph.edst
    (Noelle.Depgraph.kind_to_string e.Noelle.Depgraph.kind)
    e.Noelle.Depgraph.must e.Noelle.Depgraph.loop_carried

(** Everything observable of a graph, in order: nodes with their
    internal flag, then each node's successor and predecessor lists. *)
let graph_str (g : Noelle.Depgraph.t) =
  let module D = Noelle.Depgraph in
  let b = Buffer.create 1024 in
  Printf.bprintf b "edges=%d\n" (D.num_edges g);
  List.iter
    (fun n ->
      Printf.bprintf b "%d %b\n  succ %s\n  pred %s\n" n (D.is_internal g n)
        (String.concat "; " (List.map edge_str (D.succs g n)))
        (String.concat "; " (List.map edge_str (D.preds g n))))
    g.D.nodes;
  Buffer.contents b

(** Nested loops whose outer iterations overlap only through the inner
    phi's exit value: the store after the inner loop writes c[N*i + N],
    which the next outer iteration's inner store writes as c[N*(i+1) + 0].
    The inner phi's body range ([0, 9]) bounds addresses inside the inner
    loop, not after it and not in its header.  The second writes the
    inner exit test on the true edge of [icmp.sge]; the third stores in
    the inner loop's header, which also runs with the exit value. *)
let missed_writes =
  [
    ( "missed-write-10",
      Minic.Lower.compile ~name:"missed-write-10"
        {|
int c[110];
int main() {
  for (int i = 0; i < 10; i++) {
    int j;
    for (j = 0; j < 10; j++) c[i * 10 + j] = i;
    c[i * 10 + j] = 100 + i;
  }
  print(c[10]);
  return 0;
}
|} );
    ( "missed-write-9",
      Parser.parse_module ~name:"missed-write-9"
        {|
global @c = 100
define i64 @main() {
entry:
  %1 = br outer
outer:
  %2 = phi.i64 [entry: 0] [outer.step: %3]
  %4 = icmp.slt %2, 10
  %5 = cbr %4, inner, done
inner:
  %6 = phi.i64 [outer: 0] [body: %7]
  %8 = icmp.sge %6, 10
  %9 = cbr %8, after, body
body:
  %10 = mul %2, 9
  %11 = add %10, %6
  %12 = gep @c, %11
  %13 = store %2, %12
  %7 = add %6, 1
  %14 = br inner
after:
  %15 = mul %2, 9
  %16 = add %15, %6
  %17 = gep @c, %16
  %18 = add 100, %2
  %19 = store %18, %17
  %20 = br outer.step
outer.step:
  %3 = add %2, 1
  %21 = br outer
done:
  %22 = gep @c, 9
  %23 = load.i64 %22
  %24 = call.void @print(%23)
  %25 = ret 0
}
declare void @print(i64 %a0)
|} );
    ( "missed-write-header",
      Parser.parse_module ~name:"missed-write-header"
        {|
global @c = 110
define i64 @main() {
entry:
  %1 = br outer
outer:
  %2 = phi.i64 [entry: 0] [outer.step: %3]
  %4 = icmp.slt %2, 10
  %5 = cbr %4, inner, done
inner:
  %6 = phi.i64 [outer: 0] [body: %7]
  %10 = mul %2, 10
  %11 = add %10, %6
  %12 = gep @c, %11
  %13 = store %2, %12
  %8 = icmp.slt %6, 10
  %9 = cbr %8, body, outer.step
body:
  %7 = add %6, 1
  %14 = br inner
outer.step:
  %3 = add %2, 1
  %15 = br outer
done:
  %16 = gep @c, 10
  %17 = load.i64 %16
  %18 = call.void @print(%17)
  %19 = ret 0
}
declare void @print(i64 %a0)
|} );
  ]

(** Every loop of every source and of {!missed_writes}, with the function
    graph it came from. *)
let iter_loops k =
  List.iter
    (fun (name, m) ->
      let n = Noelle.create m in
      List.iter
        (fun f ->
          let pdg = Noelle.pdg n f in
          List.iter (fun l -> k name pdg l) (Noelle.loops n f))
        (Irmod.defined_functions m))
    (List.map (fun (name, src) -> (name, Minic.Lower.compile ~name src)) (sources ())
    @ missed_writes)

let test_loop_graphs_identical () =
  let loops = ref 0 and missed = ref 0 in
  iter_loops (fun name pdg l ->
      incr loops;
      let raw = (Noelle.Loop.structure l).Noelle.Loopstructure.raw in
      let old = Ldg_oracle.loop_dg pdg raw in
      let g = (Noelle.Loop.dep_graph l).Noelle.Pdg.ldg in
      checks
        (Printf.sprintf "%s: loop %s" name (Noelle.Loop.id l))
        (graph_str old.Noelle.Pdg.ldg) (graph_str g);
      if List.mem_assoc name missed_writes && raw.Loopnest.children <> [] then begin
        (* the outer loop: a store-store edge is loop-carried unless both
           stores lie inside the inner loop and outside its header, the
           only place the inner phi's span holds *)
        let f = pdg.Noelle.Pdg.f in
        let in_inner_body id =
          let b = (Func.inst f id).Instr.parent in
          List.exists
            (fun (sl : Loopnest.loop) -> b <> sl.Loopnest.header && Loopnest.contains sl b)
            raw.Loopnest.children
        in
        Noelle.Depgraph.iter_edges g (fun e ->
            if
              e.Noelle.Depgraph.kind = Noelle.Depgraph.Memory Noelle.Depgraph.WAW
              && not (in_inner_body e.Noelle.Depgraph.esrc && in_inner_body e.Noelle.Depgraph.edst)
            then begin
              incr missed;
              checkb (Printf.sprintf "%s: %s is loop-carried" name (edge_str e))
                e.Noelle.Depgraph.loop_carried
            end)
      end);
  checkb "loops compared" (!loops > 100);
  checkb "missed-write edges checked" (!missed >= List.length missed_writes)

let test_loop_graphs_share_edges () =
  let shared = ref 0 and carried = ref 0 in
  iter_loops (fun name pdg l ->
      let fdg = pdg.Noelle.Pdg.fdg in
      Noelle.Depgraph.iter_edges (Noelle.Loop.dep_graph l).Noelle.Pdg.ldg (fun e ->
          let own = List.memq e (Noelle.Depgraph.succs fdg e.Noelle.Depgraph.esrc) in
          if e.Noelle.Depgraph.loop_carried then begin
            incr carried;
            checkb (Printf.sprintf "%s: carried %s has its own record" name (edge_str e))
              (not own)
          end
          else begin
            incr shared;
            checkb (Printf.sprintf "%s: %s shares the function graph's record" name
                      (edge_str e)) own
          end));
  checkb "shared edges seen" (!shared > 1000);
  checkb "carried edges seen" (!carried > 100)

(** Everything observable of an SCCDAG and its cross-SCC carried edges,
    from the library and from {!Sccdag_oracle}. *)
let sccdag_str l =
  let module S = Noelle.Sccdag in
  let dag = Noelle.Loop.sccdag l in
  let g = dag.S.ldg.Noelle.Pdg.ldg in
  let b = Buffer.create 1024 in
  List.iter
    (fun (s : S.scc) ->
      Printf.bprintf b "scc %d carried=%b [%s] -> [%s]\n" s.S.sid (S.is_carried s)
        (String.concat " " (List.map string_of_int s.S.members))
        (String.concat " " (List.map string_of_int (S.successors dag s.S.sid))))
    dag.S.sccs;
  for id = -1 to Noelle.Depgraph.bound g do
    Printf.bprintf b "%d:%s " id
      (match S.scc_of_inst dag id with Some s -> string_of_int s | None -> "-")
  done;
  Printf.bprintf b "\ncross %s\n"
    (String.concat "; " (List.map edge_str (Noelle.Loop.ascc l).Noelle.Ascc.cross_carried));
  Buffer.contents b

let oracle_sccdag_str l =
  let g = (Noelle.Loop.dep_graph l).Noelle.Pdg.ldg in
  let o = Sccdag_oracle.build (Noelle.Loop.dep_graph l) in
  let b = Buffer.create 1024 in
  List.iteri
    (fun sid (ms, carried) ->
      Printf.bprintf b "scc %d carried=%b [%s] -> [%s]\n" sid carried
        (String.concat " " (List.map string_of_int ms))
        (String.concat " "
           (List.map string_of_int (Hashtbl.find o.Sccdag_oracle.dag_succ sid))))
    (List.combine o.Sccdag_oracle.members o.Sccdag_oracle.carried);
  for id = -1 to Noelle.Depgraph.bound g do
    Printf.bprintf b "%d:%s " id
      (match Hashtbl.find_opt o.Sccdag_oracle.node_scc id with
      | Some s -> string_of_int s
      | None -> "-")
  done;
  Printf.bprintf b "\ncross %s\n"
    (String.concat "; " (List.map edge_str o.Sccdag_oracle.cross_carried));
  Buffer.contents b

let test_sccdags_identical () =
  let loops = ref 0 in
  iter_loops (fun name _ l ->
      incr loops;
      checks
        (Printf.sprintf "%s: loop %s" name (Noelle.Loop.id l))
        (oracle_sccdag_str l) (sccdag_str l));
  checkb "loops compared" (!loops > 100)

(* the loops of every kernel the vectorizer widens, after it ran: the
   widened loops are the largest graphs the parallelizers see *)
let test_sccdags_widened () =
  let loops = ref 0 and largest = ref 0 in
  List.iter
    (fun (k : Bsuite.Kernels.kernel) ->
      let m = Bsuite.Kernels.compile k in
      let widened =
        List.exists
          (fun (_, r) -> Result.is_ok r)
          (Ntools.Vec.run (Noelle.create m) m ~ncores:4 ~min_work:0.0 ())
      in
      if widened then begin
        let n = Noelle.create m in
        List.iter
          (fun f ->
            List.iter
              (fun l ->
                incr loops;
                if k.Bsuite.Kernels.kname = "blackscholes" then begin
                  let g = (Noelle.Loop.dep_graph l).Noelle.Pdg.ldg in
                  let nodes = List.filter (Noelle.Depgraph.is_internal g) g.Noelle.Depgraph.nodes in
                  largest := max !largest (List.length nodes)
                end;
                checks
                  (Printf.sprintf "%s after vec: loop %s" k.Bsuite.Kernels.kname (Noelle.Loop.id l))
                  (oracle_sccdag_str l) (sccdag_str l))
              (Noelle.loops n f))
          (Irmod.defined_functions m)
      end)
    Bsuite.Kernels.all;
  checkb "widened loops compared" (!loops > 100);
  checkb (Printf.sprintf "blackscholes' widened loop: %d nodes" !largest) (!largest > 600)

let suite =
  [
    tc "mem2reg: stored address escapes" test_stored_address_escapes;
    tc "mem2reg: gep use escapes" test_gep_escapes;
    tc "mem2reg: last non-i64 load sets the type" test_last_non_i64_load_types;
    tc "mem2reg: cbr to the same target" test_cbr_same_target;
    tc "frontend: printed IR matches the oracle" test_frontend_identical;
    tc "lower a 20k-statement block" test_long_block;
    tc "lower 4k if statements" test_many_ifs;
    tc "loop graphs match the oracle" test_loop_graphs_identical;
    tc "loop graphs share the function graph's edges" test_loop_graphs_share_edges;
    tc "SCCDAGs match the oracle" test_sccdags_identical;
    tc "SCCDAGs of widened loops match the oracle" test_sccdags_widened;
  ]
