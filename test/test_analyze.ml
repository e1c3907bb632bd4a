(** Differential tests of the linear-time analyze path against its
    quadratic predecessors kept in {!Ssa_oracle} and {!Ldg_oracle}:
    printed IR must be byte-identical from both frontends, and every loop
    dependence graph identical node for node and edge for edge, in order,
    with the same flags.  Every SCCDAG must match the hash-table one kept
    in {!Sccdag_oracle}.  Plus unit cases for mem2reg's use census. *)

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

(** Every loop of every source, with the function graph it came from. *)
let iter_loops k =
  List.iter
    (fun (name, src) ->
      let m = Minic.Lower.compile ~name src in
      let n = Noelle.create m in
      List.iter
        (fun f ->
          let pdg = Noelle.pdg n f in
          List.iter (fun l -> k name pdg l) (Noelle.loops n f))
        (Irmod.defined_functions m))
    (sources ())

let test_loop_graphs_identical () =
  let loops = ref 0 in
  iter_loops (fun name pdg l ->
      incr loops;
      let old = Ldg_oracle.loop_dg pdg (Noelle.Loop.structure l).Noelle.Loopstructure.raw in
      checks
        (Printf.sprintf "%s: loop %s" name (Noelle.Loop.id l))
        (graph_str old.Noelle.Pdg.ldg)
        (graph_str (Noelle.Loop.dep_graph l).Noelle.Pdg.ldg));
  checkb "loops compared" (!loops > 100)

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

let suite =
  [
    tc "mem2reg: stored address escapes" test_stored_address_escapes;
    tc "mem2reg: gep use escapes" test_gep_escapes;
    tc "mem2reg: last non-i64 load sets the type" test_last_non_i64_load_types;
    tc "mem2reg: cbr to the same target" test_cbr_same_target;
    tc "frontend: printed IR matches the oracle" test_frontend_identical;
    tc "loop graphs match the oracle" test_loop_graphs_identical;
    tc "loop graphs share the function graph's edges" test_loop_graphs_share_edges;
    tc "SCCDAGs match the oracle" test_sccdags_identical;
  ]
