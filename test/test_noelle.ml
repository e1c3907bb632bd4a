(** Tests of the NOELLE abstraction layer. *)

open Helpers
open Ir

let simple_loop_src =
  {|
int a[100];
int main() {
  int s = 0;
  for (int i = 0; i < 100; i++) {
    a[i] = i * 2;
    s += a[i];
  }
  print(s);
  return 0;
}
|}

let with_loop src f =
  let m = compile src in
  let n = Noelle.create m in
  let main = Irmod.func m "main" in
  match Noelle.loops n main with
  | lp :: _ -> f m n main lp
  | [] -> Alcotest.fail "expected a loop"

(* ------------------------------------------------------------------ *)
(* Dependence graph / PDG                                              *)
(* ------------------------------------------------------------------ *)

let test_depgraph_generic () =
  let g = Noelle.Depgraph.create () in
  Noelle.Depgraph.add_node g 1;
  Noelle.Depgraph.add_node g ~internal:false 2;
  ignore (Noelle.Depgraph.add_edge g ~kind:Noelle.Depgraph.Control 1 2);
  ignore (Noelle.Depgraph.add_edge g ~must:true ~kind:(Noelle.Depgraph.Register Noelle.Depgraph.RAW) 2 1);
  checki "nodes" 2 (Noelle.Depgraph.num_nodes g);
  checki "edges" 2 (Noelle.Depgraph.num_edges g);
  checki "internal nodes" 1 (List.length (Noelle.Depgraph.internal_nodes g));
  checki "external nodes" 1 (List.length (Noelle.Depgraph.external_nodes g));
  let sccs, _ = Noelle.Depgraph.scc_index g in
  checki "sccs over internals only" 1 (List.length sccs)

let test_depgraph_slice () =
  let g = Noelle.Depgraph.create () in
  List.iter (Noelle.Depgraph.add_node g) [ 1; 2; 3 ];
  ignore (Noelle.Depgraph.add_edge g ~kind:Noelle.Depgraph.Control 1 2);
  ignore (Noelle.Depgraph.add_edge g ~kind:Noelle.Depgraph.Control 2 3);
  let s = Ldg_oracle.slice g ~keep:(fun n -> n = 2) in
  checki "one internal" 1 (List.length (Noelle.Depgraph.internal_nodes s));
  (* 1 and 3 appear as externals: the live-in and live-out *)
  checki "two externals" 2 (List.length (Noelle.Depgraph.external_nodes s))

let test_depgraph_dense_ids () =
  let module D = Noelle.Depgraph in
  let g = D.create ~size:4 () in
  (* ids past the initial size grow the arrays; the ids between stay absent *)
  ignore (D.add_edge g ~kind:D.Control 2 1000);
  ignore (D.add_edge g ~kind:D.Control 1000 50_000);
  ignore (D.add_edge g ~kind:D.Control 50_000 1000);
  D.add_node g ~internal:false 7;
  checkb "bound covers every id" (D.bound g > 50_000);
  checki "nodes" 4 (D.num_nodes g);
  checkb "members" (List.for_all (D.mem g) [ 2; 7; 1000; 50_000 ]);
  checkb "absent ids" (not (List.exists (D.mem g) [ -1; 0; 3; 999; 1001; 49_999; 1_000_000 ]));
  checkb "external" (not (D.is_internal g 7));
  checki "succs of 1000" 1 (List.length (D.succs g 1000));
  checki "preds of 1000" 2 (List.length (D.preds g 1000));
  checki "no succs past the end" 0 (List.length (D.succs g 1_000_000));
  checki "no preds below zero" 0 (List.length (D.preds g (-3)));
  checks "sccs" "[2] [1000 50000]"
    (String.concat " "
       (List.map
          (fun c -> "[" ^ String.concat " " (List.map string_of_int (List.sort compare c)) ^ "]")
          (List.rev (fst (D.scc_index g)))))

let test_depgraph_negative_id () =
  let module D = Noelle.Depgraph in
  let g = D.create () in
  let raises what f =
    match f () with
    | () -> Alcotest.failf "%s: no Invalid_argument" what
    | exception Invalid_argument _ -> ()
  in
  raises "add_node" (fun () -> D.add_node g (-1));
  raises "add_edge" (fun () -> ignore (D.add_edge g ~kind:D.Control 0 (-2)));
  checkb "-1 absent" (not (D.mem g (-1)))

let test_depgraph_filter_count () =
  let module D = Noelle.Depgraph in
  let g = D.create ~size:8 () in
  for i = 0 to 9 do
    for j = 0 to 9 do
      if (i + j) mod 3 = 0 then ignore (D.add_edge g ~kind:(D.Memory D.RAW) i j)
    done
  done;
  let before = D.num_edges g in
  checki "edges listed" before (List.length (D.edges g));
  D.filter_edges g ~keep_edge:(fun e -> e.D.esrc < e.D.edst);
  checkb "some dropped" (D.num_edges g < before);
  checki "num_edges = edges listed" (List.length (D.edges g)) (D.num_edges g);
  checki "pred lists agree" (D.num_edges g)
    (List.fold_left (fun n v -> n + List.length (D.preds g v)) 0 g.D.nodes)

let test_pdg_register_deps () =
  with_loop simple_loop_src (fun _m n main _lp ->
      let pdg = Noelle.pdg n main in
      (* every register operand must have a matching must RAW edge *)
      Func.iter_insts
        (fun i ->
          List.iter
            (function
              | Instr.Reg r ->
                checkb "def-use edge present"
                  (List.exists
                     (fun (e : Noelle.Depgraph.edge) ->
                       e.Noelle.Depgraph.esrc = r
                       && e.Noelle.Depgraph.kind = Noelle.Depgraph.Register Noelle.Depgraph.RAW)
                     (Noelle.Depgraph.preds pdg.Noelle.Pdg.fdg i.Instr.id))
              | _ -> ())
            (Instr.operands i.Instr.op))
        main)

let test_pdg_control_deps () =
  let m =
    compile
      {|
int main() {
  int x = clock();
  if (x > 0) { print(1); } else { print(2); }
  return 0;
}
|}
  in
  let n = Noelle.create m in
  let main = Irmod.func m "main" in
  let pdg = Noelle.pdg n main in
  (* both prints are control-dependent on the branch *)
  let branch =
    Func.fold_insts
      (fun acc i -> match i.Instr.op with Instr.Cbr _ -> Some i | _ -> acc)
      None main
    |> Option.get
  in
  let ctrl_succs =
    List.filter
      (fun (e : Noelle.Depgraph.edge) -> e.Noelle.Depgraph.kind = Noelle.Depgraph.Control)
      (Noelle.Depgraph.succs pdg.Noelle.Pdg.fdg branch.Instr.id)
  in
  checkb "branch controls several instructions" (List.length ctrl_succs >= 2)

let test_pdg_precision_gap () =
  (* the NOELLE stack must disprove at least as much as the baseline on
     every kernel — the Figure 3 property *)
  each_kernel (fun k m ->
      List.iter
        (fun f ->
          let base = Noelle.Pdg.build ~stack:Andersen.baseline_stack m f in
          let full = Noelle.Pdg.build ~stack:(Andersen.noelle_stack m) m f in
          checkb
            (Printf.sprintf "%s/%s: NOELLE >= LLVM disprovals" k.Bsuite.Kernels.kname
               f.Func.fname)
            (Noelle.Pdg.disproval_rate full >= Noelle.Pdg.disproval_rate base -. 1e-9))
        (Irmod.defined_functions m))

let test_pdg_embed_reload () =
  with_loop simple_loop_src (fun m n main _lp ->
      let pdg = Noelle.pdg n main in
      Noelle.Pdg.embed pdg;
      let m2 = Parser.parse_module (Printer.module_str m) in
      let main2 = Irmod.func m2 "main" in
      match Noelle.Pdg.of_embedded m2 main2 with
      | Some p2 ->
        checki "same edge count"
          (Noelle.Depgraph.num_edges pdg.Noelle.Pdg.fdg)
          (Noelle.Depgraph.num_edges p2.Noelle.Pdg.fdg)
      | None -> Alcotest.fail "embedded PDG should reload")

let test_live_ins_outs () =
  with_loop
    {|
int main() {
  int k = clock() + 3;
  int s = 0;
  for (int i = 0; i < 10; i++) { s += i * k; }
  print(s);
  return 0;
}
|}
    (fun _m _n _main lp ->
      let ins = Noelle.Loop.live_ins lp in
      let outs = Noelle.Loop.live_outs lp in
      checkb "k is a live-in" (List.length ins >= 1);
      checki "s is the only live-out" 1 (List.length outs))

(* ------------------------------------------------------------------ *)
(* Loop structure / shapes                                             *)
(* ------------------------------------------------------------------ *)

let test_loop_shapes () =
  let m =
    compile
      {|
int main() {
  int i = 0;
  int s = 0;
  while (i < 10) { s += i; i++; }
  int j = 0;
  do { s += j; j++; } while (j < 10);
  print(s);
  return 0;
}
|}
  in
  let n = Noelle.create m in
  let shapes =
    List.map
      (fun lp -> Noelle.Loopstructure.shape (Noelle.Loop.structure lp))
      (Noelle.loops n (Irmod.func m "main"))
    |> List.sort compare
  in
  checkb "one while-shape and one do-while-shape"
    (shapes = List.sort compare [ Noelle.Loopstructure.While_shape; Noelle.Loopstructure.Do_while_shape ])

let test_loop_structure_fields () =
  with_loop simple_loop_src (fun _m _n main lp ->
      let ls = Noelle.Loop.structure lp in
      checkb "has latch" (ls.Noelle.Loopstructure.latches <> []);
      checki "single exit edge" 1 (List.length ls.Noelle.Loopstructure.exit_edges);
      checki "depth 1" 1 ls.Noelle.Loopstructure.depth;
      checkb "header in blocks"
        (List.mem ls.Noelle.Loopstructure.header ls.Noelle.Loopstructure.blocks);
      checkb "header phis exist" (Noelle.Loopstructure.header_phis ls <> []);
      ignore main)

(* ------------------------------------------------------------------ *)
(* aSCCDAG                                                             *)
(* ------------------------------------------------------------------ *)

let test_ascc_classification () =
  with_loop simple_loop_src (fun _m n _main lp ->
      let ascc = Noelle.aSCCDAG n lp in
      let kinds =
        List.map (fun (nd : Noelle.Ascc.node) -> nd.Noelle.Ascc.attr) ascc.Noelle.Ascc.nodes
      in
      checkb "has an induction SCC"
        (List.exists (function Noelle.Ascc.Induction _ -> true | _ -> false) kinds);
      checkb "has a reducible SCC (s +=)"
        (List.exists (function Noelle.Ascc.Reducible _ -> true | _ -> false) kinds);
      checkb "no sequential SCC"
        (not (List.exists (( = ) Noelle.Ascc.Sequential) kinds)))

let test_ascc_sequential () =
  with_loop
    {|
int main() {
  int x = 7;
  for (int i = 0; i < 10; i++) {
    x = (x * 31 + 1) & 1023;
  }
  print(x);
  return 0;
}
|}
    (fun _m n _main lp ->
      let ascc = Noelle.aSCCDAG n lp in
      checkb "recurrence is sequential" (Noelle.Ascc.has_sequential ascc))

let test_sccdag_topological () =
  with_loop simple_loop_src (fun _m n _main lp ->
      let dag = Noelle.scc_dag n lp in
      let order = Noelle.Sccdag.topological dag in
      (* producers must come before consumers *)
      let pos = Hashtbl.create 16 in
      List.iteri (fun i s -> Hashtbl.replace pos s.Noelle.Sccdag.sid i) order;
      List.iter
        (fun (s : Noelle.Sccdag.scc) ->
          List.iter
            (fun succ ->
              checkb "topological order respected"
                (Hashtbl.find pos s.Noelle.Sccdag.sid < Hashtbl.find pos succ))
            (Noelle.Sccdag.successors dag s.Noelle.Sccdag.sid))
        order)

(* ------------------------------------------------------------------ *)
(* Induction variables                                                 *)
(* ------------------------------------------------------------------ *)

let test_indvars_while_shape () =
  with_loop simple_loop_src (fun _m n _main lp ->
      let ivs = Noelle.induction_variables n lp in
      checkb "NOELLE finds the governing IV in a while loop"
        (Noelle.Indvars.governing_iv ivs <> None);
      let ls = Noelle.Loop.structure lp in
      checki "baseline finds none (while shape)" 0
        (Noelle.Indvars_llvm.governing_count ls))

let test_indvars_do_while () =
  with_loop
    {|
int main() {
  int i = 0;
  int s = 0;
  do { s += i; i++; } while (i < 20);
  print(s);
  return 0;
}
|}
    (fun _m n _main lp ->
      let ls = Noelle.Loop.structure lp in
      checkb "both find the IV in do-while shape"
        (Noelle.Indvars.governing_iv (Noelle.induction_variables n lp) <> None
        && Noelle.Indvars_llvm.governing_count ls = 1))

let test_trip_count () =
  let cases =
    [ ("i = 0; i < 10; i++", 10L); ("i = 0; i <= 10; i++", 11L);
      ("i = 3; i < 10; i += 2", 4L); ("i = 10; i > 0; i -= 3", 4L) ]
  in
  List.iter
    (fun (hdr, expected) ->
      with_loop
        (Printf.sprintf
           {| int main() { int s = 0; for (int %s) { s += 1; } print(s); return 0; } |}
           hdr)
        (fun m n _main lp ->
          match Noelle.Indvars.governing_iv (Noelle.induction_variables n lp) with
          | Some iv -> (
            match Noelle.Indvars.const_trip_count iv with
            | Some t ->
              checkb (Printf.sprintf "trip count of (%s) = %Ld" hdr expected)
                (Int64.equal t expected);
              (* and the dynamic count agrees *)
              checks "dynamic agrees" (Int64.to_string expected) (output m)
            | None -> Alcotest.failf "no const trip count for %s" hdr)
          | None -> Alcotest.failf "no governing IV for %s" hdr))
    cases

let test_derived_ivs () =
  with_loop
    {|
int a[400];
int main() {
  for (int i = 0; i < 100; i++) {
    a[3*i + 2] = i;
  }
  print(a[2]);
  return 0;
}
|}
    (fun _m n _main lp ->
      let ivs = Noelle.induction_variables n lp in
      let ls = Noelle.Loop.structure lp in
      let derived = Noelle.Indvars.derived ls ivs in
      checkb "3*i+2 address chain is derived" (List.length derived >= 1))

(* ------------------------------------------------------------------ *)
(* Invariants                                                          *)
(* ------------------------------------------------------------------ *)

let test_invariants_chain () =
  with_loop
    {|
int main() {
  int k = clock() + 1;
  int s = 0;
  for (int i = 0; i < 10; i++) {
    int a = k * k;      // invariant
    int b = a + 5;      // invariant chained through a
    s += i * b;
  }
  print(s);
  return 0;
}
|}
    (fun m n _main lp ->
      let inv = Noelle.invariants n lp in
      let ls = Noelle.Loop.structure lp in
      checkb "algorithm 2 finds the chain" (Noelle.Invariants.count inv >= 2);
      (* the baseline (algorithm 1) misses the chained one *)
      checkb "algorithm 1 finds strictly fewer"
        (Noelle.Invariants_llvm.count m ls < Noelle.Invariants.count inv))

let test_invariants_superset_property () =
  (* algorithm 2 must find >= algorithm 1 on every loop of every kernel *)
  each_kernel (fun k m ->
      let n = Noelle.create m in
      List.iter
        (fun f ->
          List.iter
            (fun lp ->
              let ls = Noelle.Loop.structure lp in
              let n2 = Noelle.Invariants.count (Noelle.invariants n lp) in
              let n1 = Noelle.Invariants_llvm.count m ls in
              checkb
                (Printf.sprintf "%s/%s: alg2 >= alg1" k.Bsuite.Kernels.kname
                   (Noelle.Loop.id lp))
                (n2 >= n1))
            (Noelle.loops n f))
        (Irmod.defined_functions m))

(* ------------------------------------------------------------------ *)
(* Reductions                                                          *)
(* ------------------------------------------------------------------ *)

let test_reduction_kinds () =
  let cases =
    [ ("s += i", "sum"); ("s *= (i | 1)", "prod"); ("s = s ^ i", "xor");
      ("s = i64_max(s, i % 37)", "max") ]
  in
  List.iter
    (fun (upd, kind) ->
      with_loop
        (Printf.sprintf
           {| int main() { int s = 1; for (int i = 0; i < 10; i++) { %s; } print(s); return 0; } |}
           upd)
        (fun _m n _main lp ->
          let reds = Noelle.reductions n lp in
          checki (upd ^ " detected") 1 (List.length reds);
          checks (upd ^ " kind")
            kind
            (match (List.hd reds).Noelle.Reduction.kind with
            | Noelle.Reduction.Sum -> "sum" | Prod -> "prod" | Fsum -> "fsum"
            | Fprod -> "fprod" | Band -> "and" | Bor -> "or" | Bxor -> "xor"
            | Min -> "min" | Max -> "max" | Fmin -> "fmin" | Fmax -> "fmax")))
    cases

let test_reduction_rejects_leak () =
  (* accumulator used by other in-loop computation is not reducible *)
  with_loop
    {|
int a[100];
int main() {
  int s = 0;
  for (int i = 0; i < 100; i++) {
    a[i] = s;    // leak: partial sums observable
    s += i;
  }
  print(s);
  return 0;
}
|}
    (fun _m n _main lp ->
      checki "leaked accumulator not reducible" 0
        (List.length (Noelle.reductions n lp)))

(* ------------------------------------------------------------------ *)
(* Call graph                                                          *)
(* ------------------------------------------------------------------ *)

let test_callgraph () =
  let m =
    compile
      {|
int leaf(int x) { return x + 1; }
int middle(int x) { return leaf(x) * 2; }
int unused(int x) { return leaf(x) - 1; }
int main() { print(middle(3)); return 0; }
|}
  in
  let n = Noelle.create m in
  let cg = Noelle.callgraph n in
  let callee_names fn =
    List.map (fun (e : Noelle.Callgraph.edge) -> e.Noelle.Callgraph.callee)
      (Noelle.Callgraph.callees cg fn)
    |> List.sort compare
  in
  checkb "main calls middle" (List.mem "middle" (callee_names "main"));
  checkb "middle calls leaf" (List.mem "leaf" (callee_names "middle"));
  checkb "direct edges are must"
    (List.for_all
       (fun (e : Noelle.Callgraph.edge) -> e.Noelle.Callgraph.must)
       (Noelle.Callgraph.callees cg "main"));
  let reach = Noelle.Callgraph.reachable cg ~roots:[ "main" ] in
  checkb "unused not reachable" (not (Hashtbl.mem reach "unused"));
  checkb "leaf reachable" (Hashtbl.mem reach "leaf")

let test_islands () =
  let found =
    Noelle.Islands.find ~nodes:[ 1; 2; 3; 4; 5 ]
      ~neighbors:(function 1 -> [ 2 ] | 2 -> [ 1 ] | 3 -> [ 4 ] | 4 -> [ 3 ] | _ -> [])
  in
  checki "three islands" 3 (List.length found)

(* ------------------------------------------------------------------ *)
(* DFE                                                                 *)
(* ------------------------------------------------------------------ *)

let test_liveness () =
  let m =
    compile
      {|
int main() {
  int a = clock();
  int b = a * 2;
  print(b);
  int c = a + 1;   // a live until here
  print(c);
  return 0;
}
|}
  in
  let f = Irmod.func m "main" in
  let live = Noelle.Dfe.liveness f in
  (* at entry of the (single) block, nothing is live-in *)
  let entry = Func.entry f in
  checkb "entry live-in empty"
    (Noelle.Dfe.IntSet.is_empty (Hashtbl.find live.Noelle.Dfe.in_ entry))

let test_liveness_across_blocks () =
  let m =
    compile
      {|
int main() {
  int a = clock();
  if (a > 0) { print(a + 1); } else { print(a + 2); }
  return 0;
}
|}
  in
  let f = Irmod.func m "main" in
  let live = Noelle.Dfe.liveness f in
  (* the definition of a must be live-out of the entry block *)
  let a_def =
    Func.fold_insts
      (fun acc i -> match i.Instr.op with Instr.Call (Instr.Glob "clock", _) -> Some i.Instr.id | _ -> acc)
      None f
    |> Option.get
  in
  let entry = Func.entry f in
  checkb "a live-out of entry"
    (Noelle.Dfe.IntSet.mem a_def (Hashtbl.find live.Noelle.Dfe.out entry))

(* ------------------------------------------------------------------ *)
(* Forest                                                              *)
(* ------------------------------------------------------------------ *)

let test_forest_delete () =
  let t = Noelle.Forest.create () in
  let r = Noelle.Forest.add_root t "r" in
  let c1 = Noelle.Forest.add_child r "c1" in
  let g1 = Noelle.Forest.add_child c1 "g1" in
  let g2 = Noelle.Forest.add_child c1 "g2" in
  checki "size 4" 4 (Noelle.Forest.size t);
  Noelle.Forest.delete t c1;
  checki "size 3 after delete" 3 (Noelle.Forest.size t);
  (* grandchildren reattached to the root *)
  checkb "g1 reattached" (List.memq g1 r.Noelle.Forest.children);
  checkb "g2 reattached" (List.memq g2 r.Noelle.Forest.children);
  check Alcotest.(option string) "parent updated" (Some "r")
    (Option.map (fun n -> n.Noelle.Forest.value) g1.Noelle.Forest.parent)

let test_forest_postorder () =
  let m =
    compile
      {|
int main() {
  int s = 0;
  for (int i = 0; i < 3; i++)
    for (int j = 0; j < 3; j++)
      for (int k = 0; k < 3; k++)
        s += 1;
  print(s);
  return 0;
}
|}
  in
  let n = Noelle.create m in
  let forest = Noelle.loop_forest n (Irmod.func m "main") in
  let depths =
    List.map
      (fun nd -> nd.Noelle.Forest.value.Loopnest.depth)
      (Noelle.Forest.nodes_postorder forest)
  in
  check Alcotest.(list int) "innermost first" [ 3; 2; 1 ] depths

(* ------------------------------------------------------------------ *)
(* Loop builder                                                        *)
(* ------------------------------------------------------------------ *)

let test_ensure_preheader () =
  with_loop simple_loop_src (fun m n main lp ->
      let ls = Noelle.Loop.structure lp in
      let ph = Noelle.Loopbuilder.ensure_preheader main ls.Noelle.Loopstructure.raw in
      Verify.verify_func main;
      let preds = Func.preds main in
      let outside =
        (try Hashtbl.find preds ls.Noelle.Loopstructure.header with Not_found -> [])
        |> List.filter (fun p -> not (Noelle.Loopstructure.contains ls p))
      in
      check Alcotest.(list int) "preheader is the only outside pred" [ ph ] outside;
      ignore n;
      checks "still runs" "9900" (output m))

let test_rotate_semantics () =
  let srcs =
    [
      {| int main() { int s = 0; for (int i = 0; i < 10; i++) { s += i * i; } print(s); print(s + 1); return 0; } |};
      {| int main() { int s = 0; int n = clock() % 3; for (int i = 0; i < n; i++) { s += i; } print(s); return 0; } |};
      {| int main() { int i = 0; while (i < 7) { i += 2; } print(i); return 0; } |};
    ]
  in
  List.iter
    (fun src ->
      preserves_output ~name:"rotate" src (fun m ->
          let f = Irmod.func m "main" in
          let nest = Loopnest.compute f in
          List.iter
            (fun l ->
              let ls = Noelle.Loopstructure.of_loop f l in
              ignore (Noelle.Loopbuilder.rotate f ls))
            nest.Loopnest.loops))
    srcs

let test_rotate_changes_shape () =
  let m = compile {| int main() { int s = 0; for (int i = 0; i < 10; i++) s += i; print(s); return 0; } |} in
  let f = Irmod.func m "main" in
  let nest = Loopnest.compute f in
  let ls = Noelle.Loopstructure.of_loop f (List.hd nest.Loopnest.loops) in
  checkb "rotates" (Noelle.Loopbuilder.rotate f ls);
  let nest2 = Loopnest.compute f in
  let ls2 = Noelle.Loopstructure.of_loop f (List.hd nest2.Loopnest.loops) in
  checkb "now do-while shaped"
    (Noelle.Loopstructure.shape ls2 = Noelle.Loopstructure.Do_while_shape);
  checks "still computes 45" "45" (output m)

let test_peel_semantics () =
  let srcs =
    [
      {| int main() { int s = 0; for (int i = 0; i < 10; i++) { s += i * 3; } print(s); return 0; } |};
      {| int a[20]; int main() { for (int i = 0; i < 20; i++) a[i] = i; int s = 0; for (int i = 0; i < 20; i++) s += a[i]; print(s); return 0; } |};
    ]
  in
  List.iter
    (fun src ->
      preserves_output ~name:"peel" src (fun m ->
          let f = Irmod.func m "main" in
          let nest = Loopnest.compute f in
          match nest.Loopnest.loops with
          | l :: _ ->
            let ls = Noelle.Loopstructure.of_loop f l in
            ignore (Noelle.Loopbuilder.peel_first f ls)
          | [] -> ()))
    srcs

let test_hoist () =
  preserves_output ~name:"hoist" simple_loop_src (fun m ->
      let n = Noelle.create m in
      ignore (Ntools.Licm.run n m))

(* ------------------------------------------------------------------ *)
(* Scheduler                                                           *)
(* ------------------------------------------------------------------ *)

let test_schedule_block_preserves () =
  List.iter
    (fun (k : Bsuite.Kernels.kernel) ->
      let m = Bsuite.Kernels.compile k in
      let expected = output ~fuel:k.Bsuite.Kernels.fuel m in
      let n = Noelle.create m in
      List.iter
        (fun f ->
          let sched = Noelle.scheduler n f in
          List.iter
            (fun bid ->
              (* reverse priority: aggressively reorder *)
              Noelle.Scheduler.schedule_block sched bid ~priority:(fun i ->
                  -i.Instr.id))
            (Func.blocks f))
        (Irmod.defined_functions m);
      verifies ("schedule " ^ k.Bsuite.Kernels.kname) m;
      checks
        (k.Bsuite.Kernels.kname ^ ": scheduling preserves output")
        expected
        (output ~fuel:k.Bsuite.Kernels.fuel m))
    [ Bsuite.Kernels.sha_lite; Bsuite.Kernels.adpcm_lite; Bsuite.Kernels.dedup_lite ]

let test_schedule_block_keeps_effect_order () =
  (* the PDG proves the two stores independent (distinct globals) and the
     later one's operands are ready first, yet a store-favouring priority
     must not swap them: both writes escape, and the exact trace gate
     observes them in program order *)
  let m =
    compile
      {|
int ga[4];
int gb[4];
int main() {
  int x = ga[2] + 5;
  ga[0] = x * 3;
  gb[0] = 7;
  return 0;
}
|}
  in
  let reference = Obs.run m in
  let n = Noelle.create m in
  let main = Irmod.func m "main" in
  let sched = Noelle.scheduler n main in
  let stores bid =
    List.filter
      (fun id ->
        match (Func.inst main id).Instr.op with Instr.Store _ -> true | _ -> false)
      (Func.block main bid).Func.insts
  in
  checkb "a block holds both stores"
    (List.exists (fun bid -> List.length (stores bid) >= 2) (Func.blocks main));
  List.iter
    (fun bid ->
      let before = stores bid in
      Noelle.Scheduler.schedule_block sched bid ~priority:(fun i ->
          match i.Instr.op with Instr.Store _ -> 0 | _ -> 1);
      checkb "stores keep program order" (before = stores bid))
    (Func.blocks main);
  checkb "exact trace unchanged"
    (Obs.compare ~license:Obs.Exact reference (Obs.run m) = `Equal)

let test_shrink_header () =
  with_loop
    {|
int main() {
  int s = 0;
  int i = 0;
  while (i * 7 < 70) {   // i*7 must stay; body-only computation can sink
    int t = i * 100;
    s += t + 1;
    i++;
  }
  print(s);
  return 0;
}
|}
    (fun m n main lp ->
      let ls = Noelle.Loop.structure lp in
      let sched = Noelle.scheduler n main in
      let before = List.length (Func.block main ls.Noelle.Loopstructure.header).Func.insts in
      let moved = Noelle.Scheduler.shrink_header sched ls in
      let after = List.length (Func.block main ls.Noelle.Loopstructure.header).Func.insts in
      checkb "header did not grow" (after <= before);
      ignore moved;
      Verify.verify_func main;
      checks "still correct" "4510" (output m))

(* ------------------------------------------------------------------ *)
(* Env / Task / Arch / Profiler                                        *)
(* ------------------------------------------------------------------ *)

let test_env () =
  let env = Noelle.Env.create () in
  let i0 = Noelle.Env.add env ~name:"a" ~ty:Ty.I64 ~role:Noelle.Env.Live_in in
  let i1 = Noelle.Env.add env ~name:"b" ~ty:Ty.F64 ~role:Noelle.Env.Live_out in
  checki "indices sequential" 0 i0;
  checki "indices sequential 2" 1 i1;
  checki "live-ins" 1 (List.length (Noelle.Env.live_ins env));
  checki "live-outs" 1 (List.length (Noelle.Env.live_outs env));
  (* emit a store/load pair and execute it *)
  let m = Irmod.create () in
  let f = Func.create ~name:"main" ~params:[] ~ret:Ty.I64 in
  Irmod.add_func m f;
  let b = Builder.add_block f ~label:"entry" in
  let ptr = Noelle.Env.emit_alloc env f b.Func.bid in
  Noelle.Env.emit_store f b.Func.bid ~env_ptr:ptr ~index:1 (Instr.Cfloat 2.5);
  let v = Noelle.Env.emit_load f b.Func.bid ~env_ptr:ptr ~index:1 Ty.F64 in
  let trunc = Builder.add f b.Func.bid (Instr.Cast (Instr.Fptosi, v)) Ty.I64 in
  ignore (Builder.set_term f b.Func.bid (Instr.Ret (Some (Instr.Reg trunc.Instr.id))));
  Verify.verify_module m;
  let r, _ = Interp.run m in
  checks "env round trip" "2" (Interp.v_to_string r)

let test_arch () =
  let a = Noelle.Arch.measure ~physical_cores:8 ~numa_nodes:2 () in
  checki "cores" 8 (Noelle.Arch.num_cores a);
  checki "self latency zero" 0 (Noelle.Arch.latency_between a 3 3);
  checkb "cross-numa costs more"
    (Noelle.Arch.latency_between a 0 7 > Noelle.Arch.latency_between a 0 1);
  let meta = Meta.create () in
  Noelle.Arch.to_meta a meta;
  match Noelle.Arch.of_meta meta with
  | Some a2 ->
    checki "meta round-trip cores" 8 a2.Noelle.Arch.physical_cores;
    checki "meta round-trip latency"
      (Noelle.Arch.latency_between a 0 7)
      (Noelle.Arch.latency_between a2 0 7)
  | None -> Alcotest.fail "arch meta reload"

let test_profiler_counts () =
  let m =
    compile
      {|
int work(int x) { return x * 2; }
int main() {
  int s = 0;
  for (int i = 0; i < 7; i++) { s += work(i); }
  print(s);
  return 0;
}
|}
  in
  let p, out = Noelle.Profiler.run m in
  checks "prof run output" "42" (String.trim out);
  Noelle.Profiler.embed p m;
  checkb "profile available" (Noelle.Profiler.available m);
  check (Alcotest.int64) "work invoked 7 times" 7L (Noelle.Profiler.fn_invocations m "work");
  let n = Noelle.create m in
  let lp = List.hd (Noelle.loops n (Irmod.func m "main")) in
  let ls = Noelle.Loop.structure lp in
  check (Alcotest.int64) "loop iterations = header execs" 8L
    (Noelle.Profiler.loop_iterations m ls);
  check (Alcotest.int64) "one invocation" 1L (Noelle.Profiler.loop_invocations m ls);
  checkb "loop is hot" (Noelle.Profiler.loop_hotness m ls > 0.5)

(* a self-latching inner loop with no preheader (the outer header enters
   it by a [cbr]), entered 3 times for 4 iterations each: its
   invocations are the entry edge's executions, not a latch difference *)
let test_loop_invocations_no_preheader () =
  let m =
    Parser.parse_module
      {|module "t"
define i64 @main() {
entry:
  %1 = br outer
outer:
  %2 = phi.i64 [entry: 0] [inner: %7]
  %3 = icmp.slt %2, 3
  %4 = cbr %3, inner, done
inner:
  %5 = phi.i64 [outer: 0] [inner: %6]
  %6 = add %5, 1
  %7 = add %2, 1
  %8 = icmp.slt %6, 4
  %9 = cbr %8, inner, outer
done:
  %10 = ret %2
}
|}
  in
  let p, _ = Noelle.Profiler.run m in
  Noelle.Profiler.embed p m;
  let f = Irmod.func m "main" in
  let inner =
    List.find
      (fun l -> (Func.block f l.Loopnest.header).Func.label = "inner")
      (Loopnest.compute f).Loopnest.loops
  in
  let ls = Noelle.Loopstructure.of_loop f inner in
  checkb "no preheader" (ls.Noelle.Loopstructure.preheader = None);
  check Alcotest.int64 "iterations" 12L (Noelle.Profiler.loop_iterations m ls);
  check Alcotest.int64 "invocations" 3L (Noelle.Profiler.loop_invocations m ls)

let test_branch_profile () =
  let m =
    compile
      {|
int main() {
  int taken = 0;
  for (int i = 0; i < 100; i++) {
    if (i % 4 == 0) taken++;
  }
  print(taken);
  return 0;
}
|}
  in
  let p, _ = Noelle.Profiler.run m in
  Noelle.Profiler.embed p m;
  let f = Irmod.func m "main" in
  (* find the if-branch (the one whose condition is an == compare) *)
  let br =
    Func.fold_insts
      (fun acc i ->
        match i.Instr.op with
        | Instr.Cbr (Instr.Reg c, _, _) -> (
          match (Func.inst f c).Instr.op with
          | Instr.Icmp (Instr.Eq, _, _) -> Some i
          | _ -> acc)
        | _ -> acc)
      None f
    |> Option.get
  in
  match br.Instr.op with
  | Instr.Cbr (_, t, _) ->
    let p = Noelle.Profiler.branch_probability m f br
        ~target_label:(Func.block f t).Func.label in
    checkb "if taken ~25%" (p > 0.2 && p < 0.3)
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* Demand-driven manager                                               *)
(* ------------------------------------------------------------------ *)

let test_usage_log () =
  let m = compile simple_loop_src in
  let n = Noelle.create m in
  Noelle.set_tool n "toolA";
  ignore (Noelle.pdg n (Irmod.func m "main"));
  Noelle.set_tool n "toolB";
  ignore (Noelle.loops n (Irmod.func m "main"));
  let pairs = Noelle.usage_pairs n in
  checkb "toolA requested PDG" (List.mem ("toolA", "PDG") pairs);
  checkb "toolB requested L" (List.mem ("toolB", "L") pairs);
  checkb "toolB did not request PDG directly... it did via loops"
    (List.mem ("toolB", "PDG") pairs)

let test_ivstepper () =
  preserves_output ~name:"ivs-identity"
    {| int main() { int s = 0; for (int i = 0; i < 12; i++) { s += i; } print(s); return 0; } |}
    (fun m ->
      (* rewriting the step to the same value must not change anything *)
      let f = Irmod.func m "main" in
      let n = Noelle.create m in
      let lp = List.hd (Noelle.loops n f) in
      let ivs = Noelle.induction_variables n lp in
      let iv = List.hd ivs in
      Noelle.Ivstepper.set_step f ~update_id:iv.Noelle.Indvars.update.Instr.id
        ~phi_id:iv.Noelle.Indvars.phi.Instr.id ~new_step:(Instr.Cint 1L))

let suite =
  [
    tc "depgraph generic" test_depgraph_generic;
    tc "depgraph slice" test_depgraph_slice;
    tc "depgraph: ids past the size, sparse ids" test_depgraph_dense_ids;
    tc "depgraph: negative id refused" test_depgraph_negative_id;
    tc "depgraph: filter keeps the edge count" test_depgraph_filter_count;
    tc "pdg register deps" test_pdg_register_deps;
    tc "pdg control deps" test_pdg_control_deps;
    tc "pdg precision gap (fig 3)" test_pdg_precision_gap;
    tc "pdg embed/reload" test_pdg_embed_reload;
    tc "live-ins/outs" test_live_ins_outs;
    tc "loop shapes" test_loop_shapes;
    tc "loop structure" test_loop_structure_fields;
    tc "ascc classification" test_ascc_classification;
    tc "ascc sequential" test_ascc_sequential;
    tc "sccdag topological" test_sccdag_topological;
    tc "indvars while shape (4.3)" test_indvars_while_shape;
    tc "indvars do-while" test_indvars_do_while;
    tc "trip counts" test_trip_count;
    tc "derived ivs" test_derived_ivs;
    tc "invariants chain (fig 4)" test_invariants_chain;
    tc "invariants superset property" test_invariants_superset_property;
    tc "reduction kinds" test_reduction_kinds;
    tc "reduction rejects leak" test_reduction_rejects_leak;
    tc "callgraph" test_callgraph;
    tc "islands" test_islands;
    tc "dfe liveness" test_liveness;
    tc "dfe liveness cross-block" test_liveness_across_blocks;
    tc "forest delete" test_forest_delete;
    tc "forest postorder" test_forest_postorder;
    tc "loopbuilder preheader" test_ensure_preheader;
    tc "loopbuilder rotate semantics" test_rotate_semantics;
    tc "loopbuilder rotate shape" test_rotate_changes_shape;
    tc "loopbuilder peel" test_peel_semantics;
    tc "loopbuilder hoist" test_hoist;
    tc "scheduler block" test_schedule_block_preserves;
    tc "scheduler keeps effect order" test_schedule_block_keeps_effect_order;
    tc "scheduler shrink header" test_shrink_header;
    tc "env" test_env;
    tc "arch" test_arch;
    tc "profiler counts" test_profiler_counts;
    tc "loop invocations without a preheader" test_loop_invocations_no_preheader;
    tc "branch profile" test_branch_profile;
    tc "usage log (table 4)" test_usage_log;
    tc "iv stepper" test_ivstepper;
  ]

(* ------------------------------------------------------------------ *)
(* Regressions for fuzzer-found bugs and later additions               *)
(* ------------------------------------------------------------------ *)

(* appended: see suite_extra at the bottom *)

let test_downcounting_doall () =
  (* regression: IVS once flipped the sign of subtractive steps *)
  let src =
    {|
int a[100];
int main() {
  for (int i = 0; i < 100; i++) a[i] = 0;
  for (int i = 98; i > 3; i -= 3) { a[i] = i * 2; }
  int s = 0;
  for (int i = 0; i < 100; i++) s += a[i];
  print(s);
  return 0;
}
|}
  in
  let m = compile src in
  let expected = output m in
  let n = Noelle.create m in
  let oks =
    List.filter (fun (_, r) -> Result.is_ok r)
      (Ntools.Doall.run n m ~ncores:4 ~min_hotness:0.0 ~min_work:0.0 ())
  in
  checkb "down-counting loop parallelized" (List.length oks >= 2);
  let got, _ = run_parallel m in
  checks "down-counting result" expected got

let test_self_dependence_rejected () =
  (* regression: a store with an unanalyzable address conflicts with its
     own instances across iterations *)
  with_loop
    {|
int a[64];
int main() {
  for (int i = 0; i < 64; i++) a[i] = i;
  for (int i = 40; i > 0; i -= 2) {
    a[(i >> 3) & 63] = i;
  }
  print(a[0] + a[1] + a[5]);
  return 0;
}
|}
    (fun m n main lp ->
      ignore (m, main, lp);
      (* the shifted-index loop must be rejected by DOALL *)
      let results = Ntools.Doall.run n m ~ncores:4 ~min_hotness:0.0 ~min_work:0.0 () in
      let shifted_rejected =
        List.exists
          (fun (id, r) -> Result.is_error r && id <> "main.for.header")
          results
      in
      checkb "self-conflicting store rejected" shifted_rejected)

let test_phi_chain_rejected () =
  (* regression: cross-SCC loop-carried phi chains (h1 = h0) *)
  let src =
    {|
int a[100];
int main() {
  for (int i = 0; i < 100; i++) a[i] = i * 3;
  int prev = 0;
  int prev2 = 0;
  int s = 0;
  for (int i = 0; i < 100; i++) {
    s += prev2;
    prev2 = prev;
    prev = a[i];
  }
  print(s);
  return 0;
}
|}
  in
  let m = compile src in
  let expected = output m in
  let n = Noelle.create m in
  let results = Ntools.Doall.run n m ~ncores:4 ~min_hotness:0.0 ~min_work:0.0 () in
  checkb "phi-chain loop rejected"
    (List.exists
       (fun (_, r) ->
         match r with
         | Error e ->
           String.length e > 10 && String.sub e 0 4 <> "no g"
           && (let has_sub s sub =
                 let n = String.length sub in
                 let rec go i = i + n <= String.length s
                   && (String.sub s i n = sub || go (i + 1)) in
                 go 0
               in
               has_sub e "cross SCCs")
         | Ok _ -> false)
       results);
  let got, _ = run_parallel m in
  checks "phi-chain program intact" expected got

let test_available_expressions () =
  let m =
    compile
      {|
int main() {
  int a = clock();
  int b = a * 7;     // computed in entry
  if (a > 0) { print(b + 1); } else { print(b + 2); }
  int c = a * 7;     // same expression: available in the merge block
  print(c);
  return 0;
}
|}
  in
  let f = Irmod.func m "main" in
  let avail = Noelle.Dfe.available_expressions f in
  (* find the two a*7 multiplies *)
  let muls =
    Func.fold_insts
      (fun acc i ->
        match i.Instr.op with
        | Instr.Bin (Instr.Mul, _, Instr.Cint 7L) -> i :: acc
        | _ -> acc)
      [] f
  in
  match muls with
  | [ second; first ] ->
    checkb "same expression" (Noelle.Dfe.same_expression first second);
    let in_second = Hashtbl.find avail.Noelle.Dfe.in_ second.Instr.parent in
    checkb "first mul available at the second"
      (Noelle.Dfe.IntSet.mem first.Instr.id in_second)
  | _ -> Alcotest.fail "expected two multiplies"

let test_build_counted_loop () =
  (* LB can create loops: synthesize sum(0..9) from scratch *)
  let m = Irmod.create () in
  let f = Func.create ~name:"main" ~params:[] ~ret:Ty.I64 in
  Irmod.add_func m f;
  let g = { Irmod.gname = "acc"; size = 1; init = Some [| Instr.Cint 0L |] } in
  Irmod.add_global m g;
  let entry = Builder.add_block f ~label:"entry" in
  let exit, body, iv =
    Noelle.Loopbuilder.build_counted_loop f ~after:entry.Func.bid
      ~start:(Instr.Cint 0L) ~bound:(Instr.Cint 10L) ~step:1L
      ~fill:(fun ~body ~iv ->
        let cur = Builder.add f body.Func.bid (Instr.Load (Instr.Glob "acc")) Ty.I64 in
        let add =
          Builder.add f body.Func.bid
            (Instr.Bin (Instr.Add, Instr.Reg cur.Instr.id, iv))
            Ty.I64
        in
        ignore
          (Builder.add f body.Func.bid
             (Instr.Store (Instr.Reg add.Instr.id, Instr.Glob "acc"))
             Ty.Void))
  in
  ignore (body, iv);
  let final = Builder.add f exit.Func.bid (Instr.Load (Instr.Glob "acc")) Ty.I64 in
  ignore (Builder.set_term f exit.Func.bid (Instr.Ret (Some (Instr.Reg final.Instr.id))));
  Verify.verify_module m;
  let r, _ = Interp.run m in
  checks "synthesized loop sums 0..9" "45" (Interp.v_to_string r);
  (* and the created loop is recognized by the abstractions *)
  let n = Noelle.create m in
  let lp = List.hd (Noelle.loops n f) in
  checkb "created loop has a governing IV"
    (Noelle.Indvars.governing_iv (Noelle.induction_variables n lp) <> None)

let suite_extra =
  [
    tc "regression: down-counting DOALL" test_downcounting_doall;
    tc "regression: self dependences" test_self_dependence_rejected;
    tc "regression: phi chains" test_phi_chain_rejected;
    tc "dfe available expressions" test_available_expressions;
    tc "loopbuilder creates loops" test_build_counted_loop;
  ]
