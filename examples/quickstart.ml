(** Quickstart: compile a program, ask NOELLE for abstractions, run a
    custom tool, execute.

    Run with: [dune exec examples/quickstart.exe] *)

let source =
  {|
int data[1000];
int scale_of(int x) { return (x % 5) + 2; }
int main() {
  int n = 1000;
  int scale = scale_of(n);
  int sum = 0;
  for (int i = 0; i < n; i++) {
    int k = scale * scale + 7;   // loop invariant: LICM will hoist it
    data[i] = i * k;
    sum += data[i];
  }
  print(sum);
  return 0;
}
|}

let () =
  (* 1. compile Mini-C to verified SSA IR *)
  let m = Minic.Lower.compile ~name:"quickstart" source in
  Printf.printf "compiled: %d instructions\n" (Ir.Irmod.total_insts m);

  (* 2. create the demand-driven NOELLE layer and request abstractions *)
  let n = Noelle.create m in
  Noelle.set_tool n "quickstart";
  let main = Ir.Irmod.func m "main" in
  let pdg = Noelle.pdg n main in
  Printf.printf "PDG: %d nodes, %d edges (%.0f%% of potential memory deps disproved)\n"
    (Noelle.Depgraph.num_nodes pdg.Noelle.Pdg.fdg)
    (Noelle.Depgraph.num_edges pdg.Noelle.Pdg.fdg)
    (100.0 *. Noelle.Pdg.disproval_rate pdg);

  List.iter
    (fun lp ->
      let ls = Noelle.Loop.structure lp in
      let ascc = Noelle.aSCCDAG n lp in
      Printf.printf "loop %s: %d blocks, %d SCCs (%d IVs, %d reductions), %d invariants\n"
        (Noelle.Loop.id lp)
        (List.length ls.Noelle.Loopstructure.blocks)
        (List.length ascc.Noelle.Ascc.nodes)
        (List.length ascc.Noelle.Ascc.ivs)
        (List.length ascc.Noelle.Ascc.reductions)
        (Noelle.Invariants.count (Noelle.invariants n lp)))
    (Noelle.loops n main);

  (* 3. run a custom tool built on those abstractions *)
  let licm = Ntools.Licm.run n m in
  Printf.printf "LICM hoisted %d invariant instructions\n" licm.Ntools.Licm.hoisted;
  Ir.Verify.verify_module m;

  (* 4. execute the transformed program *)
  let run = Ir.Interp.start ~configure:ignore m in
  Printf.printf "program output: %s" (Ir.Interp.output run)
