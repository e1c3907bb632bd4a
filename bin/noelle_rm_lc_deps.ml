(** noelle-rm-lc-dependences — transform loops to remove as many
    loop-carried data dependences as possible (Table 2), making the IR
    more amenable to loop-centric parallelization.

    Implemented with LB + INV: hoisting invariant computation (including
    provably-stable loads) removes the false carried dependences they
    induce, and first-iteration peeling breaks dependences that only occur
    on iteration zero. *)

open Cmdliner

let carried_edges (n : Noelle.t) (m : Ir.Irmod.t) =
  List.fold_left
    (fun acc f ->
      List.fold_left
        (fun acc lp ->
          let ldg = Noelle.Loop.dep_graph lp in
          acc
          + List.length
              (List.filter
                 (fun (e : Noelle.Depgraph.edge) -> e.Noelle.Depgraph.loop_carried)
                 (Noelle.Depgraph.edges ldg.Noelle.Pdg.ldg)))
        acc (Noelle.loops n f))
    0
    (Ir.Irmod.defined_functions m)

let run input output peel =
  let m = Input_program.read ~tool:"noelle-rm-lc-dependences" input in
  let n = Noelle.create m in
  Noelle.set_tool n "noelle-rm-lc-dependences";
  let before = carried_edges n m in
  let licm = Ntools.Licm.run n m in
  if peel then
    List.iter
      (fun f ->
        List.iter
          (fun lp ->
            let ls = Noelle.Loop.structure lp in
            if Noelle.Loopstructure.shape ls = Noelle.Loopstructure.Do_while_shape
            then ignore (Noelle.Loopbuilder.peel_first f ls))
          (Noelle.loops n f);
        Noelle.invalidate n)
      (Ir.Irmod.defined_functions m);
  Ir.Verify.verify_module m;
  let after = carried_edges n m in
  let out = Input_program.write input output m in
  Printf.printf
    "noelle-rm-lc-dependences: %s -> %s (hoisted %d; carried deps %d -> %d)\n"
    input out licm.Ntools.Licm.hoisted before after;
  0

let peel = Arg.(value & flag & info [ "peel" ] ~doc:"also peel first iterations")

let cmd =
  Cmd.v
    (Cmd.info "noelle-rm-lc-dependences"
       ~doc:"Reduce loop-carried data dependences")
    Term.(const run $ Input_program.input $ Input_program.output $ peel)

let () = exit (Cmd.eval' cmd)
