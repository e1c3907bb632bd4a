(** Differential oracle for loop dependence graphs.

    The {!Noelle.Pdg.loop_dg} that recomputed the loop nest, sliced every
    edge of the function graph with {!Noelle.Depgraph.slice} and then
    refined the copy with {!Noelle.Depgraph.filter_edges}, kept as a test
    oracle.  The library builds the same graph in one pass over the loop's
    edges; a test compares the two node for node and edge for edge, in
    order, with the same flags. *)

open Ir
open Noelle

(** Build the dependence graph of loop [l], refining memory dependences
    with loop-centric analyses exactly when the graph is requested (the
    demand-driven refinement of §2.2). *)
let loop_dg (t : Pdg.t) (l : Loopnest.loop) : Pdg.loop_dg =
  let f = t.Pdg.f in
  let in_loop id =
    match Func.inst_opt f id with
    | Some i -> Loopnest.contains l i.Instr.parent
    | None -> false
  in
  let g = Depgraph.slice t.Pdg.fdg ~keep:in_loop in
  let iv_phi = Pdg.refinement_phi f l in
  (* inner-loop phis with bounded spans become extra address symbols, so
     the outer loops of nested kernels (c[i*N+j]) can be disambiguated *)
  let nest = Loopnest.compute f in
  let inner_syms =
    List.concat_map
      (fun (sl : Loopnest.loop) ->
        if sl.Loopnest.header <> l.Loopnest.header
           && Loopnest.contains l sl.Loopnest.header
        then
          List.filter_map
            (fun (i : Instr.inst) ->
              match i.Instr.op with
              | Instr.Phi _ ->
                Option.map (fun span -> (i.Instr.id, span)) (Scev.phi_span f nest i)
              | _ -> None)
            (Func.insts_of_block f sl.Loopnest.header)
        else [])
      nest.Loopnest.loops
  in
  let symbols =
    (match iv_phi with Some p -> [ p.Instr.id ] | None -> [])
    @ List.map fst inner_syms
  in
  (* classify / refine every edge *)
  let keep (e : Depgraph.edge) =
    match e.Depgraph.kind with
    | Depgraph.Control ->
      e.Depgraph.loop_carried <- false;
      true
    | Depgraph.Register _ ->
      (* a register dep is loop-carried iff it feeds a header phi from
         inside the loop (the back-edge value) *)
      let carried =
        Depgraph.is_internal g e.Depgraph.esrc
        &&
        match Func.inst_opt f e.Depgraph.edst with
        | Some { Instr.op = Instr.Phi _; parent; _ } -> parent = l.Loopnest.header
        | _ -> false
      in
      e.Depgraph.loop_carried <- carried;
      true
    | Depgraph.Memory _ -> (
      if not (Depgraph.is_internal g e.Depgraph.esrc && Depgraph.is_internal g e.Depgraph.edst)
      then begin
        e.Depgraph.loop_carried <- false;
        true
      end
      else
        let addr_of id =
          Option.bind (Func.inst_opt f id) Alias.pointer_operand
        in
        match (iv_phi, addr_of e.Depgraph.esrc, addr_of e.Depgraph.edst) with
        | Some phi, Some p1, Some p2 -> (
          let a1 = Scev.poly_of f l ~symbols p1 in
          let a2 = Scev.poly_of f l ~symbols p2 in
          match (a1, a2) with
          | Some a1, Some a2 -> (
            match
              Scev.classify_pair ~outer:phi.Instr.id ~spans:inner_syms a1 a2
            with
            | `No_dep -> false (* fully disproved: drop edge *)
            | `Intra ->
              e.Depgraph.loop_carried <- false;
              true
            | `Unknown ->
              e.Depgraph.loop_carried <- true;
              true)
          | _ ->
            e.Depgraph.loop_carried <- true;
            true)
        | _ ->
          e.Depgraph.loop_carried <- true;
          true)
  in
  Depgraph.filter_edges g ~keep_edge:keep;
  { Pdg.ldg = g; loop = l; pdg = t }
