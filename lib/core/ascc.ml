(** The augmented SCCDAG (aSCCDAG, §2.2).

    Attaches an attribute to each SCC of the loop dependence graph:

    - {e Independent}: all dynamic instances of the SCC's instructions in a
      loop invocation are independent of each other;
    - {e Sequential}: an instance depends on another instance (a genuine
      loop-carried recurrence);
    - {e Reducible}: instances depend on each other but only through an
      associative-commutative accumulation ({!Reduction});
    - {e Induction}: the recurrence is an induction variable
      ({!Indvars}), which parallelizing transformations rewrite in closed
      form rather than execute serially. *)

type attr =
  | Independent
  | Sequential
  | Reducible of Reduction.t
  | Induction of Indvars.t

type node = {
  scc : Sccdag.scc;
  attr : attr;
}

type t = {
  nodes : node list;           (** reverse-topological order, as {!Sccdag} *)
  dag : Sccdag.t;
  ivs : Indvars.t list;
  reductions : Reduction.t list;
  ls : Loopstructure.t;
  cross_carried : Depgraph.edge list;
      (** loop-carried dependences between {e different} SCCs (e.g. a phi
          chain [h1 = h0]): invisible to per-SCC attributes, fatal for
          iteration-distributing parallelization, harmless for DSWP *)
}

(** Classify every SCC of the loop. *)
let build (ls : Loopstructure.t) (dag : Sccdag.t) : t =
  let ivs = Indvars.analyze ls dag in
  let reductions = Reduction.find ls in
  let member_of ids (s : Sccdag.scc) =
    List.exists (fun id -> List.mem id s.Sccdag.members) ids
  in
  let nodes =
    List.map
      (fun (s : Sccdag.scc) ->
        let attr =
          match
            List.find_opt (fun iv -> member_of [ iv.Indvars.phi.Ir.Instr.id ] s) ivs
          with
          | Some iv -> Induction iv
          | None -> (
            match
              List.find_opt
                (fun r -> member_of [ r.Reduction.phi.Ir.Instr.id ] s)
                reductions
            with
            | Some r -> Reducible r
            | None -> if Sccdag.is_carried s then Sequential else Independent)
        in
        { scc = s; attr })
      dag.Sccdag.sccs
  in
  let cross_carried = ref [] in
  Depgraph.iter_edges dag.Sccdag.ldg.Pdg.ldg (fun (e : Depgraph.edge) ->
      if e.Depgraph.loop_carried then
        match
          ( Sccdag.scc_of_inst dag e.Depgraph.esrc,
            Sccdag.scc_of_inst dag e.Depgraph.edst )
        with
        | Some a, Some b when a <> b -> cross_carried := e :: !cross_carried
        | _ -> ());
  let cross_carried = List.rev !cross_carried in
  { nodes; dag; ivs; reductions; ls; cross_carried }

let has_cross_carried (t : t) = t.cross_carried <> []

let sequential_nodes (t : t) =
  List.filter (fun n -> n.attr = Sequential) t.nodes

let has_sequential (t : t) = sequential_nodes t <> []
