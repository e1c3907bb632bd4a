(** Differential oracle for loop dependence graphs.

    The {!Noelle.Pdg.loop_dg} that recomputed the loop nest, sliced every
    edge of the function graph with {!slice} and then
    refined the slice edge by edge, kept as a test oracle.  Edge records
    are immutable, so the refinement replaces each one with a copy that
    carries its loop-carried flag.  The library builds the same graph in one pass over the loop's
    edges; a test compares the two node for node and edge for edge, in
    order, with the same flags.  Both apply the one refinement rule,
    {!Noelle.Pdg.refinement}. *)

open Ir
open Noelle

(** Restrict [g] to the nodes satisfying [keep]; nodes not kept but
    adjacent to kept nodes become external (the live-in/live-out sets of
    the region).  The slice holds [g]'s own edge records. *)
let slice (g : Depgraph.t) ~keep =
  let out = Depgraph.create ~size:(Depgraph.bound g) () in
  List.iter (fun n -> if keep n then Depgraph.add_node out ~internal:true n) g.Depgraph.nodes;
  List.iter
    (fun n ->
      if keep n then
        List.iter
          (fun (e : Depgraph.edge) ->
            if not (keep e.Depgraph.edst) then
              Depgraph.add_node out ~internal:false e.Depgraph.edst;
            Depgraph.add out e)
          (Depgraph.succs g n)
      else
        List.iter
          (fun (e : Depgraph.edge) ->
            if keep e.Depgraph.edst then begin
              Depgraph.add_node out ~internal:false n;
              Depgraph.add out e
            end)
          (Depgraph.succs g n))
    g.Depgraph.nodes;
  out

(** Replace every edge [e] by [f e], dropping it when that is [None].
    [f] is asked once for each edge's successor-list entry and once for
    its predecessor-list entry. *)
let filter_map_edges (g : Depgraph.t) ~f =
  let nedges = ref 0 in
  List.iter
    (fun n ->
      let es = List.filter_map f g.Depgraph.succ.(n) in
      nedges := !nedges + List.length es;
      g.Depgraph.succ.(n) <- es)
    g.Depgraph.nodes;
  g.Depgraph.nedges <- !nedges;
  List.iter (fun n -> g.Depgraph.pred.(n) <- List.filter_map f g.Depgraph.pred.(n)) g.Depgraph.nodes

(** Build the dependence graph of loop [l]: slice the function graph,
    then refine the slice edge by edge with the library's rule
    ({!Noelle.Pdg.refinement}), so what this checks is the slicing, the
    order and the sharing of the one-pass build. *)
let loop_dg (t : Pdg.t) (l : Loopnest.loop) : Pdg.loop_dg =
  let f = t.Pdg.f in
  let in_loop id =
    match Func.inst_opt f id with
    | Some i -> Loopnest.contains l i.Instr.parent
    | None -> false
  in
  let g = slice t.Pdg.fdg ~keep:in_loop in
  let refine = Pdg.refinement f (Loopnest.compute f) l ~in_loop:(Depgraph.is_internal g) in
  filter_map_edges g ~f:(fun e ->
      Option.map (fun loop_carried -> { e with Depgraph.loop_carried }) (refine e));
  { Pdg.ldg = g; loop = l; pdg = t }
