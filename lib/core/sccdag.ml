(** SCCDAG of a loop dependence graph.

    The strongly-connected components of the loop's dependence graph,
    arranged as a DAG.  This is the raw structure underneath the augmented
    SCCDAG ({!Ascc}), which attaches Independent/Sequential/Reducible
    attributes to each component. *)

type scc = {
  sid : int;
  members : int list;             (** instruction ids, in discovery order *)
  mutable carried_internal : bool;
      (** some loop-carried dependence connects two members *)
}

type t = {
  sccs : scc list;                (** reverse-topological order *)
  node_scc : int array;
      (** instruction id -> scc id, [-1] for an id outside every SCC;
          indexed like the loop graph's nodes *)
  dag_succ : (int, int list) Hashtbl.t;  (** scc id -> successor scc ids *)
  ldg : Pdg.loop_dg;
}

let build (ldg : Pdg.loop_dg) : t =
  let g = ldg.Pdg.ldg in
  let comps, node_scc = Depgraph.scc_index g in
  let sccs = List.mapi (fun sid members -> { sid; members; carried_internal = false }) comps in
  let by_id = Array.of_list sccs in
  let dag_succ = Hashtbl.create 16 in
  List.iter (fun s -> Hashtbl.replace dag_succ s.sid []) sccs;
  Depgraph.iter_edges g (fun (e : Depgraph.edge) ->
      let a = node_scc.(e.Depgraph.esrc) and b = node_scc.(e.Depgraph.edst) in
      if a < 0 || b < 0 then ()
      else if a = b then begin
        if e.Depgraph.loop_carried then by_id.(a).carried_internal <- true
      end
      else
        let cur = Hashtbl.find dag_succ a in
        if not (List.mem b cur) then Hashtbl.replace dag_succ a (b :: cur));
  { sccs; node_scc; dag_succ; ldg }

let scc_of_inst (t : t) id =
  if id < 0 || id >= Array.length t.node_scc || t.node_scc.(id) < 0 then None
  else Some t.node_scc.(id)

let scc_by_id (t : t) sid = List.find (fun s -> s.sid = sid) t.sccs

let successors (t : t) sid = try Hashtbl.find t.dag_succ sid with Not_found -> []

(** SCCs in topological order (producers before consumers). *)
let topological (t : t) =
  (* Depgraph.scc_index returns reverse-topological order; reverse it *)
  List.rev t.sccs

(** Does this SCC carry a dependence across iterations (either a
    loop-carried edge between members, or a loop-carried self edge)? *)
let is_carried (s : scc) = s.carried_internal

(** Total number of member instructions. *)
let size (s : scc) = List.length s.members
