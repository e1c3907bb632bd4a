(** Differential oracle for SCCDAGs.

    Tarjan's algorithm and {!Noelle.Sccdag.build} as they were over
    hash tables keyed by node id, before {!Noelle.Depgraph} moved to dense
    id-indexed arrays, kept as a test oracle.  A test compares the two on
    every loop graph of the corpus and the generated modules. *)

open Noelle

(** Strongly connected components (Tarjan), internal nodes only, in
    reverse topological order. *)
let sccs (g : Depgraph.t) =
  let index = Hashtbl.create 64 in
  let lowlink = Hashtbl.create 64 in
  let on_stack = Hashtbl.create 64 in
  let stack = ref [] in
  let counter = ref 0 in
  let out = ref [] in
  let rec strongconnect v =
    Hashtbl.replace index v !counter;
    Hashtbl.replace lowlink v !counter;
    incr counter;
    stack := v :: !stack;
    Hashtbl.replace on_stack v ();
    List.iter
      (fun (e : Depgraph.edge) ->
        let w = e.Depgraph.edst in
        if Depgraph.is_internal g w then begin
          if not (Hashtbl.mem index w) then begin
            strongconnect w;
            Hashtbl.replace lowlink v
              (min (Hashtbl.find lowlink v) (Hashtbl.find lowlink w))
          end
          else if Hashtbl.mem on_stack w then
            Hashtbl.replace lowlink v
              (min (Hashtbl.find lowlink v) (Hashtbl.find index w))
        end)
      (Depgraph.succs g v);
    if Hashtbl.find lowlink v = Hashtbl.find index v then begin
      let comp = ref [] in
      let continue_ = ref true in
      while !continue_ do
        match !stack with
        | w :: rest ->
          stack := rest;
          Hashtbl.remove on_stack w;
          comp := w :: !comp;
          if w = v then continue_ := false
        | [] -> continue_ := false
      done;
      out := !comp :: !out
    end
  in
  List.iter
    (fun v ->
      if Depgraph.is_internal g v && not (Hashtbl.mem index v) then strongconnect v)
    (List.rev g.Depgraph.nodes);
  List.rev !out

type t = {
  members : int list list;                (** by scc id *)
  carried : bool list;                    (** by scc id *)
  node_scc : (int, int) Hashtbl.t;
  dag_succ : (int, int list) Hashtbl.t;
  cross_carried : Depgraph.edge list;
}

let build (ldg : Pdg.loop_dg) : t =
  let g = ldg.Pdg.ldg in
  let members = sccs g in
  let node_scc = Hashtbl.create 64 in
  List.iteri (fun sid ms -> List.iter (fun n -> Hashtbl.replace node_scc n sid) ms) members;
  let carried = Array.make (List.length members) false in
  let dag_succ = Hashtbl.create 16 in
  List.iteri (fun sid _ -> Hashtbl.replace dag_succ sid []) members;
  let edges = Depgraph.edges g in
  List.iter
    (fun (e : Depgraph.edge) ->
      match
        (Hashtbl.find_opt node_scc e.Depgraph.esrc, Hashtbl.find_opt node_scc e.Depgraph.edst)
      with
      | Some a, Some b when a = b -> if e.Depgraph.loop_carried then carried.(a) <- true
      | Some a, Some b ->
        let cur = Hashtbl.find dag_succ a in
        if not (List.mem b cur) then Hashtbl.replace dag_succ a (b :: cur)
      | _ -> ())
    edges;
  let cross_carried =
    List.filter
      (fun (e : Depgraph.edge) ->
        e.Depgraph.loop_carried
        &&
        match
          (Hashtbl.find_opt node_scc e.Depgraph.esrc, Hashtbl.find_opt node_scc e.Depgraph.edst)
        with
        | Some a, Some b -> a <> b
        | _ -> false)
      edges
  in
  { members; carried = Array.to_list carried; node_scc; dag_succ; cross_carried }
