(** Forest of trees (FR, §2.2).

    A generic forest with the capability the paper calls out: when a node
    is deleted, its children are re-attached to its parent, preserving the
    connections between the deleted node's parent and children.  NOELLE
    uses it for the loop nesting forest (LICM walks it innermost-out;
    HELIX/DSWP/DOALL use it to pick profitable loops) and for call-graph
    derived trees. *)

type 'a node = {
  value : 'a;
  mutable parent : 'a node option;
  mutable children : 'a node list;
  mutable deleted : bool;
}

type 'a t = { mutable roots : 'a node list }

let create () = { roots = [] }

let add_root (t : 'a t) v =
  let n = { value = v; parent = None; children = []; deleted = false } in
  t.roots <- t.roots @ [ n ];
  n

let add_child (parent : 'a node) v =
  let n = { value = v; parent = Some parent; children = []; deleted = false } in
  parent.children <- parent.children @ [ n ];
  n

(** Delete [n], re-attaching its children to its parent (or promoting them
    to roots). *)
let delete (t : 'a t) (n : 'a node) =
  if not n.deleted then begin
    n.deleted <- true;
    List.iter (fun c -> c.parent <- n.parent) n.children;
    (match n.parent with
    | Some p ->
      p.children <-
        List.concat_map (fun c -> if c == n then n.children else [ c ]) p.children
    | None ->
      t.roots <-
        List.concat_map (fun c -> if c == n then n.children else [ c ]) t.roots);
    n.children <- []
  end

(** Preorder traversal (roots first, then children depth-first). *)
let iter_preorder fn (t : 'a t) =
  let rec go n =
    fn n;
    List.iter go n.children
  in
  List.iter go t.roots

(** Postorder traversal: children before parents — the innermost-first
    order LICM hoists in. *)
let iter_postorder fn (t : 'a t) =
  let rec go n =
    List.iter go n.children;
    fn n
  in
  List.iter go t.roots

let nodes_postorder (t : 'a t) =
  let acc = ref [] in
  iter_postorder (fun n -> acc := n :: !acc) t;
  List.rev !acc

let size (t : 'a t) =
  let n = ref 0 in
  iter_preorder (fun _ -> incr n) t;
  !n

(** Build the loop nesting forest of a function from {!Ir.Loopnest}. *)
let of_loopnest (nest : Ir.Loopnest.t) : Ir.Loopnest.loop t =
  let t = create () in
  let node_of : (int, Ir.Loopnest.loop node) Hashtbl.t = Hashtbl.create 8 in
  let rec ensure (l : Ir.Loopnest.loop) =
    match Hashtbl.find_opt node_of l.Ir.Loopnest.header with
    | Some n -> n
    | None ->
      let n =
        match l.Ir.Loopnest.parent with
        | None -> add_root t l
        | Some p -> add_child (ensure p) l
      in
      Hashtbl.replace node_of l.Ir.Loopnest.header n;
      n
  in
  List.iter (fun l -> ignore (ensure l)) nest.Ir.Loopnest.loops;
  t
