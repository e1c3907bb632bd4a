(** The templated dependence graph (§2.2 "PDG").

    NOELLE's dependence graph is a generic directed graph of dependences
    between nodes; what a node is gets decided at instantiation time (the
    PDG instantiates it with instructions; the call graph could instantiate
    it with functions).  Nodes are integers here and payloads live with the
    client, which is what OCaml gives us in place of C++ templates.

    Each node is {e internal} (belongs to the code region the graph was
    built for) or {e external} (represents a live-in/live-out of that
    region); each edge records whether it is a control or data dependence,
    the data-dependence sort (RAW/WAW/WAR), whether it is a register or a
    memory dependence, whether it is must or may (apparent vs actual), and
    whether it is loop-carried. *)

type sort = RAW | WAW | WAR

type kind =
  | Control
  | Register of sort          (** SSA def-use; always RAW in practice *)
  | Memory of sort

type edge = {
  esrc : int;
  edst : int;
  kind : kind;
  must : bool;                         (** proved to hold vs may *)
  mutable loop_carried : bool;         (** meaningful in loop graphs *)
}

type t = {
  mutable nodes : int list;
  internal : (int, bool) Hashtbl.t;    (** node -> is internal *)
  succ : (int, edge list) Hashtbl.t;
  pred : (int, edge list) Hashtbl.t;
  mutable nedges : int;
}

let create () =
  {
    nodes = [];
    internal = Hashtbl.create 64;
    succ = Hashtbl.create 64;
    pred = Hashtbl.create 64;
    nedges = 0;
  }

let add_node (g : t) ?(internal = true) n =
  if not (Hashtbl.mem g.internal n) then begin
    g.nodes <- n :: g.nodes;
    Hashtbl.replace g.internal n internal
  end

let mem (g : t) n = Hashtbl.mem g.internal n
let is_internal (g : t) n = try Hashtbl.find g.internal n with Not_found -> false

let add_edge (g : t) ?(must = false) ?(loop_carried = false) ~kind esrc edst =
  add_node g esrc;
  add_node g edst;
  let e = { esrc; edst; kind; must; loop_carried } in
  Hashtbl.replace g.succ esrc (e :: (try Hashtbl.find g.succ esrc with Not_found -> []));
  Hashtbl.replace g.pred edst (e :: (try Hashtbl.find g.pred edst with Not_found -> []));
  g.nedges <- g.nedges + 1;
  e

let succs (g : t) n = try Hashtbl.find g.succ n with Not_found -> []
let preds (g : t) n = try Hashtbl.find g.pred n with Not_found -> []

(** All edges, in an unspecified but deterministic order. *)
let edges (g : t) =
  List.concat_map (fun n -> List.rev (succs g n)) (List.rev g.nodes)

let internal_nodes (g : t) = List.rev (List.filter (is_internal g) g.nodes)
let external_nodes (g : t) =
  List.rev (List.filter (fun n -> not (is_internal g n)) g.nodes)

let num_nodes (g : t) = List.length g.nodes
let num_edges (g : t) = g.nedges

(** Dependences into internal node [n] from internal nodes only. *)
let internal_preds (g : t) n =
  List.filter (fun e -> is_internal g e.esrc) (preds g n)

(** Restrict [g] to the nodes satisfying [keep]; nodes not kept but adjacent
    to kept nodes become external (the live-in/live-out sets of the region,
    computed exactly as the paper describes for loop and function dependence
    graphs). *)
let slice (g : t) ~keep =
  let out = create () in
  List.iter (fun n -> if keep n then add_node out ~internal:true n) g.nodes;
  List.iter
    (fun n ->
      if keep n then
        List.iter
          (fun e ->
            if keep e.edst then
              ignore
                (add_edge out ~must:e.must ~loop_carried:e.loop_carried
                   ~kind:e.kind e.esrc e.edst)
            else begin
              add_node out ~internal:false e.edst;
              ignore
                (add_edge out ~must:e.must ~loop_carried:e.loop_carried
                   ~kind:e.kind e.esrc e.edst)
            end)
          (succs g n)
      else
        List.iter
          (fun e ->
            if keep e.edst then begin
              add_node out ~internal:false n;
              ignore
                (add_edge out ~must:e.must ~loop_carried:e.loop_carried
                   ~kind:e.kind n e.edst)
            end)
          (succs g n))
    g.nodes;
  out

(** Remove every edge that fails [keep_edge] (used by speculative
    refinement to drop dependences a profile says never occur).
    [keep_edge] is asked once for each edge's successor-list entry and
    once for its predecessor-list entry. *)
let filter_edges (g : t) ~keep_edge =
  let filter tbl = Hashtbl.filter_map_inplace (fun _ es -> Some (List.filter keep_edge es)) tbl in
  filter g.succ;
  g.nedges <- Hashtbl.fold (fun _ es n -> n + List.length es) g.succ 0;
  filter g.pred

(** Strongly connected components (Tarjan), internal nodes only.
    Returned in reverse topological order (callees of the DAG first). *)
let sccs (g : t) =
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
      (fun e ->
        let w = e.edst in
        if is_internal g w then begin
          if not (Hashtbl.mem index w) then begin
            strongconnect w;
            Hashtbl.replace lowlink v
              (min (Hashtbl.find lowlink v) (Hashtbl.find lowlink w))
          end
          else if Hashtbl.mem on_stack w then
            Hashtbl.replace lowlink v
              (min (Hashtbl.find lowlink v) (Hashtbl.find index w))
        end)
      (succs g v);
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
    (fun v -> if is_internal g v && not (Hashtbl.mem index v) then strongconnect v)
    (List.rev g.nodes);
  List.rev !out

(** Does the graph contain a cycle among internal nodes passing through
    [n]?  (Self edges count.) *)
let in_cycle (g : t) n =
  List.exists (fun e -> e.edst = n) (succs g n)
  || List.exists (fun comp -> List.length comp > 1 && List.mem n comp) (sccs g)

let kind_to_string = function
  | Control -> "ctrl"
  | Register RAW -> "reg-raw"
  | Register WAW -> "reg-waw"
  | Register WAR -> "reg-war"
  | Memory RAW -> "mem-raw"
  | Memory WAW -> "mem-waw"
  | Memory WAR -> "mem-war"

let kind_of_string = function
  | "ctrl" -> Some Control
  | "reg-raw" -> Some (Register RAW)
  | "reg-waw" -> Some (Register WAW)
  | "reg-war" -> Some (Register WAR)
  | "mem-raw" -> Some (Memory RAW)
  | "mem-waw" -> Some (Memory WAW)
  | "mem-war" -> Some (Memory WAR)
  | _ -> None
