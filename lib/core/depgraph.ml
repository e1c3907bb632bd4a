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
  must : bool;                 (** proved to hold vs may *)
  loop_carried : bool;
      (** meaningful in loop graphs; immutable, so a loop graph can hold
          the function graph's own record for every edge whose flags the
          loop refinement leaves unchanged *)
}

(** Dense storage indexed by node id.  Node ids are instruction ids, which
    are dense below [Func.next_id], so the owner sizes the arrays once at
    {!create}; an id past the end grows them.  [state] holds one byte per
    id: {!absent}, {!internal_node} or {!external_node}. *)
type t = {
  mutable nodes : int list;            (** newest first *)
  mutable state : Bytes.t;
  mutable succ : edge list array;      (** node -> out-edges, newest first *)
  mutable pred : edge list array;      (** node -> in-edges, newest first *)
  mutable nedges : int;
}

let absent = '\000'
let internal_node = '\001'
let external_node = '\002'

(** An empty graph with room for node ids below [size]. *)
let create ?(size = 64) () =
  {
    nodes = [];
    state = Bytes.make size absent;
    succ = Array.make size [];
    pred = Array.make size [];
    nedges = 0;
  }

(** Every node id of [g] is below [bound g]. *)
let bound (g : t) = Bytes.length g.state

(* make [n] a valid index of the arrays *)
let reserve (g : t) n =
  if n < 0 then invalid_arg (Printf.sprintf "Depgraph: negative node id %d" n);
  let len = bound g in
  if n >= len then begin
    let len' = max (n + 1) (2 * len) in
    let state = Bytes.make len' absent in
    Bytes.blit g.state 0 state 0 len;
    g.state <- state;
    let grow a = Array.append a (Array.make (len' - len) []) in
    g.succ <- grow g.succ;
    g.pred <- grow g.pred
  end

let node_state (g : t) n = if n >= 0 && n < bound g then Bytes.unsafe_get g.state n else absent

let add_node (g : t) ?(internal = true) n =
  reserve g n;
  if Bytes.get g.state n = absent then begin
    g.nodes <- n :: g.nodes;
    Bytes.set g.state n (if internal then internal_node else external_node)
  end

let mem (g : t) n = node_state g n <> absent
let is_internal (g : t) n = node_state g n = internal_node

(** Add the record [e] itself (adding its endpoints as internal nodes if
    they are new); graphs may share records since they are immutable. *)
let add (g : t) (e : edge) =
  add_node g e.esrc;
  add_node g e.edst;
  g.succ.(e.esrc) <- e :: g.succ.(e.esrc);
  g.pred.(e.edst) <- e :: g.pred.(e.edst);
  g.nedges <- g.nedges + 1

let add_edge (g : t) ?(must = false) ?(loop_carried = false) ~kind esrc edst =
  let e = { esrc; edst; kind; must; loop_carried } in
  add g e;
  e

let succs (g : t) n = if n >= 0 && n < bound g then g.succ.(n) else []
let preds (g : t) n = if n >= 0 && n < bound g then g.pred.(n) else []

(** Apply [f] to every edge, in the order of {!edges}. *)
let iter_edges (g : t) f =
  (* a successor list is newest first: visit its tail before its head *)
  let rec oldest_first = function
    | [] -> ()
    | e :: rest ->
      oldest_first rest;
      f e
  in
  List.iter (fun n -> oldest_first g.succ.(n)) (List.rev g.nodes)

(** All edges, in an unspecified but deterministic order. *)
let edges (g : t) =
  List.concat_map (fun n -> List.rev g.succ.(n)) (List.rev g.nodes)

let internal_nodes (g : t) = List.rev (List.filter (is_internal g) g.nodes)
let external_nodes (g : t) =
  List.rev (List.filter (fun n -> not (is_internal g n)) g.nodes)

let num_nodes (g : t) = List.length g.nodes
let num_edges (g : t) = g.nedges

(** Remove every edge that fails [keep_edge] (used by speculative
    refinement to drop dependences a profile says never occur).
    [keep_edge] is asked once for each edge's successor-list entry and
    once for its predecessor-list entry. *)
let filter_edges (g : t) ~keep_edge =
  let nedges = ref 0 in
  List.iter
    (fun n ->
      let es = List.filter keep_edge g.succ.(n) in
      nedges := !nedges + List.length es;
      g.succ.(n) <- es)
    g.nodes;
  g.nedges <- !nedges;
  List.iter (fun n -> g.pred.(n) <- List.filter keep_edge g.pred.(n)) g.nodes

(** Strongly connected components (Tarjan), internal nodes only, in
    reverse topological order (callees of the DAG first), and an array
    mapping each node id below {!bound} to the position of its component
    in that list ([-1] for an external or absent node). *)
let scc_index (g : t) =
  let n = bound g in
  (* one array serves the search and then the result: [-1] unvisited, an
     index below [n] while on the stack, [n + k] once in component [k] —
     never below an index, so a finished node lowers no lowlink *)
  let num = Array.make n (-1) in
  let stack = ref [] and counter = ref 0 and finished = ref 0 and out = ref [] in
  let rec visit v =
    num.(v) <- !counter;
    let low = ref !counter in
    incr counter;
    stack := v :: !stack;
    List.iter
      (fun e ->
        let w = e.edst in
        if is_internal g w then
          low := min !low (if num.(w) < 0 then visit w else num.(w)))
      g.succ.(v);
    if !low = num.(v) then begin
      let comp = ref [] in
      let rec pop () =
        match !stack with
        | w :: rest ->
          stack := rest;
          num.(w) <- n + !finished;
          comp := w :: !comp;
          if w <> v then pop ()
        | [] -> ()
      in
      pop ();
      incr finished;
      out := !comp :: !out
    end;
    !low
  in
  List.iter (fun v -> if is_internal g v && num.(v) < 0 then ignore (visit v)) (List.rev g.nodes);
  Array.iteri (fun i x -> if x >= n then num.(i) <- x - n) num;
  (List.rev !out, num)

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
