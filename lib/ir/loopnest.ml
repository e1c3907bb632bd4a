(** Natural-loop detection and the raw loop nesting forest.

    This is the low-level substrate equivalent of LLVM's LoopInfo.  NOELLE's
    richer loop abstractions (loop structure LS, canonical loop L, forest FR)
    are built on top of this in [lib/core]. *)

module IntSet = Set.Make (Int)

type loop = {
  header : int;
  mutable blocks : IntSet.t;        (** all blocks of the loop, incl. header *)
  mutable latches : int list;       (** blocks with a back edge to the header *)
  mutable parent : loop option;
  mutable children : loop list;
  mutable depth : int;              (** 1 for outermost *)
}

type t = {
  loops : loop list;                (** all loops, outermost first *)
  block_loop : (int, loop) Hashtbl.t;  (** innermost loop containing a block *)
}

(** Detect natural loops of [f] using its dominator tree. *)
let compute (f : Func.t) : t =
  let dt = Dom.compute f in
  let preds = Func.preds f in
  let reach = Cfg.reachable f in
  let by_header : (int, loop) Hashtbl.t = Hashtbl.create 8 in
  (* find back edges: b -> h where h dominates b *)
  List.iter
    (fun b ->
      if Hashtbl.mem reach b then
        List.iter
          (fun h ->
            if Dom.dominates dt h b then begin
              let l =
                match Hashtbl.find_opt by_header h with
                | Some l -> l
                | None ->
                  let l =
                    { header = h; blocks = IntSet.singleton h; latches = [];
                      parent = None; children = []; depth = 1 }
                  in
                  Hashtbl.replace by_header h l;
                  l
              in
              l.latches <- l.latches @ [ b ];
              (* walk backwards from the latch to the header *)
              let stack = ref [ b ] in
              while !stack <> [] do
                let x = List.hd !stack in
                stack := List.tl !stack;
                if not (IntSet.mem x l.blocks) then begin
                  l.blocks <- IntSet.add x l.blocks;
                  List.iter
                    (fun p -> if Hashtbl.mem reach p then stack := p :: !stack)
                    (try Hashtbl.find preds x with Not_found -> [])
                end
              done
            end)
          (Func.successors f b))
    (Func.blocks f);
  let loops = Hashtbl.fold (fun _ l acc -> l :: acc) by_header [] in
  (* nesting: parent = smallest strictly-containing loop *)
  List.iter
    (fun l ->
      let candidates =
        List.filter
          (fun p ->
            p != l && IntSet.mem l.header p.blocks && IntSet.subset l.blocks p.blocks)
          loops
      in
      let parent =
        List.fold_left
          (fun best p ->
            match best with
            | None -> Some p
            | Some b ->
              if IntSet.cardinal p.blocks < IntSet.cardinal b.blocks then Some p
              else best)
          None candidates
      in
      l.parent <- parent;
      match parent with Some p -> p.children <- l :: p.children | None -> ())
    loops;
  let rec set_depth d l =
    l.depth <- d;
    List.iter (set_depth (d + 1)) l.children
  in
  List.iter (fun l -> if l.parent = None then set_depth 1 l) loops;
  (* innermost loop per block *)
  let block_loop = Hashtbl.create 16 in
  List.iter
    (fun l ->
      IntSet.iter
        (fun b ->
          match Hashtbl.find_opt block_loop b with
          | Some cur when cur.depth >= l.depth -> ()
          | _ -> Hashtbl.replace block_loop b l)
        l.blocks)
    loops;
  let ordered =
    List.sort
      (fun a b ->
        if a.depth <> b.depth then compare a.depth b.depth
        else compare a.header b.header)
      loops
  in
  { loops = ordered; block_loop }

(** Innermost loop containing block [b], if any. *)
let innermost (t : t) b = Hashtbl.find_opt t.block_loop b

let contains (l : loop) b = IntSet.mem b l.blocks

(** Exit edges: (from inside, to outside) pairs in deterministic order. *)
let exit_edges (f : Func.t) (l : loop) =
  IntSet.fold
    (fun b acc ->
      List.fold_left
        (fun acc s -> if IntSet.mem s l.blocks then acc else (b, s) :: acc)
        acc (Func.successors f b))
    l.blocks []
  |> List.sort compare

(** Blocks outside the loop that loop blocks branch to. *)
let exit_targets f l =
  exit_edges f l |> List.map snd |> List.sort_uniq compare

(** The header's predecessors outside the loop: the sources of the
    loop's entry edges. *)
let entering (f : Func.t) (l : loop) =
  (try Hashtbl.find (Func.preds f) l.header with Not_found -> [])
  |> List.filter (fun p -> not (IntSet.mem p l.blocks))

(** The unique preheader: the only entering block, provided the header
    is its only successor.  [entering] defaults to {!entering}[ f l]. *)
let preheader ?entering:outside (f : Func.t) (l : loop) =
  let outside = match outside with Some o -> o | None -> entering f l in
  match outside with
  | [ p ] when Func.successors f p = [ l.header ] -> Some p
  | _ -> None

(** Instructions of the loop in block layout order. *)
let insts (f : Func.t) (l : loop) =
  List.concat_map
    (fun bid -> if IntSet.mem bid l.blocks then (Func.block f bid).Func.insts else [])
    (Func.blocks f)
  |> List.map (Func.inst f)

(** Loops ordered innermost-first (deepest depth first). *)
let innermost_first (t : t) =
  List.sort
    (fun a b ->
      if a.depth <> b.depth then compare b.depth a.depth
      else compare a.header b.header)
    t.loops
