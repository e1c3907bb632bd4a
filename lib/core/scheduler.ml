(** The scheduler abstraction (SCD, §2.2).

    Moves instructions within and among basic blocks while preserving the
    original semantics; preservation is guaranteed by consulting the PDG.
    The paper describes a hierarchy of schedulers — a generic one plus
    specialized ones (loop scheduler, within-basic-block scheduler); the
    specialized entry points below extend the generic legality core. *)

open Ir

type t = {
  pdg : Pdg.t;
  f : Func.t;
}

let create (pdg : Pdg.t) = { pdg; f = pdg.Pdg.f }

(** Is there a dependence (either direction) between instructions [a] and
    [b]? *)
let depend (t : t) a b =
  List.exists (fun (e : Depgraph.edge) -> e.Depgraph.edst = b) (Depgraph.succs t.pdg.Pdg.fdg a)
  || List.exists (fun (e : Depgraph.edge) -> e.Depgraph.edst = a) (Depgraph.succs t.pdg.Pdg.fdg b)

(** Data/memory dependence sources of [i] (excluding control). *)
let data_preds (t : t) i =
  List.filter_map
    (fun (e : Depgraph.edge) ->
      match e.Depgraph.kind with
      | Depgraph.Control -> None
      | _ -> Some e.Depgraph.esrc)
    (Depgraph.preds t.pdg.Pdg.fdg i)

let data_succs (t : t) i =
  List.filter_map
    (fun (e : Depgraph.edge) ->
      match e.Depgraph.kind with
      | Depgraph.Control -> None
      | _ -> Some e.Depgraph.edst)
    (Depgraph.succs t.pdg.Pdg.fdg i)

(** Within-basic-block scheduler: topologically order the instructions of
    block [bid] by their intra-block dependences, breaking ties with
    [priority] (lower first) and then original order.  Phis stay at the
    front and the terminator stays last. *)
let schedule_block (t : t) bid ~(priority : Instr.inst -> int) =
  let ids = (Func.block t.f bid).Func.insts in
  let is_phi x =
    match (Func.inst t.f x).Instr.op with Instr.Phi _ -> true | _ -> false
  in
  let phis = List.filter is_phi ids in
  let term =
    match List.rev ids with
    | last :: _ when Instr.is_terminator (Func.inst t.f last) -> [ last ]
    | _ -> []
  in
  let mid =
    List.filter (fun x -> (not (is_phi x)) && not (List.mem x term)) ids
  in
  let orig_pos = Hashtbl.create 16 in
  List.iteri (fun k x -> Hashtbl.replace orig_pos x k) mid;
  (* side effects keep their program order: the PDG may prove two stores
     independent, yet both are observable (escaping memory), so every
     store or call also depends on each earlier one in the block *)
  let prior_effects = Hashtbl.create 16 in
  ignore
    (List.fold_left
       (fun earlier x ->
         match (Func.inst t.f x).Instr.op with
         | Instr.Store _ | Instr.Call _ ->
           Hashtbl.replace prior_effects x earlier;
           x :: earlier
         | _ -> earlier)
       [] mid);
  (* intra-block dependence edges among mid; control deps within a block
     do not exist and memory edges are in data_preds *)
  let deps_of x =
    List.filter (fun y -> y <> x && List.mem y mid) (data_preds t x)
    @ Option.value (Hashtbl.find_opt prior_effects x) ~default:[]
  in
  let placed = Hashtbl.create 16 in
  let out = ref [] in
  let remaining = ref mid in
  while !remaining <> [] do
    let ready =
      List.filter
        (fun x -> List.for_all (fun d -> Hashtbl.mem placed d || not (List.mem d !remaining)) (deps_of x))
        !remaining
    in
    let pick =
      match ready with
      | [] -> List.hd !remaining (* dependence cycle inside a block: bail stably *)
      | _ ->
        List.fold_left
          (fun best x ->
            let key x = (priority (Func.inst t.f x), Hashtbl.find orig_pos x) in
            if key x < key best then x else best)
          (List.hd ready) (List.tl ready)
    in
    Hashtbl.replace placed pick ();
    out := pick :: !out;
    remaining := List.filter (fun x -> x <> pick) !remaining
  done;
  Builder.set_order t.f bid (phis @ List.rev !out @ term)

(** Loop scheduler: shrink the loop header by sinking instructions that
    are only used in the body into the body's entry block.  Returns how
    many instructions were sunk.  (The paper: "each scheduler augments the
    generic capabilities with specialized capabilities, e.g. reducing the
    header size of a loop".) *)
let shrink_header (t : t) (ls : Loopstructure.t) =
  let f = t.f in
  let header = ls.Loopstructure.header in
  (* the body entry: the in-loop successor of the header *)
  match
    List.find_opt (fun s -> Loopstructure.contains ls s) (Func.successors f header)
  with
  | None -> 0
  | Some body_entry ->
    let preds = Func.preds f in
    let body_preds = try Hashtbl.find preds body_entry with Not_found -> [] in
    if body_preds <> [ header ] then 0
    else begin
      let moved = ref 0 in
      let dt = Dom.compute f in
      let header_insts = (Func.block f header).Func.insts in
      (* candidates: non-phi, non-terminator, no memory writes, every data
         successor inside the body (not the header's own terminator) *)
      let term = Option.map (fun (i : Instr.inst) -> i.Instr.id) (Func.terminator f header) in
      List.iter
        (fun id ->
          let i = Func.inst f id in
          let movable =
            (match i.Instr.op with
            | Instr.Phi _ | Instr.Store _ | Instr.Call _ -> false
            | op when Instr.is_terminator_op op -> false
            | _ -> true)
            && List.for_all
                 (fun s ->
                   Some s <> term
                   &&
                   match Func.inst_opt f s with
                   | Some u ->
                     u.Instr.parent <> header
                     && Dom.dominates dt body_entry u.Instr.parent
                   | None -> true)
                 (data_succs t id)
            && (* the header terminator must not depend on it *)
            (match term with Some tid -> not (depend t id tid) | None -> true)
          in
          if movable then begin
            (* move to front of body entry, after phis *)
            let bb = Func.block f body_entry in
            let rec first_nonphi = function
              | x :: rest -> (
                match (Func.inst f x).Instr.op with
                | Instr.Phi _ -> first_nonphi rest
                | _ -> Some x)
              | [] -> None
            in
            (match first_nonphi bb.Func.insts with
            | Some anchor -> Builder.move_before f id ~before:anchor
            | None -> Builder.move_to_end f id ~bid:body_entry);
            incr moved
          end)
        header_insts;
      !moved
    end
