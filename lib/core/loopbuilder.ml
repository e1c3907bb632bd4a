(** The loop builder (LB, §2.2).

    The loop-granularity analogue of LLVM's IRBuilder: a set of loop
    transformations that modify, create, and delete loops — canonicalizing
    (dedicated preheader), hoisting code out of loops (used by LICM),
    translating while-shaped loops to do-while shape (loop rotation),
    peeling, and cloning a loop body into another function (the shared
    machinery of the DOALL/HELIX/DSWP task generation). *)

open Ir

(** Give loop [l] a dedicated preheader (no-op if one exists).  Returns the
    preheader block id. *)
let ensure_preheader (f : Func.t) (l : Loopnest.loop) : int =
  match Loopnest.preheader f l with
  | Some ph -> ph
  | None ->
    let header = l.Loopnest.header in
    let preds = Func.preds f in
    let outside =
      (try Hashtbl.find preds header with Not_found -> [])
      |> List.filter (fun p -> not (Loopnest.contains l p))
    in
    let ph = Builder.add_block f ~label:"preheader" in
    (* steal the outside-incoming phi entries *)
    List.iter
      (fun (i : Instr.inst) ->
        match i.Instr.op with
        | Instr.Phi incs ->
          let from_outside, from_inside =
            List.partition (fun (p, _) -> List.mem p outside) incs
          in
          (match from_outside with
          | [] -> ()
          | [ (_, v) ] -> Builder.set_op f i (Instr.Phi ((ph.Func.bid, v) :: from_inside))
          | multi ->
            (* merge multiple outside values with a phi in the preheader *)
            let merged =
              Builder.insert_front f ph.Func.bid (Instr.Phi multi) i.Instr.ty
            in
            Builder.set_op f i
              (Instr.Phi ((ph.Func.bid, Instr.Reg merged.Instr.id) :: from_inside)))
        | _ -> ())
      (Func.insts_of_block f header);
    List.iter
      (fun p -> Builder.redirect f p ~old_succ:header ~new_succ:ph.Func.bid)
      outside;
    ignore (Builder.set_term f ph.Func.bid (Instr.Br header));
    (* entry function header: if the loop header was the function entry,
       the preheader must become the entry block *)
    if Func.entry f = header then Builder.make_entry f ph.Func.bid;
    ph.Func.bid

(** Hoist instruction [id] to the end of the loop's preheader (creating
    one if needed). *)
let hoist (f : Func.t) (l : Loopnest.loop) id =
  let ph = ensure_preheader f l in
  match Func.terminator f ph with
  | Some t -> Builder.move_before f id ~before:t.Instr.id
  | None -> Builder.move_to_end f id ~bid:ph

(* ------------------------------------------------------------------ *)
(* Creation                                                            *)
(* ------------------------------------------------------------------ *)

(** Create a fresh counted while-shaped loop in [f]: control flows
    [before] -> preheader -> header(iv phi, test) -> body -> latch ->
    header, exiting to a fresh block that is returned along with the body
    block and the IV's value.  [fill] populates the body given the IV.
    This is LB's "create loops" capability; task generators and tests use
    it to synthesize iteration skeletons. *)
let build_counted_loop (f : Func.t) ~(after : int) ~(start : Instr.value)
    ~(bound : Instr.value) ~(step : int64)
    ~(fill : body:Func.block -> iv:Instr.value -> unit) =
  let ph = Builder.add_block f ~label:"lb.preheader" in
  let header = Builder.add_block f ~label:"lb.header" in
  let body = Builder.add_block f ~label:"lb.body" in
  let latch = Builder.add_block f ~label:"lb.latch" in
  let exit = Builder.add_block f ~label:"lb.exit" in
  (* [after] must not be terminated yet; the caller terminates [exit] *)
  ignore (Builder.set_term f after (Instr.Br ph.Func.bid));
  ignore (Builder.set_term f ph.Func.bid (Instr.Br header.Func.bid));
  let phi = Builder.insert_front f header.Func.bid (Instr.Phi []) Ty.I64 in
  let cmp =
    Builder.add f header.Func.bid
      (Instr.Icmp ((if step > 0L then Instr.Slt else Instr.Sgt), Instr.Reg phi.Instr.id, bound))
      Ty.I64
  in
  ignore
    (Builder.set_term f header.Func.bid
       (Instr.Cbr (Instr.Reg cmp.Instr.id, body.Func.bid, exit.Func.bid)));
  fill ~body ~iv:(Instr.Reg phi.Instr.id);
  ignore (Builder.set_term f body.Func.bid (Instr.Br latch.Func.bid));
  let next =
    Builder.add f latch.Func.bid
      (Instr.Bin (Instr.Add, Instr.Reg phi.Instr.id, Instr.Cint step))
      Ty.I64
  in
  ignore (Builder.set_term f latch.Func.bid (Instr.Br header.Func.bid));
  Builder.set_op f phi
    (Instr.Phi [ (ph.Func.bid, start); (latch.Func.bid, Instr.Reg next.Instr.id) ]);
  (exit, body, Instr.Reg phi.Instr.id)

(* ------------------------------------------------------------------ *)
(* Cloning                                                             *)
(* ------------------------------------------------------------------ *)

(** Clone the [blocks] of [src] into [dst] (which may be [src] itself).

    - [map_value] rewrites operands defined {e outside} the cloned region
      (live-ins): arguments, registers from outside, globals;
    - [entry_from] is the dst block to use as the incoming-block of phis
      whose original incoming block lies outside the region;
    - [exit_to] maps branch targets outside the region to dst blocks.

    Returns [(block_map, inst_map)]. *)
let clone_blocks ~(src : Func.t) ~(blocks : int list) ~(dst : Func.t)
    ~(map_value : Instr.value -> Instr.value) ~(entry_from : int)
    ~(exit_to : int -> int) : (int, int) Hashtbl.t * (int, int) Hashtbl.t =
  let bmap = Hashtbl.create 16 and imap = Hashtbl.create 64 in
  let ordered = List.filter (fun b -> List.mem b blocks) (Func.blocks src) in
  List.iter
    (fun bid ->
      let b = Func.block src bid in
      let nb = Builder.add_block dst ~label:(b.Func.label ^ ".clone") in
      Hashtbl.replace bmap bid nb.Func.bid)
    ordered;
  (* first pass: create clone instructions (ops fixed up in pass two) *)
  List.iter
    (fun bid ->
      let b = Func.block src bid in
      let nb = Func.block dst (Hashtbl.find bmap bid) in
      List.iter
        (fun iid ->
          let i = Func.inst src iid in
          let ni = Builder.add dst nb.Func.bid i.Instr.op i.Instr.ty in
          Hashtbl.replace imap iid ni.Instr.id)
        b.Func.insts)
    ordered;
  (* second pass: remap operands, phi predecessors, and branch targets *)
  List.iter
    (fun bid ->
      let nb = Func.block dst (Hashtbl.find bmap bid) in
      List.iter
        (fun nid ->
          let ni = Func.inst dst nid in
          let remap_v v =
            match v with
            | Instr.Reg r -> (
              match Hashtbl.find_opt imap r with
              | Some r' -> Instr.Reg r'
              | None -> map_value v)
            | Instr.Arg _ -> map_value v
            | Instr.Glob _ -> map_value v
            | v -> v
          in
          Builder.set_op dst ni
            (match ni.Instr.op with
            | Instr.Phi incs ->
              Instr.Phi
                (List.map
                   (fun (p, v) ->
                     let p' =
                       match Hashtbl.find_opt bmap p with
                       | Some p' -> p'
                       | None -> entry_from
                     in
                     (p', remap_v v))
                   incs)
            | Instr.Br s ->
              Instr.Br
                (match Hashtbl.find_opt bmap s with Some s' -> s' | None -> exit_to s)
            | Instr.Cbr (c, a, b) ->
              let f s =
                match Hashtbl.find_opt bmap s with Some s' -> s' | None -> exit_to s
              in
              Instr.Cbr (remap_v c, f a, f b)
            | op -> Instr.map_operands remap_v op))
        nb.Func.insts)
    ordered;
  (bmap, imap)

(* ------------------------------------------------------------------ *)
(* Rotation: while -> do-while                                         *)
(* ------------------------------------------------------------------ *)

(** Can the loop be rotated?  The header must be the unique exiting block,
    its straight-line computation must be side-effect free (it gets
    cloned), and a dedicated preheader must be creatable. *)
let can_rotate (f : Func.t) (ls : Loopstructure.t) =
  Loopstructure.shape ls = Loopstructure.While_shape
  && (match Loopstructure.exiting_blocks ls with
     | [ h ] -> h = ls.Loopstructure.header
     | _ -> false)
  && List.for_all
       (fun (i : Instr.inst) ->
         match i.Instr.op with
         | Instr.Phi _ | Instr.Cbr _ -> true
         | Instr.Store _ | Instr.Call _ | Instr.Alloca _ | Instr.Load _ -> false
         | op -> not (Instr.is_terminator_op op))
       (Func.insts_of_block f ls.Loopstructure.header)

(** Rotate a while-shaped loop into do-while shape: the exit test moves
    into the preheader (zero-trip guard) and into each latch.  Returns
    [true] on success.  Faithful to LLVM's LoopRotate in effect, built in
    a few dozen lines on LB's cloning machinery. *)
let rotate (f : Func.t) (ls : Loopstructure.t) : bool =
  if not (can_rotate f ls) then false
  else begin
    let l = ls.Loopstructure.raw in
    let header = ls.Loopstructure.header in
    let ph = ensure_preheader f l in
    let hblock = Func.block f header in
    let phis, rest =
      List.partition
        (fun id -> match (Func.inst f id).Instr.op with Instr.Phi _ -> true | _ -> false)
        hblock.Func.insts
    in
    let term_id = List.nth rest (List.length rest - 1) in
    let term = Func.inst f term_id in
    let cond, body_succ, exit_succ =
      match term.Instr.op with
      | Instr.Cbr (c, a, b) ->
        if Loopstructure.contains ls a then (c, a, b) else (c, b, a)
      | _ -> assert false
    in
    let comp = List.filter (fun id -> id <> term_id) rest in
    (* substitution for a given incoming edge: phi -> its incoming value *)
    let clone_into ~bid ~(phi_sub : int -> Instr.value option) =
      (* returns value map for header computation ids *)
      let map : (int, Instr.value) Hashtbl.t = Hashtbl.create 8 in
      let subst v =
        match v with
        | Instr.Reg r -> (
          match Hashtbl.find_opt map r with
          | Some v' -> v'
          | None -> (
            match phi_sub r with Some v' -> v' | None -> v))
        | v -> v
      in
      List.iter
        (fun id ->
          let i = Func.inst f id in
          let ni = Builder.add f bid (Instr.map_operands subst i.Instr.op) i.Instr.ty in
          Hashtbl.replace map id (Instr.Reg ni.Instr.id))
        comp;
      (map, subst)
    in
    let phi_incs id =
      match (Func.inst f id).Instr.op with
      | Instr.Phi incs -> incs
      | _ -> assert false
    in
    (* guard clone in the preheader *)
    let guard_map, guard_subst =
      clone_into ~bid:ph
        ~phi_sub:(fun r ->
          if List.mem r phis then List.assoc_opt ph (phi_incs r) else None)
    in
    let guard_cond = guard_subst cond in
    Builder.replace_term f ph (Instr.Cbr (guard_cond, body_succ, exit_succ));
    (* latch clones *)
    let latch_data =
      List.map
        (fun latch ->
          let lmap, lsubst =
            clone_into ~bid:latch
              ~phi_sub:(fun r ->
                if List.mem r phis then List.assoc_opt latch (phi_incs r) else None)
          in
          let lcond = lsubst cond in
          Builder.replace_term f latch (Instr.Cbr (lcond, body_succ, exit_succ));
          (latch, lmap, lsubst))
        ls.Loopstructure.latches
    in
    (* move phis into the new header (the body successor); incoming blocks
       change: preheader keeps its value, latch values stay *)
    List.iter
      (fun pid ->
        Builder.move_before f pid ~before:(List.hd (Func.block f body_succ).Func.insts))
      phis;
    (* merge values for header computations used elsewhere, and for phis
       used outside the loop: build exit phis in the exit block *)
    let all_new_preds = ph :: List.map (fun (l, _, _) -> l) latch_data in
    let exit_phi_for ~ty ~value_for_pred =
      let phi =
        Builder.insert_front f exit_succ
          (Instr.Phi (List.map (fun p -> (p, value_for_pred p)) all_new_preds))
          ty
      in
      Instr.Reg phi.Instr.id
    in
    (* replace external uses of each header computation *)
    List.iter
      (fun cid ->
        let c = Func.inst f cid in
        let users = Func.users f cid in
        let outside_users =
          List.filter
            (fun (u : Instr.inst) ->
              u.Instr.id <> cid && u.Instr.id <> term_id
              && not
                   (u.Instr.parent = exit_succ
                   && match u.Instr.op with Instr.Phi _ -> true | _ -> false))
            users
        in
        if outside_users <> [] then begin
          (* in-loop users read the latch/guard value via a header phi *)
          let hphi =
            Builder.insert_front f body_succ
              (Instr.Phi
                 ((ph, Hashtbl.find guard_map cid)
                 :: List.map
                      (fun (latch, lmap, _) -> (latch, Hashtbl.find lmap cid))
                      latch_data))
              c.Instr.ty
          in
          let ephi =
            lazy
              (exit_phi_for ~ty:c.Instr.ty ~value_for_pred:(fun p ->
                   if p = ph then Hashtbl.find guard_map cid
                   else
                     let _, lmap, _ =
                       List.find (fun (l, _, _) -> l = p) latch_data
                     in
                     Hashtbl.find lmap cid))
          in
          List.iter
            (fun (u : Instr.inst) ->
              let inside = Loopstructure.contains ls u.Instr.parent in
              let by =
                if inside then Instr.Reg hphi.Instr.id else Lazy.force ephi
              in
              Builder.set_op f u
                (Instr.map_operands
                  (function Instr.Reg r when r = cid -> by | v -> v)
                  u.Instr.op))
            outside_users
        end)
      comp;
    (* phis used outside the loop get exit merges of their per-edge values *)
    List.iter
      (fun pid ->
        let p = Func.inst f pid in
        let incs = phi_incs pid in
        let outside_users =
          List.filter
            (fun (u : Instr.inst) ->
              (not (Loopstructure.contains ls u.Instr.parent))
              && not
                   (u.Instr.parent = exit_succ
                   && match u.Instr.op with Instr.Phi _ -> true | _ -> false))
            (Func.users f pid)
        in
        if outside_users <> [] then begin
          let ephi =
            exit_phi_for ~ty:p.Instr.ty ~value_for_pred:(fun pr ->
                if pr = ph then List.assoc ph incs
                else List.assoc pr incs)
          in
          List.iter
            (fun (u : Instr.inst) ->
              Builder.set_op f u
                (Instr.map_operands
                  (function Instr.Reg r when r = pid -> ephi | v -> v)
                  u.Instr.op))
            outside_users
        end)
      phis;
    (* pre-existing exit phis: replace the incoming-from-header entry with
       one entry per new predecessor *)
    List.iter
      (fun (i : Instr.inst) ->
        match i.Instr.op with
        | Instr.Phi incs when List.mem_assoc header incs ->
          let v = List.assoc header incs in
          let others = List.filter (fun (p, _) -> p <> header) incs in
          let subst_for p v =
            match v with
            | Instr.Reg r when List.mem r comp ->
              if p = ph then Hashtbl.find guard_map r
              else
                let _, lmap, _ = List.find (fun (l, _, _) -> l = p) latch_data in
                Hashtbl.find lmap r
            | Instr.Reg r when List.mem r phis ->
              if p = ph then List.assoc ph (phi_incs r) else List.assoc p (phi_incs r)
            | v -> v
          in
          Builder.set_op f i
            (Instr.Phi (others @ List.map (fun p -> (p, subst_for p v)) all_new_preds))
        | _ -> ())
      (Func.insts_of_block f exit_succ);
    (* the old header is now bypassed: erase it *)
    Builder.erase_block f header;
    ignore (Cfg.prune_unreachable f);
    ignore (Builder.simplify_phis f);
    true
  end

(* ------------------------------------------------------------------ *)
(* Peeling                                                             *)
(* ------------------------------------------------------------------ *)

(** Peel the first iteration of loop [ls]: the preheader branches into a
    clone of the loop body whose back edges land on the original header.
    Used by noelle-rm-lc-dependences to break dependences that only occur
    on the first iteration.  Returns [true] on success. *)
let peel_first (f : Func.t) (ls : Loopstructure.t) : bool =
  let l = ls.Loopstructure.raw in
  let header = ls.Loopstructure.header in
  (* restrict to loops with a single exit target whose predecessors are all
     loop blocks, so the SSA live-out patch-up below is well-defined *)
  let exit_ok =
    match Loopstructure.single_exit ls with
    | None -> false
    | Some t ->
      let preds = Func.preds f in
      List.for_all
        (fun p -> Loopstructure.contains ls p)
        (try Hashtbl.find preds t with Not_found -> [])
  in
  if not exit_ok then false
  else begin
  let ph = ensure_preheader f l in
  (* clone loop blocks inside the same function *)
  let bmap, imap =
    clone_blocks ~src:f ~blocks:ls.Loopstructure.blocks ~dst:f
      ~map_value:(fun v -> v)
      ~entry_from:ph
      ~exit_to:(fun s -> s)
  in
  let cheader = Hashtbl.find bmap header in
  (* the clone's back edges must go to the original header *)
  Hashtbl.iter
    (fun _src cbid ->
      match Func.terminator f cbid with
      | Some t ->
        Builder.set_op f t
          (match t.Instr.op with
          | Instr.Br s when s = cheader -> Instr.Br header
          | Instr.Cbr (c, a, b) ->
            Instr.Cbr
              (c, (if a = cheader then header else a),
               if b = cheader then header else b)
          | op -> op)
      | None -> ())
    bmap;
  (* clone header phis: on first entry they take the preheader values; we
     record the substitution so later patch-ups can map through it *)
  let phi_repl : (int, Instr.value) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (i : Instr.inst) ->
      match i.Instr.op with
      | Instr.Phi incs when i.Instr.parent = cheader ->
        (* the clone executes only once, entered from the preheader *)
        (match List.assoc_opt ph incs with
        | Some v ->
          Hashtbl.replace phi_repl i.Instr.id v;
          Builder.replace_uses f ~old:i.Instr.id ~by:v;
          Builder.remove f i.Instr.id
        | None -> ())
      | _ -> ())
    (Func.insts_of_block f cheader);
  (* original header phis: incoming from preheader becomes incoming from
     the clone's latches with the cloned update values *)
  List.iter
    (fun (i : Instr.inst) ->
      match i.Instr.op with
      | Instr.Phi incs when i.Instr.parent = header ->
        let updated =
          List.concat_map
            (fun (p, v) ->
              if p = ph then
                (* one entry per cloned latch *)
                List.filter_map
                  (fun latch ->
                    let clatch = Hashtbl.find bmap latch in
                    match List.assoc_opt latch incs with
                    | Some lv ->
                      let lv' =
                        match lv with
                        | Instr.Reg r -> (
                          match Hashtbl.find_opt imap r with
                          | Some r' -> Instr.Reg r'
                          | None -> lv)
                        | lv -> lv
                      in
                      Some (clatch, lv')
                    | None -> None)
                  ls.Loopstructure.latches
              else [ (p, v) ])
            incs
        in
        Builder.set_op f i (Instr.Phi updated)
      | _ -> ())
    (Func.insts_of_block f header);
  (* exit-target phis: add one incoming per cloned exiting predecessor *)
  let exit_t = Option.get (Loopstructure.single_exit ls) in
  let remap_v v =
    match v with
    | Instr.Reg r -> (
      match Hashtbl.find_opt imap r with
      | Some r' -> (
        match Hashtbl.find_opt phi_repl r' with
        | Some v' -> v'  (* cloned header phi collapsed to its initial value *)
        | None -> Instr.Reg r')
      | None -> v)
    | v -> v
  in
  List.iter
    (fun (i : Instr.inst) ->
      match i.Instr.op with
      | Instr.Phi incs ->
        let extra =
          List.filter_map
            (fun (p, v) ->
              match Hashtbl.find_opt bmap p with
              | Some p' -> Some (p', remap_v v)
              | None -> None)
            incs
        in
        Builder.set_op f i (Instr.Phi (incs @ extra))
      | _ -> ())
    (Func.insts_of_block f exit_t);
  (* SSA live-outs used beyond the exit block without a merge phi: create
     merge phis at the exit target *)
  let exiting = Loopstructure.exiting_blocks ls in
  Func.iter_insts
    (fun (d : Instr.inst) ->
      if Loopstructure.contains ls d.Instr.parent then begin
        let outside_users =
          List.filter
            (fun (u : Instr.inst) ->
              (not (Loopstructure.contains ls u.Instr.parent))
              && not
                   (match u.Instr.op with
                   | Instr.Phi _ -> u.Instr.parent = exit_t
                   | _ -> false)
              && not (Hashtbl.mem bmap u.Instr.parent))
            (Func.users f d.Instr.id)
        in
        if outside_users <> [] then begin
          let phi =
            Builder.insert_front f exit_t
              (Instr.Phi
                 (List.map (fun p -> (p, Instr.Reg d.Instr.id)) exiting
                 @ List.map
                     (fun p -> (Hashtbl.find bmap p, remap_v (Instr.Reg d.Instr.id)))
                     exiting))
              d.Instr.ty
          in
          List.iter
            (fun (u : Instr.inst) ->
              Builder.set_op f u
                (Instr.map_operands
                  (function
                    | Instr.Reg r when r = d.Instr.id -> Instr.Reg phi.Instr.id
                    | v -> v)
                  u.Instr.op))
            outside_users
        end
      end)
    f;
  (* the preheader now branches to the peeled copy *)
  Builder.redirect f ph ~old_succ:header ~new_succ:cheader;
  ignore (Cfg.prune_unreachable f);
  ignore (Builder.simplify_phis f);
  true
  end
