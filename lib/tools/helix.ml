(** HELIX parallelization (§3, [23, 24, 42]).

    Distributes loop iterations round-robin across cores; each iteration is
    sliced into sequential segments (one per Sequential SCC of the
    aSCCDAG) and a parallel remainder.  Different dynamic instances of the
    same sequential segment execute in iteration order across cores —
    enforced here with the runtime's counting signals, whose hand-off cost
    is the core-to-core latency measured by AR — while everything else
    overlaps.

    Sequential SCCs are supported when they are {e self-contained pure
    recurrences}: exactly one header phi, members' operands drawn from the
    SCC itself, loop invariants, induction variables, or constants, and
    all members side-effect free.  This covers the recurrences that matter
    for the paper's irregular benchmarks (PRVG state updates, linear
    recurrences); anything else is rejected and left to DSWP. *)

open Ir
open Noelle

type segment = {
  seq_phi : Instr.inst;            (** the carried header phi *)
  members : Instr.inst list;       (** non-phi members, in layout order *)
  final_update : Instr.inst;       (** value stored back to the slot *)
}

type plan = {
  c : Parutil.candidate;
  ivs : Indvars.t list;
  reds : Reduction.t list;
  segments : segment list;
  latch : int;
}

type stats = {
  loop_id : string;
  ncores : int;
  nsegments : int;
  nreductions : int;
}

let pure_op (i : Instr.inst) =
  match i.Instr.op with
  | Instr.Bin ((Instr.Sdiv | Instr.Srem), _, _) -> false (* may trap if hoisted *)
  | Instr.Bin _ | Instr.Fbin _ | Instr.Icmp _ | Instr.Fcmp _ | Instr.Select _
  | Instr.Cast _ -> true
  | _ -> false

(** Build a segment from a Sequential SCC, or explain why it cannot be. *)
let segment_of (c : Parutil.candidate) (scc : Sccdag.scc) : (segment, string) result =
  let f = c.Parutil.f in
  let ls = c.Parutil.ls in
  let members = List.map (Func.inst f) scc.Sccdag.members in
  let phis, rest =
    List.partition
      (fun (i : Instr.inst) -> match i.Instr.op with Instr.Phi _ -> true | _ -> false)
      members
  in
  match phis with
  | [ p ] when p.Instr.parent = ls.Loopstructure.header -> (
    if not (List.for_all pure_op rest) then
      Error "sequential SCC contains side-effecting or trapping instructions"
    else begin
      let in_scc id = List.mem id scc.Sccdag.members in
      let iv_ids =
        List.concat_map (fun (iv : Indvars.t) -> iv.Indvars.scc) c.Parutil.ascc.Ascc.ivs
      in
      let ok_operand v =
        match v with
        | Instr.Cint _ | Instr.Cfloat _ | Instr.Null | Instr.Glob _ -> true
        | _ when Scev.is_invariant_value f ls.Loopstructure.raw v -> true
        | Instr.Reg r -> in_scc r || List.mem r iv_ids
        | Instr.Arg _ -> true
      in
      if
        not
          (List.for_all
             (fun (i : Instr.inst) ->
               List.for_all ok_operand (Instr.operands i.Instr.op))
             rest)
      then Error "sequential SCC depends on per-iteration values outside itself"
      else begin
        (* all in-loop users of members must live strictly below the header *)
        let member_ids = scc.Sccdag.members in
        let bad_user =
          List.exists
            (fun id ->
              List.exists
                (fun (u : Instr.inst) ->
                  Loopstructure.contains_inst ls u
                  && u.Instr.parent = ls.Loopstructure.header
                  && not (List.mem u.Instr.id member_ids))
                (Func.users f id))
            member_ids
        in
        if bad_user then Error "sequential SCC feeds the loop header"
        else
          let final_update =
            match p.Instr.op with
            | Instr.Phi incs -> (
              match
                List.find_opt
                  (fun (pr, _) -> Loopstructure.contains ls pr)
                  incs
              with
              | Some (_, Instr.Reg r) -> Some (Func.inst f r)
              | _ -> None)
            | _ -> None
          in
          match final_update with
          | Some u when List.mem u.Instr.id member_ids ->
            let rest_ordered =
              List.filter
                (fun (i : Instr.inst) ->
                  List.mem i.Instr.id member_ids && i.Instr.id <> p.Instr.id)
                (Loopstructure.insts ls)
            in
            Ok { seq_phi = p; members = rest_ordered; final_update = u }
          | _ -> Error "sequential SCC has no recognizable carried update"
      end
    end)
  | _ -> Error "sequential SCC must have exactly one header phi"

let plan_of (c : Parutil.candidate) : (plan, string) result =
  match c.Parutil.ls.Loopstructure.latches with
  | [ latch ] -> (
    let ivs = c.Parutil.ascc.Ascc.ivs in
    let reds = ref [] and segs = ref [] and err = ref None in
    List.iter
      (fun (node : Ascc.node) ->
        match node.Ascc.attr with
        | Ascc.Independent | Ascc.Induction _ -> ()
        | Ascc.Reducible r -> reds := r :: !reds
        | Ascc.Sequential -> (
          match segment_of c node.Ascc.scc with
          | Ok s -> segs := s :: !segs
          | Error e -> if !err = None then err := Some e))
      c.Parutil.ascc.Ascc.nodes;
    match !err with
    | Some e -> Error e
    | None when Ascc.has_cross_carried c.Parutil.ascc ->
      Error "loop-carried dependences cross SCCs"
    | None ->
      let segs = List.rev !segs and reds = List.rev !reds in
      let ok_out r =
        List.exists (fun (iv : Indvars.t) -> iv.Indvars.phi.Instr.id = r) ivs
        || List.exists (fun (rd : Reduction.t) -> rd.Reduction.phi.Instr.id = r) reds
        || List.exists (fun s -> s.seq_phi.Instr.id = r) segs
      in
      (match List.find_opt (fun r -> not (ok_out r)) c.Parutil.live_out_regs with
      | Some r -> Error (Printf.sprintf "live-out %%%d not supported" r)
      | None -> Ok { c; ivs; reds; segments = segs; latch }))
  | _ -> Error "loop must have a single latch"

(** Apply the HELIX transformation. *)
let transform (n : Noelle.t) (m : Irmod.t) (plan : plan) ~(ncores : int) : stats =
  let { c; ivs; reds; segments; latch } = plan in
  let f = c.Parutil.f in
  let ls = c.Parutil.ls in
  Noelle.loop_builder n;
  Noelle.environment n;
  Noelle.task n;
  Noelle.iv_stepper n;
  if reds <> [] then ignore (Noelle.reductions n c.Parutil.lp);
  ignore (Noelle.invariants n c.Parutil.lp);
  Noelle.dfe n;
  ignore (Noelle.scheduler n f);
  ignore (Noelle.arch n);
  let ph = Loopbuilder.ensure_preheader f ls.Loopstructure.raw in
  (* --- environment: live-ins, reduction partials, per-segment slot+signal --- *)
  let extra =
    List.concat
      (List.mapi
         (fun ri (rd : Reduction.t) ->
           List.init ncores (fun core ->
               (Printf.sprintf "red%d.c%d" ri core, Reduction.value_ty rd.Reduction.kind)))
         reds)
    @ List.concat
        (List.mapi
           (fun si s ->
             [ (Printf.sprintf "seg%d.slot" si, s.seq_phi.Instr.ty);
               (Printf.sprintf "seg%d.sig" si, Ty.I64) ])
           segments)
  in
  let env, live_slots, extra_slots = Parutil.build_env c ~extra in
  let red_base ri = snd (List.nth extra_slots (ri * ncores)) in
  let seg_slot si = snd (List.nth extra_slots (List.length reds * ncores + (si * 2))) in
  let seg_sig si = snd (List.nth extra_slots (List.length reds * ncores + (si * 2) + 1)) in
  (* --- task --- *)
  let tname =
    Printf.sprintf "%s.helix.%s" f.Func.fname
      (Func.block f ls.Loopstructure.header).Func.label
  in
  let task, entry = Task.create m ~name:tname ~env ~origin:("HELIX " ^ tname) in
  let tf = task.Task.tfunc in
  let env_ptr = Task.env_arg in
  let subst_pairs = Parutil.emit_live_in_loads f tf entry.Func.bid live_slots ~env_ptr in
  (* preload segment slot addresses and signal handles *)
  let seg_info =
    List.mapi
      (fun si s ->
        let addr =
          Builder.add tf entry.Func.bid
            (Instr.Gep (env_ptr, Instr.Cint (Int64.of_int (seg_slot si))))
            Ty.Ptr
        in
        let sigh =
          Env.emit_load tf entry.Func.bid ~env_ptr ~index:(seg_sig si) Ty.I64
        in
        (s, Instr.Reg addr.Instr.id, sigh))
      segments
  in
  let done_blk = Builder.add_block tf ~label:"done" in
  let bmap, imap =
    Loopbuilder.clone_blocks ~src:f ~blocks:ls.Loopstructure.blocks ~dst:tf
      ~map_value:(Parutil.subst_of subst_pairs)
      ~entry_from:entry.Func.bid
      ~exit_to:(fun _ -> done_blk.Func.bid)
  in
  let cheader = Hashtbl.find bmap ls.Loopstructure.header in
  let cbody = Hashtbl.find bmap c.Parutil.body_entry in
  let clatch = Hashtbl.find bmap latch in
  (* IVs: cyclic chunking, like DOALL *)
  List.iter
    (fun (iv : Indvars.t) ->
      let phi' = Hashtbl.find imap iv.Indvars.phi.Instr.id in
      let upd' = Hashtbl.find imap iv.Indvars.update.Instr.id in
      let step' = Parutil.subst_of subst_pairs iv.Indvars.step in
      let delta =
        Builder.add tf entry.Func.bid (Instr.Bin (Instr.Mul, Task.core_arg, step')) Ty.I64
      in
      Ivstepper.offset_start tf ~phi_id:phi' ~pred:entry.Func.bid
        ~delta:(Instr.Reg delta.Instr.id);
      Ivstepper.scale_step tf ~update_id:upd' ~phi_id:phi' ~factor:Task.ncores_arg)
    ivs;
  (* reductions: privatize *)
  List.iteri
    (fun ri (rd : Reduction.t) ->
      let phi' = Func.inst tf (Hashtbl.find imap rd.Reduction.phi.Instr.id) in
      (match phi'.Instr.op with
      | Instr.Phi incs ->
        Builder.set_op tf phi'
          (Instr.Phi
            (List.map
               (fun (p, v) ->
                 if p = entry.Func.bid then (p, Reduction.identity rd.Reduction.kind)
                 else (p, v))
               incs))
      | _ -> ());
      let base = red_base ri in
      let off =
        Builder.add tf done_blk.Func.bid
          (Instr.Bin (Instr.Add, Instr.Cint (Int64.of_int base), Task.core_arg))
          Ty.I64
      in
      let addr =
        Builder.add tf done_blk.Func.bid (Instr.Gep (env_ptr, Instr.Reg off.Instr.id)) Ty.Ptr
      in
      ignore
        (Builder.add tf done_blk.Func.bid
           (Instr.Store (Instr.Reg phi'.Instr.id, Instr.Reg addr.Instr.id))
           Ty.Void))
    reds;
  (* global iteration counter g: local counter n (phi in cloned header,
     init 0, +1 in latch) with g = n*ncores + core *)
  let nphi = Builder.insert_front tf cheader (Instr.Phi []) Ty.I64 in
  let nupd =
    match Func.terminator tf clatch with
    | Some t ->
      Builder.insert_before tf ~before:t.Instr.id
        (Instr.Bin (Instr.Add, Instr.Reg nphi.Instr.id, Instr.Cint 1L))
        Ty.I64
    | None -> assert false
  in
  Builder.set_op tf nphi
    (Instr.Phi [ (entry.Func.bid, Instr.Cint 0L); (clatch, Instr.Reg nupd.Instr.id) ]);
  (* segments live in a dedicated block between the cloned header and the
     cloned body, so instruction moves cannot disturb block terminators *)
  let segb = Builder.add_block tf ~label:"helix.segments" in
  Builder.redirect tf cheader ~old_succ:cbody ~new_succ:segb.Func.bid;
  ignore (Builder.set_term tf segb.Func.bid (Instr.Br cbody));
  let addi op = Instr.Reg (Builder.add tf segb.Func.bid op Ty.I64).Instr.id in
  let gmul = addi (Instr.Bin (Instr.Mul, Instr.Reg nphi.Instr.id, Task.ncores_arg)) in
  let g = addi (Instr.Bin (Instr.Add, gmul, Task.core_arg)) in
  let gnext = addi (Instr.Bin (Instr.Add, g, Instr.Cint 1L)) in
  List.iter
    (fun (s, slot_addr, sigh) ->
      (* order: wait; load; members; store; set *)
      ignore
        (Builder.add tf segb.Func.bid
           (Instr.Call (Instr.Glob "sig_wait", [ sigh; g ]))
           Ty.Void);
      let cur =
        Builder.add tf segb.Func.bid (Instr.Load slot_addr) s.seq_phi.Instr.ty
      in
      List.iter
        (fun (mi : Instr.inst) ->
          let ci = Hashtbl.find imap mi.Instr.id in
          Builder.move_to_end tf ci ~bid:segb.Func.bid)
        s.members;
      let upd' = Hashtbl.find imap s.final_update.Instr.id in
      ignore
        (Builder.add tf segb.Func.bid
           (Instr.Store (Instr.Reg upd', slot_addr))
           Ty.Void);
      ignore
        (Builder.add tf segb.Func.bid
           (Instr.Call (Instr.Glob "sig_set", [ sigh; gnext ]))
           Ty.Void);
      (* the cloned seq phi is replaced by the loaded current value *)
      let phi' = Hashtbl.find imap s.seq_phi.Instr.id in
      Builder.replace_uses tf ~old:phi' ~by:(Instr.Reg cur.Instr.id);
      Builder.remove tf phi')
    seg_info;
  ignore (Builder.set_term tf entry.Func.bid (Instr.Br cheader));
  ignore (Builder.set_term tf done_blk.Func.bid (Instr.Ret None));
  (* --- main rewrite --- *)
  let start = c.Parutil.iv.Indvars.start in
  let bound = c.Parutil.gov.Indvars.bound in
  let niters = Parutil.emit_niters c f ph ~start ~bound in
  let env_ptr_main = Env.emit_alloc env f ph in
  List.iter
    (fun (v, idx) -> Env.emit_store f ph ~env_ptr:env_ptr_main ~index:idx v)
    live_slots;
  (* segment slots: initial values and fresh signals *)
  List.iteri
    (fun si s ->
      let init =
        match s.seq_phi.Instr.op with
        | Instr.Phi incs -> (
          match
            List.find_opt
              (fun (p, _) -> not (Loopstructure.contains ls p))
              incs
          with
          | Some (_, v) -> v
          | None -> Instr.Cint 0L)
        | _ -> Instr.Cint 0L
      in
      Env.emit_store f ph ~env_ptr:env_ptr_main ~index:(seg_slot si) init;
      let sg =
        Builder.add f ph (Instr.Call (Instr.Glob "sig_new", [])) Ty.I64
      in
      Env.emit_store f ph ~env_ptr:env_ptr_main ~index:(seg_sig si)
        (Instr.Reg sg.Instr.id))
    segments;
  for core = 0 to ncores - 1 do
    Task.emit_submit f ph task ~core:(Instr.Cint (Int64.of_int core))
      ~ncores:(Instr.Cint (Int64.of_int ncores)) ~env_ptr:env_ptr_main
  done;
  Task.emit_run_all f ph;
  let combined =
    List.mapi
      (fun ri (rd : Reduction.t) ->
        let base = red_base ri in
        let acc = ref rd.Reduction.init in
        for core = 0 to ncores - 1 do
          let part =
            Env.emit_load f ph ~env_ptr:env_ptr_main ~index:(base + core)
              (Reduction.value_ty rd.Reduction.kind)
          in
          acc := Reduction.emit_combine f ph rd.Reduction.kind !acc part
        done;
        (rd.Reduction.phi.Instr.id, !acc))
      reds
  in
  let seg_finals =
    List.mapi
      (fun si s ->
        let v =
          Env.emit_load f ph ~env_ptr:env_ptr_main ~index:(seg_slot si)
            s.seq_phi.Instr.ty
        in
        (s.seq_phi.Instr.id, v))
      segments
  in
  let iv_finals =
    List.map
      (fun (iv : Indvars.t) ->
        let extent = Builder.add f ph (Instr.Bin (Instr.Mul, niters, iv.Indvars.step)) Ty.I64 in
        let final =
          Builder.add f ph
            (Instr.Bin (Instr.Add, iv.Indvars.start, Instr.Reg extent.Instr.id))
            Ty.I64
        in
        (iv.Indvars.phi.Instr.id, Instr.Reg final.Instr.id))
      ivs
  in
  let map_live_out r =
    match List.assoc_opt r combined with
    | Some v -> v
    | None -> (
      match List.assoc_opt r seg_finals with
      | Some v -> v
      | None -> (
        match List.assoc_opt r iv_finals with
        | Some v -> v
        | None -> Instr.Cint 0L))
  in
  let join = Builder.add_block f ~label:"helix.join" in
  Parutil.replace_loop c ~ph ~join_bid:join.Func.bid ~map_live_out;
  Task.declare_runtime m;
  Noelle.invalidate n;
  {
    loop_id = tname;
    ncores;
    nsegments = List.length segments;
    nreductions = List.length reds;
  }

(** Run HELIX over the hottest eligible loops of the module. *)
let run (n : Noelle.t) (m : Irmod.t) ?(ncores = 12) ?(min_hotness = 0.05) ?(min_work = 20000.0)
    ?(profile_free = false) ?(skip = fun (_ : string) -> false) () :
    (string * (stats, string) result) list =
  Parutil.drive n m ~tool:"HELIX" ~skip
    ~prelude:(fun _ -> Noelle.profiler n)
    ~select:(Parutil.hot n m ~profile_free ~min_hotness ~min_work)
    (fun c -> Result.map (fun plan -> transform n m plan ~ncores) (plan_of c))
