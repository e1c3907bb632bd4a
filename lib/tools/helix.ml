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
         (fun si s ->
           [ (Printf.sprintf "seg%d.slot" si, s.seq_phi.Instr.ty);
             (Printf.sprintf "seg%d.sig" si, Ty.I64) ])
         segments)
  in
  let env, live_slots, extra_slots = Parutil.build_env c ~reds ~ncores ~extra in
  let seg_slot si = List.assoc (Printf.sprintf "seg%d.slot" si) extra_slots in
  let seg_sig si = List.assoc (Printf.sprintf "seg%d.sig" si) extra_slots in
  (* --- task --- *)
  let tname =
    Printf.sprintf "%s.helix.%s" f.Func.fname
      (Func.block f ls.Loopstructure.header).Func.label
  in
  let task, entry, subst =
    Parutil.open_task m c ~name:tname ~origin:("HELIX " ^ tname) env live_slots
  in
  let tf = task.Task.tfunc in
  let env_ptr = Task.env_arg in
  (* preload segment slot addresses and signal handles *)
  let seg_info =
    List.mapi
      (fun si s ->
        let addr =
          Builder.add tf entry
            (Instr.Gep (env_ptr, Instr.Cint (Int64.of_int (seg_slot si))))
            Ty.Ptr
        in
        let sigh = Env.emit_load tf entry ~env_ptr ~index:(seg_sig si) Ty.I64 in
        (s, Instr.Reg addr.Instr.id, sigh))
      segments
  in
  let done_, bmap, imap = Parutil.clone_body c tf ~entry subst in
  let cheader = Hashtbl.find bmap ls.Loopstructure.header in
  let cbody = Hashtbl.find bmap c.Parutil.body_entry in
  let clatch = Hashtbl.find bmap latch in
  Parutil.chunk_cyclic task ~entry ~done_ imap subst ivs reds ~ncores;
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
    (Instr.Phi [ (entry, Instr.Cint 0L); (clatch, Instr.Reg nupd.Instr.id) ]);
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
  Parutil.close_task c tf ~entry ~done_ bmap;
  (* --- main rewrite --- *)
  let niters, env_ptr_main = Parutil.enter c ~ph env live_slots in
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
  Parutil.launch c ~ph ~env_ptr:env_ptr_main (List.init ncores (fun _ -> task));
  let combined = Parutil.combine_reductions c ~ph env ~env_ptr:env_ptr_main reds ~ncores in
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
  Parutil.rejoin n m c ~ph ~label:"helix.join"
    (combined @ seg_finals @ Parutil.iv_finals c ~ph ~niters ivs);
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
