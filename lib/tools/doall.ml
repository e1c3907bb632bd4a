(** DOALL parallelization (§3).

    Parallelizes a loop with no loop-carried data dependences by
    distributing its iterations among cores [34].  Built entirely out of
    NOELLE abstractions: candidate loops come from L + aSCCDAG + IV
    (every SCC must be Independent, an induction variable, or a reduction),
    loop selection uses PRO hotness, the iteration space is re-chunked
    cyclically with IVS (start += core*step, step *= ncores), live values
    flow through ENV, and the per-core bodies are Tasks cloned with LB. *)

open Ir
open Noelle

type plan = {
  c : Parutil.candidate;
  ivs : Indvars.t list;         (** every induction variable, governing first *)
  reds : Reduction.t list;
  privatized : string list;
      (** globals cloned per task (memory-object cloning; used by
          Perspective's privatization, [] for plain DOALL) *)
}

type stats = {
  loop_id : string;
  ncores : int;
  nreductions : int;
  nlive_ins : int;
}

(** Check whether the candidate loop is DOALL-able and build the plan. *)
let plan_of (c : Parutil.candidate) : (plan, string) result =
  let ivs = c.Parutil.ascc.Ascc.ivs in
  let reds = ref [] in
  let bad = ref None in
  List.iter
    (fun (node : Ascc.node) ->
      match node.Ascc.attr with
      | Ascc.Independent -> ()
      | Ascc.Induction _ -> ()
      | Ascc.Reducible r -> reds := r :: !reds
      | Ascc.Sequential ->
        if !bad = None then
          bad := Some (Printf.sprintf "sequential SCC of %d instructions"
                         (Sccdag.size node.Ascc.scc)))
    c.Parutil.ascc.Ascc.nodes;
  match !bad with
  | Some msg -> Error msg
  | None when Ascc.has_cross_carried c.Parutil.ascc ->
    Error
      (Printf.sprintf "%d loop-carried dependences cross SCCs (e.g. a phi chain)"
         (List.length c.Parutil.ascc.Ascc.cross_carried))
  | None ->
    (* live-outs must be IV phis or reduction phis *)
    let ok_out r =
      List.exists (fun (iv : Indvars.t) -> iv.Indvars.phi.Instr.id = r) ivs
      || List.exists (fun (rd : Reduction.t) -> rd.Reduction.phi.Instr.id = r) !reds
    in
    (match List.find_opt (fun r -> not (ok_out r)) c.Parutil.live_out_regs with
    | Some r -> Error (Printf.sprintf "live-out %%%d is neither an IV nor a reduction" r)
    | None -> Ok { c; ivs = List.rev ivs; reds = List.rev !reds; privatized = [] })

(** Apply the transformation.  Returns statistics on success. *)
let transform (n : Noelle.t) (m : Irmod.t) (plan : plan) ~(ncores : int) :
    stats =
  let { c; ivs; reds; privatized } = plan in
  let f = c.Parutil.f in
  let ls = c.Parutil.ls in
  Noelle.loop_builder n;
  Noelle.environment n;
  Noelle.task n;
  Noelle.iv_stepper n;
  if reds <> [] then ignore (Noelle.reductions n c.Parutil.lp);
  ignore (Noelle.invariants n c.Parutil.lp);
  let ph = Loopbuilder.ensure_preheader f ls.Loopstructure.raw in
  (* --- environment layout --- *)
  let red_slots = List.length reds * ncores in
  let extra =
    List.concat
      (List.mapi
         (fun ri (rd : Reduction.t) ->
           List.init ncores (fun core ->
               (Printf.sprintf "red%d.c%d" ri core, Reduction.value_ty rd.Reduction.kind)))
         reds)
  in
  ignore red_slots;
  let env, live_slots, extra_slots = Parutil.build_env c ~extra in
  let red_base ri = snd (List.nth extra_slots (ri * ncores)) in
  (* --- task function --- *)
  let tname = Printf.sprintf "%s.doall.%s" f.Func.fname
      (Func.block f ls.Loopstructure.header).Func.label in
  let task, entry = Task.create m ~name:tname ~env ~origin:(Printf.sprintf "DOALL %s" tname) in
  let tf = task.Task.tfunc in
  let env_ptr = Task.env_arg in
  let subst_pairs =
    Parutil.emit_live_in_loads f tf entry.Func.bid live_slots ~env_ptr
  in
  (* memory-object cloning: each task gets a private copy of privatized
     globals; the profile guarantees writes precede reads per iteration and
     the contents are dead after the loop, so no copy-in/copy-out *)
  let subst_pairs =
    subst_pairs
    @ List.map
        (fun g ->
          let size =
            match Irmod.global_opt m g with Some gl -> gl.Irmod.size | None -> 1
          in
          let a =
            Builder.add tf entry.Func.bid
              (Instr.Alloca (Instr.Cint (Int64.of_int size)))
              Ty.Ptr
          in
          (Instr.Glob g, Instr.Reg a.Instr.id))
        privatized
  in
  let done_blk = Builder.add_block tf ~label:"done" in
  let bmap, imap =
    Loopbuilder.clone_blocks ~src:f ~blocks:ls.Loopstructure.blocks ~dst:tf
      ~map_value:(Parutil.subst_of subst_pairs)
      ~entry_from:entry.Func.bid
      ~exit_to:(fun _ -> done_blk.Func.bid)
  in
  (* every IV: offset start by core*step, scale step by ncores *)
  List.iter
    (fun (iv : Indvars.t) ->
      let phi' = Hashtbl.find imap iv.Indvars.phi.Instr.id in
      let upd' = Hashtbl.find imap iv.Indvars.update.Instr.id in
      let step' = Parutil.subst_of subst_pairs iv.Indvars.step in
      let delta =
        Builder.add tf entry.Func.bid
          (Instr.Bin (Instr.Mul, Task.core_arg, step'))
          Ty.I64
      in
      Ivstepper.offset_start tf ~phi_id:phi' ~pred:entry.Func.bid
        ~delta:(Instr.Reg delta.Instr.id);
      Ivstepper.scale_step tf ~update_id:upd' ~phi_id:phi' ~factor:Task.ncores_arg)
    ivs;
  (* every reduction: privatize with the identity, store partials at exit *)
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
      (* dynamic slot index = base + core *)
      let base = red_base ri in
      let off =
        Builder.add tf done_blk.Func.bid
          (Instr.Bin (Instr.Add, Instr.Cint (Int64.of_int base), Task.core_arg))
          Ty.I64
      in
      let addr =
        Builder.add tf done_blk.Func.bid
          (Instr.Gep (env_ptr, Instr.Reg off.Instr.id))
          Ty.Ptr
      in
      ignore
        (Builder.add tf done_blk.Func.bid
           (Instr.Store (Instr.Reg phi'.Instr.id, Instr.Reg addr.Instr.id))
           Ty.Void))
    reds;
  ignore (Builder.set_term tf entry.Func.bid (Instr.Br (Hashtbl.find bmap ls.Loopstructure.header)));
  ignore (Builder.set_term tf done_blk.Func.bid (Instr.Ret None));
  (* --- rewrite the original function --- *)
  let start = c.Parutil.iv.Indvars.start in
  let bound = c.Parutil.gov.Indvars.bound in
  let niters = Parutil.emit_niters c f ph ~start ~bound in
  let env_ptr_main = Env.emit_alloc env f ph in
  List.iter (fun (v, idx) -> Env.emit_store f ph ~env_ptr:env_ptr_main ~index:idx v) live_slots;
  for core = 0 to ncores - 1 do
    Task.emit_submit f ph task ~core:(Instr.Cint (Int64.of_int core))
      ~ncores:(Instr.Cint (Int64.of_int ncores)) ~env_ptr:env_ptr_main
  done;
  Task.emit_run_all f ph;
  (* combine reduction partials *)
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
  (* closed-form IV finals *)
  let iv_finals =
    List.map
      (fun (iv : Indvars.t) ->
        let stepv = iv.Indvars.step in
        let extent =
          Builder.add f ph (Instr.Bin (Instr.Mul, niters, stepv)) Ty.I64
        in
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
      match List.assoc_opt r iv_finals with
      | Some v -> v
      | None -> Instr.Cint 0L (* unreachable: plan checked live-outs *))
  in
  let join = Builder.add_block f ~label:"doall.join" in
  Parutil.replace_loop c ~ph ~join_bid:join.Func.bid ~map_live_out;
  Task.declare_runtime m;
  Noelle.invalidate n;
  ignore privatized;
  {
    loop_id = tname;
    ncores;
    nreductions = List.length reds;
    nlive_ins = List.length live_slots;
  }

(** Try to DOALL-parallelize the hottest eligible loop of each function
    (skipping generated task functions).  Returns per-loop outcomes. *)
let run (n : Noelle.t) (m : Irmod.t) ?(ncores = 12) ?(min_hotness = 0.05) ?(min_work = 20000.0)
    ?(profile_free = false) ?(skip = fun (_ : string) -> false) () :
    (string * (stats, string) result) list =
  Parutil.drive n m ~tool:"DOALL" ~skip
    ~prelude:(fun f ->
      Noelle.profiler n;
      (* static bounds are queried unconditionally: planning telemetry
         stays observable even on the profile-driven path *)
      ignore (Noelle.bounds n f))
    ~select:(Parutil.hot n m ~profile_free ~min_hotness ~min_work)
    (fun c ->
      Result.map
        (fun plan ->
          let ncores =
            if profile_free then
              Parutil.static_chunk n c.Parutil.f c.Parutil.ls ~ncores
            else ncores
          in
          transform n m plan ~ncores)
        (plan_of c))
