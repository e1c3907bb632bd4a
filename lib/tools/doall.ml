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
  let env, live_slots, _ = Parutil.build_env c ~reds ~ncores ~extra:[] in
  (* --- task function --- *)
  let tname = Printf.sprintf "%s.doall.%s" f.Func.fname
      (Func.block f ls.Loopstructure.header).Func.label in
  let task, entry, subst =
    Parutil.open_task m c ~name:tname ~origin:(Printf.sprintf "DOALL %s" tname) env live_slots
  in
  let tf = task.Task.tfunc in
  (* memory-object cloning: each task gets a private copy of privatized
     globals; the profile guarantees writes precede reads per iteration and
     the contents are dead after the loop, so no copy-in/copy-out *)
  let subst =
    subst
    @ List.map
        (fun g ->
          let size =
            match Irmod.global_opt m g with Some gl -> gl.Irmod.size | None -> 1
          in
          let a = Builder.add tf entry (Instr.Alloca (Instr.Cint (Int64.of_int size))) Ty.Ptr in
          (Instr.Glob g, Instr.Reg a.Instr.id))
        privatized
  in
  let done_, bmap, imap = Parutil.clone_body c tf ~entry subst in
  Parutil.chunk_cyclic task ~entry ~done_ imap subst ivs reds ~ncores;
  Parutil.close_task c tf ~entry ~done_ bmap;
  (* --- rewrite the original function --- *)
  let niters, env_ptr = Parutil.enter c ~ph env live_slots in
  Parutil.launch c ~ph ~env_ptr (List.init ncores (fun _ -> task));
  let combined = Parutil.combine_reductions c ~ph env ~env_ptr reds ~ncores in
  Parutil.rejoin n m c ~ph ~label:"doall.join"
    (combined @ Parutil.iv_finals c ~ph ~niters ivs);
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
