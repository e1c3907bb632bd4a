(** DSWP — Decoupled Software Pipelining (§3, [43]).

    Partitions the SCCs of the loop's aSCCDAG into pipeline stages; all
    dynamic instances of a given SCC execute on the same core, creating
    unidirectional core-to-core communication.  Each stage is a Task with
    a replicated loop skeleton (the induction-variable SCCs and the loop
    control are duplicated into every stage, as in the original DSWP);
    cross-stage register dependences become queue push/pop pairs; cross-
    stage memory dependences are ordered with token queues.

    Sequential SCCs — the recurrences DOALL cannot touch — stay intact
    inside one stage, which is DSWP's strength: no speculation, no
    reassociation, just decoupling. *)

open Ir
open Noelle

type stage = {
  index : int;
  sccs : Sccdag.scc list;
  weight : float;
}

type plan = {
  c : Parutil.candidate;
  ivs : Indvars.t list;
  stages : stage list;
  replicated : int list;        (** instruction ids cloned into every stage *)
}

type stats = {
  loop_id : string;
  nstages : int;
  nqueues : int;
}

(** The loop's in-loop CFG must be a linear chain (no in-loop branching
    besides the header's exit test): every non-header block has exactly
    one successor. *)
let linear_body (c : Parutil.candidate) =
  let f = c.Parutil.f in
  let ls = c.Parutil.ls in
  List.for_all
    (fun b ->
      b = ls.Loopstructure.header
      ||
      match Func.successors f b with
      | [ _ ] -> true
      | _ -> false)
    ls.Loopstructure.blocks

(** Dynamic weight of an SCC: executed instructions per its blocks. *)
let scc_weight (m : Irmod.t) (f : Func.t) (s : Sccdag.scc) =
  List.fold_left
    (fun acc id ->
      let i = Func.inst f id in
      let blk = i.Instr.parent in
      acc
      +.
      if Profiler.available m then
        Int64.to_float (Profiler.block_count m f blk)
      else 1.0)
    0.0 s.Sccdag.members

let plan_of (m : Irmod.t) (c : Parutil.candidate) ~(max_stages : int) :
    (plan, string) result =
  if not (linear_body c) then Error "loop body is not a linear chain"
  else begin
    let f = c.Parutil.f in
    let ivs = c.Parutil.ascc.Ascc.ivs in
    let iv_insts = List.concat_map (fun (iv : Indvars.t) -> iv.Indvars.scc) ivs in
    (* replicated: IV SCCs + all terminators *)
    let terminators =
      List.filter_map
        (fun (i : Instr.inst) -> if Instr.is_terminator i then Some i.Instr.id else None)
        (Loopstructure.insts c.Parutil.ls)
    in
    let replicated = List.sort_uniq compare (iv_insts @ terminators) in
    let assignable =
      List.filter
        (fun (s : Sccdag.scc) ->
          not (List.for_all (fun id -> List.mem id replicated) s.Sccdag.members))
        (Sccdag.topological c.Parutil.ascc.Ascc.dag)
    in
    if List.length assignable < 2 then Error "fewer than two assignable SCCs"
    else begin
      let weights = List.map (fun s -> scc_weight m f s) assignable in
      let total = List.fold_left ( +. ) 0.0 weights in
      if total <= 0.0 then Error "no dynamic weight information"
      else begin
        (* greedy contiguous partition into k stages; pick the k with the
           lightest bottleneck stage *)
        let partition k =
          let target = total /. float_of_int k in
          let stages = ref [] and cur = ref [] and curw = ref 0.0 in
          List.iteri
            (fun i s ->
              let w = List.nth weights i in
              if !curw > 0.0 && !curw +. (w /. 2.0) > target
                 && List.length !stages < k - 1
              then begin
                stages := (List.rev !cur, !curw) :: !stages;
                cur := [ s ];
                curw := w
              end
              else begin
                cur := s :: !cur;
                curw := !curw +. w
              end)
            assignable;
          if !cur <> [] then stages := (List.rev !cur, !curw) :: !stages;
          List.rev !stages
        in
        let candidates =
          List.filter_map
            (fun k ->
              if k > List.length assignable then None
              else
                let p = partition k in
                if List.length p < 2 then None
                else
                  let bottleneck =
                    List.fold_left (fun acc (_, w) -> Float.max acc w) 0.0 p
                  in
                  Some (p, bottleneck))
            (List.init (max_stages - 1) (fun i -> i + 2))
        in
        match candidates with
        | [] -> Error "no viable stage partition"
        | _ ->
          let best, bw =
            List.fold_left
              (fun (bp, bw) (p, w) -> if w < bw then (p, w) else (bp, bw))
              (fst (List.hd candidates), snd (List.hd candidates))
              (List.tl candidates)
          in
          if bw > 0.85 *. total then
            Error "pipeline too imbalanced to be profitable"
          else begin
            (* account for the per-iteration queue traffic the partition
               would create: ~10 cycles per crossing value per iteration *)
            let owner = Hashtbl.create 64 in
            List.iteri
              (fun idx (sccs, _) ->
                List.iter
                  (fun (s : Sccdag.scc) ->
                    List.iter
                      (fun id ->
                        if not (List.mem id replicated) then
                          Hashtbl.replace owner id idx)
                      s.Sccdag.members)
                  sccs)
              best;
            let crossings = Hashtbl.create 16 in
            (* stages pop after the header, so a header instruction cannot
               consume another stage's value *)
            let header_pop = ref false in
            List.iter
              (fun (i : Instr.inst) ->
                match Hashtbl.find_opt owner i.Instr.id with
                | None -> ()
                | Some si ->
                  List.iter
                    (function
                      | Instr.Reg r -> (
                        match Hashtbl.find_opt owner r with
                        | Some sp when sp <> si ->
                          Hashtbl.replace crossings (r, si) ();
                          if i.Instr.parent = c.Parutil.ls.Loopstructure.header
                          then header_pop := true
                        | _ -> ())
                      | _ -> ())
                    (Instr.operands i.Instr.op))
              (Loopstructure.insts c.Parutil.ls);
            let iters =
              if Profiler.available m then
                Int64.to_float (Profiler.loop_iterations m c.Parutil.ls)
              else
                let static = List.length (Loopstructure.insts c.Parutil.ls) in
                total /. float_of_int (max 1 static)
            in
            let queue_overhead =
              3.0 *. float_of_int (Hashtbl.length crossings + 1) *. iters
            in
            if !header_pop then
              Error "a header instruction consumes another stage's value"
            else if bw +. queue_overhead > total then
              Error "queue traffic would eat the pipeline gain"
            else
              Ok
                {
                  c;
                  ivs;
                  stages =
                    List.mapi
                      (fun index (sccs, weight) -> { index; sccs; weight })
                      best;
                  replicated;
                }
          end
      end
    end
  end

(* ------------------------------------------------------------------ *)
(* Transformation                                                      *)
(* ------------------------------------------------------------------ *)

let transform (n : Noelle.t) (m : Irmod.t) (plan : plan) : stats =
  let { c; ivs; stages; replicated } = plan in
  let f = c.Parutil.f in
  let ls = c.Parutil.ls in
  Noelle.loop_builder n;
  Noelle.environment n;
  Noelle.task n;
  Noelle.iv_stepper n;
  ignore (Noelle.arch n);
  let nstages = List.length stages in
  let ph = Loopbuilder.ensure_preheader f ls.Loopstructure.raw in
  let header = ls.Loopstructure.header in
  let latch = List.hd ls.Loopstructure.latches in
  (* ownership map: inst id -> stage index (replicated insts absent) *)
  let owner : (int, int) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun st ->
      List.iter
        (fun (s : Sccdag.scc) ->
          List.iter (fun id -> Hashtbl.replace owner id st.index) s.Sccdag.members)
        st.sccs)
    stages;
  let stage_of id =
    if List.mem id replicated then None else Hashtbl.find_opt owner id
  in
  (* cross-stage register dependences: producer inst -> consumer stages *)
  let reg_cross : (int * int, unit) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun (i : Instr.inst) ->
      match stage_of i.Instr.id with
      | None -> ()
      | Some si ->
        List.iter
          (function
            | Instr.Reg r -> (
              match stage_of r with
              | Some sp when sp <> si -> Hashtbl.replace reg_cross (r, si) ()
              | _ -> ())
            | _ -> ())
          (Instr.operands i.Instr.op))
    (Loopstructure.insts ls);
  let reg_queues =
    Hashtbl.fold (fun k () acc -> k :: acc) reg_cross [] |> List.sort compare
  in
  (* cross-stage memory orderings: SCCDAG edges of memory kind *)
  let mem_cross : (int * int, unit) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (e : Depgraph.edge) ->
      match e.Depgraph.kind with
      | Depgraph.Memory _ -> (
        match (stage_of e.Depgraph.esrc, stage_of e.Depgraph.edst) with
        | Some a, Some b when a <> b ->
          let lo = min a b and hi = max a b in
          Hashtbl.replace mem_cross (lo, hi) ()
        | _ -> ())
      | _ -> ())
    (Depgraph.edges (Loop.dep_graph c.Parutil.lp).Pdg.ldg);
  let tok_queues =
    Hashtbl.fold (fun k () acc -> k :: acc) mem_cross [] |> List.sort compare
  in
  (* live-outs: IV phis are analytic; everything else is stored per
     iteration into an env slot by its owning stage *)
  let iv_phi_ids = List.map (fun (iv : Indvars.t) -> iv.Indvars.phi.Instr.id) ivs in
  let stored_outs =
    List.filter (fun r -> not (List.mem r iv_phi_ids)) c.Parutil.live_out_regs
  in
  (* env layout: live-ins ++ queue handles ++ token handles ++ out slots *)
  let extra =
    List.map (fun (p, s) -> (Printf.sprintf "q.%d.%d" p s, Ty.I64)) reg_queues
    @ List.map (fun (a, b) -> (Printf.sprintf "tok.%d.%d" a b, Ty.I64)) tok_queues
    @ List.map
        (fun r -> (Printf.sprintf "out.%d" r, (Func.inst f r).Instr.ty))
        stored_outs
  in
  let env, live_slots, extra_slots = Parutil.build_env c ~extra in
  let slot name = List.assoc name extra_slots in
  let tname_base =
    Printf.sprintf "%s.dswp.%s" f.Func.fname (Func.block f header).Func.label
  in
  (* --- per-stage task generation --- *)
  List.iter
    (fun st ->
      let tname = Printf.sprintf "%s.s%d" tname_base st.index in
      let task, entry =
        Task.create m ~name:tname ~env ~origin:(Printf.sprintf "DSWP stage %d" st.index)
      in
      let tf = task.Task.tfunc in
      let env_ptr = Task.env_arg in
      let subst_pairs =
        Parutil.emit_live_in_loads f tf entry.Func.bid live_slots ~env_ptr
      in
      (* load the queue handles this stage touches *)
      let qh : (int * int, Instr.value) Hashtbl.t = Hashtbl.create 8 in
      List.iter
        (fun (p, s) ->
          if s = st.index || stage_of p = Some st.index then
            qh |> fun t ->
            Hashtbl.replace t (p, s)
              (Env.emit_load tf entry.Func.bid ~env_ptr
                 ~index:(slot (Printf.sprintf "q.%d.%d" p s))
                 Ty.I64))
        reg_queues;
      let tokh : (int * int, Instr.value) Hashtbl.t = Hashtbl.create 8 in
      List.iter
        (fun (a, b) ->
          if a = st.index || b = st.index then
            Hashtbl.replace tokh (a, b)
              (Env.emit_load tf entry.Func.bid ~env_ptr
                 ~index:(slot (Printf.sprintf "tok.%d.%d" a b))
                 Ty.I64))
        tok_queues;
      let done_blk = Builder.add_block tf ~label:"done" in
      let bmap, imap =
        Loopbuilder.clone_blocks ~src:f ~blocks:ls.Loopstructure.blocks ~dst:tf
          ~map_value:(Parutil.subst_of subst_pairs)
          ~entry_from:entry.Func.bid
          ~exit_to:(fun _ -> done_blk.Func.bid)
      in
      let cbody = Hashtbl.find bmap c.Parutil.body_entry in
      let clatch = Hashtbl.find bmap latch in
      (* a dedicated comm block between header and body keeps insertion
         simple: pops happen there, in deterministic order *)
      let comm = Builder.add_block tf ~label:"dswp.pop" in
      Builder.redirect tf (Hashtbl.find bmap header) ~old_succ:cbody
        ~new_succ:comm.Func.bid;
      ignore (Builder.set_term tf comm.Func.bid (Instr.Br cbody));
      (* token pops: before the body *)
      List.iter
        (fun (a, b) ->
          if b = st.index then
            ignore
              (Builder.add tf comm.Func.bid
                 (Instr.Call (Instr.Glob "q_pop", [ Hashtbl.find tokh (a, b) ]))
                 Ty.I64))
        tok_queues;
      (* value pops *)
      let popped : (int, Instr.value) Hashtbl.t = Hashtbl.create 8 in
      List.iter
        (fun (p, s) ->
          if s = st.index then begin
            let ty = (Func.inst f p).Instr.ty in
            let fn = if Ty.equal ty Ty.F64 then "q_pop_f" else "q_pop" in
            let v =
              Builder.add tf comm.Func.bid
                (Instr.Call (Instr.Glob fn, [ Hashtbl.find qh (p, s) ]))
                ty
            in
            Hashtbl.replace popped p (Instr.Reg v.Instr.id)
          end)
        reg_queues;
      (* value pushes: at the end of the producing block *)
      List.iter
        (fun (p, s) ->
          if stage_of p = Some st.index then begin
            let ci = Hashtbl.find imap p in
            let cinst = Func.inst tf ci in
            let ty = cinst.Instr.ty in
            let fn = if Ty.equal ty Ty.F64 then "q_push_f" else "q_push" in
            (match Func.terminator tf cinst.Instr.parent with
            | Some t ->
              ignore
                (Builder.insert_before tf ~before:t.Instr.id
                   (Instr.Call (Instr.Glob fn, [ Hashtbl.find qh (p, s); Instr.Reg ci ]))
                   Ty.Void)
            | None -> ())
          end)
        reg_queues;
      (* token pushes: end of the latch *)
      List.iter
        (fun (a, b) ->
          if a = st.index then
            match Func.terminator tf clatch with
            | Some t ->
              ignore
                (Builder.insert_before tf ~before:t.Instr.id
                   (Instr.Call
                      (Instr.Glob "q_push", [ Hashtbl.find tokh (a, b); Instr.Cint 0L ]))
                   Ty.Void)
            | None -> ())
        tok_queues;
      (* per-iteration stores of this stage's live-outs *)
      List.iter
        (fun r ->
          if stage_of r = Some st.index then begin
            (* a header phi is stored as-is from the header: the header
               executes once more than the body, so the last store is
               exactly the phi's exit value; a body value is stored after
               each production, leaving the final iteration's value *)
            let ci = Hashtbl.find imap r in
            let cinst = Func.inst tf ci in
            match Func.terminator tf cinst.Instr.parent with
            | Some t ->
              let addr =
                Builder.insert_before tf ~before:t.Instr.id
                  (Instr.Gep
                     (env_ptr, Instr.Cint (Int64.of_int (slot (Printf.sprintf "out.%d" r)))))
                  Ty.Ptr
              in
              ignore
                (Builder.insert_before tf ~before:t.Instr.id
                   (Instr.Store (Instr.Reg ci, Instr.Reg addr.Instr.id))
                   Ty.Void)
            | None -> ()
          end)
        stored_outs;
      (* delete instructions owned by other stages *)
      let deleted = ref [] in
      List.iter
        (fun (i : Instr.inst) ->
          match stage_of i.Instr.id with
          | Some s when s <> st.index -> deleted := i.Instr.id :: !deleted
          | _ -> ())
        (Loopstructure.insts ls);
      (* first replace uses of deleted producers with popped values *)
      List.iter
        (fun p ->
          match Hashtbl.find_opt popped p with
          | Some v ->
            let ci = Hashtbl.find imap p in
            Builder.replace_uses tf ~old:ci ~by:v
          | None -> ())
        !deleted;
      (* clear operands to break mutual references, then remove *)
      List.iter
        (fun p ->
          let ci = Hashtbl.find imap p in
          (Func.inst tf ci).Instr.op <- Instr.Phi [])
        !deleted;
      List.iter (fun p -> Builder.remove tf (Hashtbl.find imap p)) !deleted;
      ignore (Builder.set_term tf entry.Func.bid (Instr.Br (Hashtbl.find bmap header)));
      ignore (Builder.set_term tf done_blk.Func.bid (Instr.Ret None)))
    stages;
  (* --- main rewrite --- *)
  let start = c.Parutil.iv.Indvars.start in
  let bound = c.Parutil.gov.Indvars.bound in
  let niters = Parutil.emit_niters c f ph ~start ~bound in
  let env_ptr_main = Env.emit_alloc env f ph in
  List.iter
    (fun (v, idx) -> Env.emit_store f ph ~env_ptr:env_ptr_main ~index:idx v)
    live_slots;
  List.iter
    (fun (name, idx) ->
      if String.length name > 1 && (name.[0] = 'q' || name.[0] = 't') then begin
        let q = Builder.add f ph (Instr.Call (Instr.Glob "q_new", [])) Ty.I64 in
        Env.emit_store f ph ~env_ptr:env_ptr_main ~index:idx (Instr.Reg q.Instr.id)
      end)
    extra_slots;
  List.iteri
    (fun k _ ->
      let tname = Printf.sprintf "%s.s%d" tname_base k in
      ignore tname;
      ignore
        (Builder.add f ph
           (Instr.Call
              (Instr.Glob "task_submit",
               [ Instr.Glob (Printf.sprintf "%s.s%d" tname_base k);
                 Instr.Cint (Int64.of_int k);
                 Instr.Cint (Int64.of_int nstages);
                 env_ptr_main ]))
           Ty.Void))
    stages;
  ignore (Builder.add f ph (Instr.Call (Instr.Glob "tasks_run", [])) Ty.Void);
  let out_finals =
    List.map
      (fun r ->
        let v =
          Env.emit_load f ph ~env_ptr:env_ptr_main
            ~index:(slot (Printf.sprintf "out.%d" r))
            (Func.inst f r).Instr.ty
        in
        (r, v))
      stored_outs
  in
  let iv_finals =
    List.map
      (fun (iv : Indvars.t) ->
        let extent =
          Builder.add f ph (Instr.Bin (Instr.Mul, niters, iv.Indvars.step)) Ty.I64
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
    match List.assoc_opt r out_finals with
    | Some v -> v
    | None -> (
      match List.assoc_opt r iv_finals with
      | Some v -> v
      | None -> Instr.Cint 0L)
  in
  let join = Builder.add_block f ~label:"dswp.join" in
  Parutil.replace_loop c ~ph ~join_bid:join.Func.bid ~map_live_out;
  Task.declare_runtime m;
  Noelle.invalidate n;
  {
    loop_id = tname_base;
    nstages;
    nqueues = List.length reg_queues + List.length tok_queues;
  }

(** Run DSWP over the hottest eligible loops. *)
let run (n : Noelle.t) (m : Irmod.t) ?(max_stages = 3) ?(min_hotness = 0.05)
    ?(min_work = 20000.0) ?(profile_free = false)
    ?(skip = fun (_ : string) -> false) () :
    (string * (stats, string) result) list =
  Noelle.set_tool n "DSWP";
  let results = ref [] in
  let attempted : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let progress = ref true in
  while !progress do
    progress := false;
    List.iter
      (fun (f : Func.t) ->
        if not (String.contains f.Func.fname '.') then begin
          Noelle.profiler n;
          let selected lp =
            if profile_free then
              Parutil.profitable_static n f (Loop.structure lp) ~min_work
            else Parutil.profitable m (Loop.structure lp) ~min_hotness ~min_work
          in
          let eligible =
            List.filter
              (fun lp ->
                (not (Hashtbl.mem attempted (Loop.id lp))) && selected lp)
              (Noelle.loops n f)
            |> List.sort
                 (fun a b ->
                   compare
                     (Loop.structure a).Loopstructure.depth
                     (Loop.structure b).Loopstructure.depth)
          in
          let rec try_loops = function
            | [] -> ()
            | lp :: rest -> (
              let id = Loop.id lp in
              Hashtbl.replace attempted id ();
              if skip id then begin
                results := (id, Error "skipped: loop flagged by race detector") :: !results;
                try_loops rest
              end
              else
              match Parutil.candidate_of n f lp with
              | Error e ->
                results := (id, Error e) :: !results;
                try_loops rest
              | Ok c -> (
                match plan_of m c ~max_stages with
                | Error e ->
                  results := (id, Error e) :: !results;
                  try_loops rest
                | Ok plan ->
                  let s = transform n m plan in
                  results := (id, Ok s) :: !results;
                  progress := true))
          in
          try_loops eligible
        end)
      (Irmod.defined_functions m)
  done;
  List.rev !results
