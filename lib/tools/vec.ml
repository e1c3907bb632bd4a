(** Predicated loop vectorization (ROADMAP item 2, DESIGN.md §16).

    A fourth technique lane next to DOALL/HELIX/DSWP: instead of
    distributing iterations across cores, execute them in lane groups of
    W.  Legality reuses the DOALL core — every aSCCDAG SCC must be
    Independent, an induction variable, or a reduction, with no
    cross-SCC loop-carried dependence — because a lane group is just W
    consecutive iterations with no intervening exit test.  Divergent
    bodies are first linearized by {!Ir.Ifconv} (select-chain
    predication with address-masked side effects), which is what lets
    control-divergent kernels vectorize at all.

    The emitted code is ordinary scalar IR shaped like vector code: a
    widened loop runs [trip / W] groups of W if-converted lane bodies
    (lane l's induction value is [start + (cnt+l)*step], computed
    up front as a vector of lane offsets), and the original loop is kept
    as the scalar epilogue for the [trip mod W] leftover.  Lanes execute
    in iteration order inside a group, so the transform is
    observable-trace *exact*: the {!Ir.Obs} gate validates it under any
    license, reductions stay bit-identical (no reassociation), and the
    interpreter needs no vector semantics.  The SIMD *speedup* is
    modeled by {!Psim.Models.vec_time} from the per-loop shape this
    module reports in {!stats} (width, divergence, strides, epilogue). *)

open Ir
open Noelle

type plan = {
  c : Parutil.candidate;
  ivs : Indvars.t list;         (** every induction variable, governing first *)
  reds : Reduction.t list;
  body_blocks : int list;       (** loop blocks minus the header *)
  needs_merge : bool;           (** body spans several blocks *)
  divergent : bool;             (** body contains a conditional branch *)
}

type stats = {
  loop_id : string;
  width : int;                  (** lane-group factor W *)
  if_converted : bool;          (** body was divergent and got predicated *)
  selects : int;                (** merge phis folded to selects *)
  masked : int;                 (** memory operands / divisors masked *)
  divergence : float;           (** fraction of body insts under a predicate *)
  trip : int option;            (** static trip count, when Bounds proves one *)
  body_cost : float;            (** instructions per iteration *)
  strided_mem_ops : int;        (** memory ops with non-unit SCEV stride *)
  stride : int;                 (** worst element stride among them *)
  header : int;                 (** original header block id *)
}

let counters =
  [ "vec.loops_considered"; "vec.vectorized"; "vec.if_converted";
    "vec.rejected" ]

(** Check whether the candidate loop is vectorizable and build the plan.
    Same legality core as {!Doall.plan_of}, plus: no inner loops, a
    single latch, every header phi accounted for by an IV or a
    reduction (lane cloning replaces them all), and a body that is
    either a single block or if-convertible per {!Ir.Ifconv.check}. *)
let plan_of (c : Parutil.candidate) : (plan, string) result =
  let f = c.Parutil.f and ls = c.Parutil.ls in
  let header = ls.Loopstructure.header in
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
  let reds = List.rev !reds in
  match !bad with
  | Some msg -> Error msg
  | None when Ascc.has_cross_carried c.Parutil.ascc ->
    Error
      (Printf.sprintf "%d loop-carried dependences cross SCCs"
         (List.length c.Parutil.ascc.Ascc.cross_carried))
  | None when ls.Loopstructure.raw.Loopnest.children <> [] ->
    Error "loop contains an inner loop"
  | None -> (
    match ls.Loopstructure.latches with
    | [ _ ] -> (
      (* lane cloning rewrites every loop-carried phi to a lane value or
         a running accumulator, so each must be an IV or a reduction *)
      let known_phi (i : Instr.inst) =
        List.exists (fun (iv : Indvars.t) -> iv.Indvars.phi.Instr.id = i.Instr.id) ivs
        || List.exists
             (fun (rd : Reduction.t) -> rd.Reduction.phi.Instr.id = i.Instr.id)
             reds
      in
      match
        List.find_opt
          (fun (i : Instr.inst) -> not (known_phi i))
          (Loopstructure.header_phis ls)
      with
      | Some i ->
        Error (Printf.sprintf "header phi %%%d is neither an IV nor a reduction"
                 i.Instr.id)
      | None -> (
        let ok_out r =
          List.exists (fun (iv : Indvars.t) -> iv.Indvars.phi.Instr.id = r) ivs
          || List.exists
               (fun (rd : Reduction.t) -> rd.Reduction.phi.Instr.id = r)
               reds
        in
        match
          List.find_opt (fun r -> not (ok_out r)) c.Parutil.live_out_regs
        with
        | Some r ->
          Error (Printf.sprintf "live-out %%%d is neither an IV nor a reduction" r)
        | None -> (
          let body_blocks =
            List.filter (fun b -> b <> header) ls.Loopstructure.blocks
          in
          let divergent =
            List.exists
              (fun b ->
                match Func.terminator f b with
                | Some { Instr.op = Instr.Cbr _; _ } -> true
                | _ -> false)
              body_blocks
          in
          let needs_merge = List.length body_blocks > 1 in
          let plan =
            { c; ivs; reds; body_blocks; needs_merge; divergent }
          in
          if not needs_merge then Ok plan
          else
            match
              Ifconv.check f ~entry:c.Parutil.body_entry ~blocks:body_blocks
                ~exit_bid:header
            with
            | Ok _ -> Ok plan
            | Error e -> Error ("not if-convertible: " ^ e))))
    | latches ->
      Error (Printf.sprintf "loop has %d latches" (List.length latches)))

(** Memory-access shape for the cost model: how many loads/stores have a
    non-unit element stride w.r.t. the governing IV (gather/scatter
    candidates), and the worst such stride.  Unanalyzable addresses are
    charged as worst-case gathers. *)
let mem_profile (c : Parutil.candidate) =
  let f = c.Parutil.f in
  let raw = c.Parutil.ls.Loopstructure.raw in
  let ivp = c.Parutil.iv.Bounds.cphi.Instr.id in
  let smo = ref 0 and stride = ref 1 in
  List.iter
    (fun b ->
      List.iter
        (fun (i : Instr.inst) ->
          let addr =
            match i.Instr.op with
            | Instr.Load p -> Some p
            | Instr.Store (_, p) -> Some p
            | _ -> None
          in
          match addr with
          | None -> ()
          | Some p -> (
            match Scev.affine_of f raw ~iv_phi:ivp p with
            | Some a ->
              let sc = Int64.abs a.Scev.scale in
              if Int64.compare sc 1L > 0 then begin
                incr smo;
                stride := max !stride (Int64.to_int (Int64.min sc 64L))
              end
            | None ->
              incr smo;
              stride := max !stride 8))
        (Func.insts_of_block f b))
    c.Parutil.ls.Loopstructure.blocks;
  (!smo, !stride)

let body_has_float (c : Parutil.candidate) =
  List.exists
    (fun (i : Instr.inst) ->
      match i.Instr.op with
      | Instr.Fbin _ | Instr.Fcmp _ -> true
      | _ -> false)
    (Loopstructure.insts c.Parutil.ls)

(** Apply the transformation.  The body is first linearized in place
    (shared with the epilogue), then W lane clones are chained serially
    inside a widened loop that runs [trip / W] groups; the original loop
    remains as the scalar epilogue.  Returns statistics on success. *)
let transform (n : Noelle.t) (m : Irmod.t) (plan : plan) ~(width : int)
    ~(trip : int option) ~(body_cost : float) ~(strided_mem_ops : int)
    ~(stride : int) : stats =
  let { c; ivs; reds; body_blocks; needs_merge; divergent = _ } = plan in
  let f = c.Parutil.f and ls = c.Parutil.ls in
  let header = ls.Loopstructure.header in
  Noelle.loop_builder n;
  Noelle.iv_stepper n;
  if reds <> [] then ignore (Noelle.reductions n c.Parutil.lp);
  ignore (Noelle.invariants n c.Parutil.lp);
  let ph = Loopbuilder.ensure_preheader f ls.Loopstructure.raw in
  (* if-convert the body in place first: the epilogue (the original
     loop, kept for [trip mod W]) shares the linearized body, so both
     the widened lanes and the leftover iterations run identical code *)
  let ifc =
    if not needs_merge then None
    else begin
      (* typed scratch slots for address-masked lanes; allocated once at
         function entry and never escaping, so masked-off stores stay
         invisible to the Obs oracle *)
      let fentry = Func.entry f in
      let si =
        Builder.add f fentry (Instr.Alloca (Instr.Cint 1L)) Ty.Ptr
      in
      let sf =
        Builder.add f fentry (Instr.Alloca (Instr.Cint 1L)) Ty.Ptr
      in
      ignore
        (Builder.add f fentry
           (Instr.Store (Instr.Cint 0L, Instr.Reg si.Instr.id)) Ty.Void);
      ignore
        (Builder.add f fentry
           (Instr.Store (Instr.Cfloat 0.0, Instr.Reg sf.Instr.id)) Ty.Void);
      match
        Ifconv.run f ~entry:c.Parutil.body_entry ~blocks:body_blocks
          ~exit_bid:header ~scratch_i:(Instr.Reg si.Instr.id)
          ~scratch_f:(Instr.Reg sf.Instr.id)
      with
      | Ok r -> Some r
      | Error e -> failwith ("Vec.transform: if-conversion failed: " ^ e)
    end
  in
  let body = c.Parutil.body_entry in
  (* widened trip counts, in the preheader *)
  let niters = Parutil.emit_niters c ph in
  let w64 = Int64.of_int width in
  let groups =
    Builder.add f ph (Instr.Bin (Instr.Sdiv, niters, Instr.Cint w64)) Ty.I64
  in
  let viters_i =
    Builder.add f ph
      (Instr.Bin (Instr.Mul, Instr.Reg groups.Instr.id, Instr.Cint w64))
      Ty.I64
  in
  let viters = Instr.Reg viters_i.Instr.id in
  (* closed-form IV values on entry to the epilogue: start + viters*step *)
  let iv_fin =
    List.map
      (fun (iv : Indvars.t) ->
        let ext =
          Builder.add f ph (Instr.Bin (Instr.Mul, viters, iv.Indvars.step))
            Ty.I64
        in
        let fin =
          Builder.add f ph
            (Instr.Bin (Instr.Add, iv.Indvars.start, Instr.Reg ext.Instr.id))
            Ty.I64
        in
        (iv.Indvars.phi.Instr.id, Instr.Reg fin.Instr.id))
      ivs
  in
  let hlabel = (Func.block f header).Func.label in
  let vheader =
    Builder.add_block f ~label:(Printf.sprintf "vec.%s.header" hlabel)
  in
  let glatch =
    Builder.add_block f ~label:(Printf.sprintf "vec.%s.latch" hlabel)
  in
  let vexit =
    Builder.add_block f ~label:(Printf.sprintf "vec.%s.exit" hlabel)
  in
  let cnt = Builder.insert_front f vheader.Func.bid (Instr.Phi []) Ty.I64 in
  let raccs =
    List.map
      (fun (rd : Reduction.t) ->
        ( rd,
          Builder.insert_front f vheader.Func.bid (Instr.Phi [])
            (Reduction.value_ty rd.Reduction.kind) ))
      reds
  in
  (* the lane-offset vector: per-lane IV values for the whole group,
     computed up front in the widened header *)
  let lane_iv =
    Array.init width (fun l ->
        let off =
          Builder.add f vheader.Func.bid
            (Instr.Bin
               (Instr.Add, Instr.Reg cnt.Instr.id, Instr.Cint (Int64.of_int l)))
            Ty.I64
        in
        List.map
          (fun (iv : Indvars.t) ->
            let s =
              Builder.add f vheader.Func.bid
                (Instr.Bin (Instr.Mul, Instr.Reg off.Instr.id, iv.Indvars.step))
                Ty.I64
            in
            let v =
              Builder.add f vheader.Func.bid
                (Instr.Bin (Instr.Add, iv.Indvars.start, Instr.Reg s.Instr.id))
                Ty.I64
            in
            (iv.Indvars.phi.Instr.id, Instr.Reg v.Instr.id))
          ivs)
  in
  let vcmp =
    Builder.add f vheader.Func.bid
      (Instr.Icmp (Instr.Slt, Instr.Reg cnt.Instr.id, viters))
      Ty.I64
  in
  (* the reduction phis' latch-incoming values, to be remapped per lane *)
  let red_next =
    List.map
      (fun (rd : Reduction.t) ->
        let inc =
          match rd.Reduction.phi.Instr.op with
          | Instr.Phi incs -> (
            match List.assoc_opt body incs with
            | Some v -> v
            | None -> Instr.Reg rd.Reduction.phi.Instr.id)
          | _ -> Instr.Reg rd.Reduction.phi.Instr.id
        in
        (rd.Reduction.phi.Instr.id, inc))
      reds
  in
  let loop_blocks = [ header; body ] in
  let lanes =
    Array.init width (fun _ ->
        Loopbuilder.clone_blocks ~src:f ~blocks:loop_blocks ~dst:f
          ~map_value:(fun v -> v)
          ~entry_from:vheader.Func.bid
          ~exit_to:(fun _ -> vexit.Func.bid))
  in
  let red_carry =
    ref
      (List.map
         (fun (rd, (racc : Instr.inst)) ->
           (rd.Reduction.phi.Instr.id, Instr.Reg racc.Instr.id))
         raccs)
  in
  Array.iteri
    (fun l (bmap, imap) ->
      let ch = Hashtbl.find bmap header and cb = Hashtbl.find bmap body in
      (* the group bound already proves every lane's governing test, so
         lanes are entered unconditionally; the dead test is DCE'd *)
      Builder.replace_term f ch (Instr.Br cb);
      (if l = 0 then
         Builder.set_term f vheader.Func.bid
           (Instr.Cbr (Instr.Reg vcmp.Instr.id, ch, vexit.Func.bid))
         |> ignore
       else
         let pb, _ = lanes.(l - 1) in
         Builder.replace_term f (Hashtbl.find pb body) (Instr.Br ch));
      (* IV phis become precomputed lane values *)
      List.iter
        (fun (phi_id, v) ->
          let cid = Hashtbl.find imap phi_id in
          Builder.replace_uses f ~old:cid ~by:v;
          Builder.remove f cid)
        lane_iv.(l);
      (* reduction phis chain lane-serially through the mapped updates:
         same association order as the scalar loop, so float
         accumulators stay bit-identical *)
      let carry' =
        List.map
          (fun (rd : Reduction.t) ->
            let phi_id = rd.Reduction.phi.Instr.id in
            let cid = Hashtbl.find imap phi_id in
            Builder.replace_uses f ~old:cid ~by:(List.assoc phi_id !red_carry);
            Builder.remove f cid;
            let next =
              match List.assoc phi_id red_next with
              | Instr.Reg r -> (
                match Hashtbl.find_opt imap r with
                | Some r' -> Instr.Reg r'
                | None -> Instr.Reg r)
              | v -> v
            in
            (phi_id, next))
          reds
      in
      red_carry := carry')
    lanes;
  let lb, _ = lanes.(width - 1) in
  Builder.replace_term f (Hashtbl.find lb body) (Instr.Br glatch.Func.bid);
  let cnt_next =
    Builder.add f glatch.Func.bid
      (Instr.Bin (Instr.Add, Instr.Reg cnt.Instr.id, Instr.Cint w64))
      Ty.I64
  in
  ignore (Builder.set_term f glatch.Func.bid (Instr.Br vheader.Func.bid));
  ignore (Builder.set_term f vexit.Func.bid (Instr.Br header));
  Builder.set_op f cnt
    (Instr.Phi
      [ (ph, Instr.Cint 0L); (glatch.Func.bid, Instr.Reg cnt_next.Instr.id) ]);
  List.iter
    (fun ((rd : Reduction.t), (racc : Instr.inst)) ->
      Builder.set_op f racc
        (Instr.Phi
          [ (ph, rd.Reduction.init);
            (glatch.Func.bid, List.assoc rd.Reduction.phi.Instr.id !red_carry)
          ]))
    raccs;
  (* route the preheader through the widened loop; the original loop
     becomes the epilogue, entered with post-widened IV and accumulator
     values *)
  Builder.redirect f ph ~old_succ:header ~new_succ:vheader.Func.bid;
  Builder.rewrite_phi_pred f header ~old_pred:ph ~new_pred:vexit.Func.bid;
  List.iter
    (fun (i : Instr.inst) ->
      match i.Instr.op with
      | Instr.Phi incs -> (
        let repl =
          match List.assoc_opt i.Instr.id iv_fin with
          | Some v -> Some v
          | None -> (
            match
              List.find_opt
                (fun ((rd : Reduction.t), _) ->
                  rd.Reduction.phi.Instr.id = i.Instr.id)
                raccs
            with
            | Some (_, racc) -> Some (Instr.Reg racc.Instr.id)
            | None -> None)
        in
        match repl with
        | Some v ->
          Builder.set_op f i
            (Instr.Phi
              (List.map
                 (fun (p, x) -> if p = vexit.Func.bid then (p, v) else (p, x))
                 incs))
        | None -> ())
      | _ -> ())
    (Func.insts_of_block f header);
  ignore (Builder.dce f);
  Task.declare_runtime m;
  Noelle.invalidate n;
  let selects, masked, divergence, if_converted =
    match ifc with
    | Some r -> (r.Ifconv.selects, r.Ifconv.masked, r.Ifconv.div_frac,
                 r.Ifconv.selects > 0 || r.Ifconv.masked > 0)
    | None -> (0, 0, 0.0, false)
  in
  {
    loop_id = Printf.sprintf "%s.vec.%s" f.Func.fname hlabel;
    width;
    if_converted;
    selects;
    masked;
    divergence;
    trip;
    body_cost;
    strided_mem_ops;
    stride;
    header;
  }

(** Model appraisal of a planned candidate: width picked from the static
    {!Bounds} trip count via {!Psim.Models.best_vec_width}, plus the
    modeled vec and DOALL times so callers can decide
    vectorize-vs-parallelize without a profile.  Shared by {!run} and the
    profile-free planner arm. *)
type appraisal = {
  a_width : int;
  a_trip : int option;
  a_body_cost : float;
  a_strided_mem_ops : int;
  a_stride : int;
  a_divergence : float;
  a_vec_time : float;
  a_doall_time : float;
}

let appraise (n : Noelle.t) (c : Parutil.candidate) (plan : plan)
    ?(ncores = 12) ?(params = Psim.Models.default_vec_params) () : appraisal =
  let f = c.Parutil.f in
  let ls = c.Parutil.ls in
  let s = Noelle.bounds n f in
  let trip =
    match Bounds.find s ~header:ls.Loopstructure.header with
    | Some lb -> Option.map Int64.to_int (Bounds.trip_const lb.Bounds.liters)
    | None -> None
  in
  let body_cost = float_of_int (Loopstructure.size ls) in
  let strided_mem_ops, stride = mem_profile c in
  let divergence = if plan.divergent then 0.25 else 0.0 in
  (* f32-narrowable float bodies get twice the lanes of 64-bit element
     bodies on the modeled 512-bit unit *)
  let max_width = if body_has_float c then 16 else 8 in
  let width =
    Psim.Models.best_vec_width params ~max_width ~iters:trip ~work:body_cost
      ~divergence ~strided_mem_ops ~stride
  in
  let iters = float_of_int (Option.value trip ~default:100_000) in
  {
    a_width = width;
    a_trip = trip;
    a_body_cost = body_cost;
    a_strided_mem_ops = strided_mem_ops;
    a_stride = stride;
    a_divergence = divergence;
    a_vec_time =
      Psim.Models.vec_time { params with width } ~iters ~work:body_cost
        ~divergence ~strided_mem_ops ~stride;
    a_doall_time =
      Psim.Models.doall_time
        { Psim.Models.default_params with cores = ncores }
        ~iters ~work:body_cost;
  }

(** VEC's whole decision on a candidate: the legality {!plan_of}, the
    {!appraise}al, then the arbitration — a static trip count below one
    lane group is refused, and with [only_best] so is a loop DOALL could
    take where the models say core parallelism is faster.  Shared by
    {!run} and the profile-free planner's vec arm. *)
let arbitrate (n : Noelle.t) (c : Parutil.candidate) ?ncores ?params
    ~only_best () : (plan * appraisal, string) result =
  Result.bind (plan_of c) (fun plan ->
      let a = appraise n c plan ?ncores ?params () in
      let too_small = match a.a_trip with Some t -> t < 4 | None -> false in
      let doall_preferred =
        only_best
        && Result.is_ok (Doall.plan_of c)
        && a.a_doall_time < a.a_vec_time
      in
      if too_small then Error "trip count too small to vectorize"
      else if doall_preferred then
        Error "DOALL preferred: core parallelism models faster"
      else Ok (plan, a))

(** Try to vectorize every eligible loop of each function (skipping
    generated task functions and already-widened [vec.*] regions),
    innermost first: vectorization targets leaf loops.
    [only_best] leaves a loop to DOALL when the models say core
    parallelism beats lane parallelism on it; the standalone gates and
    the bench's per-technique comparison pass [~only_best:false] to get
    a vec row for every vectorizable loop.  Returns per-loop outcomes. *)
let run (n : Noelle.t) (m : Irmod.t) ?(ncores = 12) ?(min_work = 512.0)
    ?(only_best = true) ?(params = Psim.Models.default_vec_params)
    ?(skip = fun (_ : string) -> false) () :
    (string * (stats, string) result) list =
  List.iter Trace.touch counters;
  let results =
    Parutil.drive n m ~tool:"VEC" ~skip ~innermost_first:true
      ~prelude:(fun f -> ignore (Noelle.bounds n f))
      ~select:(fun f ->
        let preds = Func.preds f in
        (* never re-enter an already-widened region: both the widened
           loop and its epilogue are reached through vec.* blocks *)
        let in_vec_region (ls : Loopstructure.t) =
          let starts_vec b =
            let s = (Func.block f b).Func.label in
            String.length s >= 4 && String.equal (String.sub s 0 4) "vec."
          in
          starts_vec ls.Loopstructure.header
          || List.exists starts_vec
               (try Hashtbl.find preds ls.Loopstructure.header
                with Not_found -> [])
        in
        fun lp ->
          let ls = Loop.structure lp in
          (not (in_vec_region ls)) && Parutil.profitable_static n f ls ~min_work)
      (fun c ->
        Result.map
          (fun (plan, a) ->
            transform n m plan ~width:a.a_width ~trip:a.a_trip
              ~body_cost:a.a_body_cost ~strided_mem_ops:a.a_strided_mem_ops
              ~stride:a.a_stride)
          (arbitrate n c ~ncores ~params ~only_best ()))
  in
  List.iter
    (fun (_, r) ->
      Trace.incr_m "vec.loops_considered";
      match r with
      | Ok (s : stats) ->
        Trace.incr_m "vec.vectorized";
        if s.if_converted then Trace.incr_m "vec.if_converted"
      | Error _ -> Trace.incr_m "vec.rejected")
    results;
  results
