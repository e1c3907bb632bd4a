(** Shared machinery of the loop transforms (DOALL / HELIX / DSWP / VEC,
    and Perspective on top of DOALL).

    Everything here is a thin composition of NOELLE abstractions: candidate
    selection reads L / aSCCDAG / IV, and plans the loop from the exit
    test {!Bounds.exit_test} reads (the one reading {!Bounds.exact_trips}
    counts), live-ins come from the PDG, the task
    bodies are produced with LB's cloning, the iteration-space changes go
    through IVS, and value forwarding uses ENV + T.  {!drive} is the one
    loop driver: it walks the module to a fixpoint, orders and filters the
    loops, applies the race-detector refusal and {!candidate_of}, and
    records every loop's outcome.  The outline-and-rewrite skeleton below
    {!emit_niters} is the one implementation of the steps DOALL, HELIX
    and DSWP share when they turn a candidate into tasks.  The
    per-technique modules only add their policy — which analyses to warm
    per function, which loops to select, in which order, how to plan a
    candidate and which IR of their own to place between the skeleton's
    steps — which is why they fit in a few hundred lines each (Table 3). *)

open Ir
open Noelle

type candidate = {
  f : Func.t;
  lp : Loop.t;
  ls : Loopstructure.t;
  ascc : Ascc.t;
  iv : Bounds.counted;           (** the governing IV: start, constant step *)
  test : Bounds.exit_test;       (** its exit test on the single exit edge *)
  exit_dst : int;
  body_entry : int;              (** unique in-loop successor of the header *)
  live_in_values : Instr.value list;
  live_out_regs : int list;
}

(** Profile-driven loop selection shared by the parallelizers: the loop
    must be hot enough, and its work per invocation must dwarf the
    thread-pool spawn/join overhead or parallelization is a loss (this is
    how PRO powers loop selection in §3). *)
let profitable (m : Irmod.t) (ls : Loopstructure.t) ~min_hotness ~min_work =
  (not (Profiler.available m))
  || (Profiler.loop_hotness m ls >= min_hotness
     &&
     let inv = Int64.to_float (Int64.max 1L (Profiler.loop_invocations m ls)) in
     Int64.to_float (Profiler.loop_insts m ls) /. inv >= min_work)

(** Profile-free loop selection (DESIGN.md §13): the same work gate as
    {!profitable}, answered from {!Bounds} static cost polynomials instead
    of the interpreter profile.  A constant-evaluable cost estimate below
    [min_work] rejects the loop; symbolic or lattice-top costs are
    optimistic — exactly mirroring how {!profitable} accepts everything
    when no profile is available.  Hotness has no static analogue, so the
    static planner plans every structurally eligible loop the work gate
    admits. *)
let profitable_static (n : Noelle.t) (f : Func.t) (ls : Loopstructure.t)
    ~min_work =
  let s = Noelle.bounds n f in
  match Bounds.find s ~header:ls.Loopstructure.header with
  | None -> true
  | Some lb -> (
    match Bounds.cost_const lb.Bounds.lcost with
    | Some w -> Int64.to_float w >= min_work
    | None -> true)

(** Profile-free DOALL chunk choice: when the static trip bound proves the
    loop runs fewer iterations than there are cores, spawning the full
    complement only buys idle tasks — clamp to the bound. *)
let static_chunk (n : Noelle.t) (f : Func.t) (ls : Loopstructure.t) ~ncores =
  let s = Noelle.bounds n f in
  match Bounds.find s ~header:ls.Loopstructure.header with
  | Some lb -> (
    match Bounds.trip_const lb.Bounds.liters with
    | Some t
      when Int64.compare t 0L > 0
           && Int64.compare t (Int64.of_int ncores) < 0 ->
      Int64.to_int t
    | _ -> ncores)
  | None -> ncores

(** Structural requirements shared by all three parallelizers: while-shaped
    loop, unique exit edge leaving from the header, governing IV with a
    constant nonzero step ({!Bounds.counted_phi}) consistent with the
    continue predicate its {!Bounds.exit_test} reads. *)
let candidate_of (n : Noelle.t) (f : Func.t) (lp : Loop.t) : (candidate, string) result =
  let ls = Loop.structure lp in
  if Loopstructure.shape ls <> Loopstructure.While_shape then
    Error "loop is not while-shaped"
  else
    match ls.Loopstructure.exit_edges with
    | [ ((src, dst) as e) ] when src = ls.Loopstructure.header -> (
      let ascc = Noelle.aSCCDAG n lp in
      match Indvars.governing_iv (Noelle.induction_variables n lp) with
      | None -> Error "no governing induction variable"
      | Some gov -> (
        let raw = ls.Loopstructure.raw in
        match
          ( Bounds.counted_phi f raw gov.Indvars.phi,
            Bounds.exit_test f raw ~phi:gov.Indvars.phi.Instr.id
              ~update:gov.Indvars.update.Instr.id e )
        with
        | Some iv, Some test -> (
          let dir_ok =
            match test.Bounds.cont with
            | Instr.Slt | Instr.Sle -> iv.Bounds.cstep > 0L
            | Instr.Sgt | Instr.Sge -> iv.Bounds.cstep < 0L
            | _ -> false
          in
          if not dir_ok then Error "exit predicate inconsistent with step direction"
          else
            match
              List.filter
                (fun s -> Loopstructure.contains ls s)
                (Func.successors f ls.Loopstructure.header)
            with
            | [ body_entry ] ->
              Ok
                {
                  f;
                  lp;
                  ls;
                  ascc;
                  iv;
                  test;
                  exit_dst = dst;
                  body_entry;
                  live_in_values = Loop.live_ins lp;
                  live_out_regs = Loop.live_outs lp;
                }
            | _ -> Error "header has multiple in-loop successors")
        | _ -> Error "step is not a nonzero constant"))
    | _ -> Error "loop must have a single exit edge leaving the header"

(** Profile-driven selection of DOALL / HELIX / DSWP: {!profitable}, or
    {!profitable_static} when [profile_free]. *)
let hot (n : Noelle.t) (m : Irmod.t) ~profile_free ~min_hotness ~min_work
    (f : Func.t) (lp : Loop.t) =
  if profile_free then profitable_static n f (Loop.structure lp) ~min_work
  else profitable m (Loop.structure lp) ~min_hotness ~min_work

(** The loop driver every transform runs under.  Transforming a loop
    mutates its function, so analyses are recomputed after every success:
    rounds over the module repeat until one transforms nothing, and a loop
    is attempted at most once (by stable id).  Outlined task functions
    (names containing ['.']) are never entered.  Per function and round,
    [prelude f] runs first, then the loops admitted by [select f] are
    tried outermost first ([~innermost_first] reverses that) until one
    transforms.  Each attempted loop yields exactly one outcome: the
    [skip] refusal, a {!candidate_of} rejection, or [attempt]'s result,
    where [Ok] means "transformed".  Outcomes are in attempt order. *)
let drive (n : Noelle.t) (m : Irmod.t) ~tool ?(prelude = fun _ -> ())
    ~(select : Func.t -> Loop.t -> bool) ?(innermost_first = false)
    ?(skip = fun (_ : string) -> false)
    (attempt : candidate -> ('s, string) result) :
    (string * ('s, string) result) list =
  Noelle.set_tool n tool;
  let results = ref [] in
  let attempted : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let depth lp = (Loop.structure lp).Loopstructure.depth in
  let order a b =
    if innermost_first then compare (depth b) (depth a)
    else compare (depth a) (depth b)
  in
  (* true once a loop of [f] transforms: [f]'s analyses are now stale *)
  let rec try_loops f = function
    | [] -> false
    | lp :: rest ->
      let id = Loop.id lp in
      Hashtbl.replace attempted id ();
      let r =
        if skip id then Error "skipped: loop flagged by race detector"
        else Result.bind (candidate_of n f lp) attempt
      in
      results := (id, r) :: !results;
      Result.is_ok r || try_loops f rest
  in
  let round () =
    List.fold_left
      (fun progress (f : Func.t) ->
        if String.contains f.Func.fname '.' then progress
        else begin
          prelude f;
          let selected = select f in
          let eligible =
            List.filter
              (fun lp -> (not (Hashtbl.mem attempted (Loop.id lp))) && selected lp)
              (Noelle.loops n f)
          in
          try_loops f (List.sort order eligible) || progress
        end)
      false (Irmod.defined_functions m)
  in
  while round () do () done;
  List.rev !results

(** Emit, in block [bid] of the candidate's function, its trip count:
    [max(0, ceil((bound - first + adj) / step))], where [first], the
    first value the exit test reads, is the start, or [start + step] for
    a test on the update. *)
let emit_niters (c : candidate) bid : Instr.value =
  let f = c.f and stepc = c.iv.Bounds.cstep in
  let adj =
    match c.test.Bounds.cont with
    | Instr.Sle -> 1L
    | Instr.Sge -> -1L
    | _ -> 0L
  in
  let sign = if stepc > 0L then 1L else -1L in
  (* [ceil (x / step)] as [(x + step - sign) / step]; a test on the
     update takes [step] off [x] *)
  let k =
    match c.test.Bounds.tested with
    | Bounds.Phi -> Int64.add adj (Int64.sub stepc sign)
    | Bounds.Update -> Int64.sub adj sign
  in
  let range =
    Builder.add f bid (Instr.Bin (Instr.Sub, c.test.Bounds.bound, c.iv.Bounds.cstart)) Ty.I64
  in
  let numer =
    if Int64.equal k 0L then Instr.Reg range.Instr.id
    else
      Instr.Reg
        (Builder.add f bid (Instr.Bin (Instr.Add, Instr.Reg range.Instr.id, Instr.Cint k)) Ty.I64)
          .Instr.id
  in
  let q = Builder.add f bid (Instr.Bin (Instr.Sdiv, numer, Instr.Cint stepc)) Ty.I64 in
  Instr.Reg
    (Builder.add f bid
       (Instr.Call (Instr.Glob "i64_max", [ Instr.Reg q.Instr.id; Instr.Cint 0L ]))
       Ty.I64)
      .Instr.id

(** Type of a live-in value. *)
let value_ty (f : Func.t) = function
  | Instr.Cint _ -> Ty.I64
  | Instr.Cfloat _ -> Ty.F64
  | Instr.Null | Instr.Glob _ -> Ty.Ptr
  | Instr.Arg i -> snd f.Func.params.(i)
  | Instr.Reg r -> (Func.inst f r).Instr.ty

(* ------------------------------------------------------------------ *)
(* The outline-and-rewrite skeleton                                    *)
(* ------------------------------------------------------------------ *)

(* DOALL, HELIX and DSWP outline a candidate loop into tasks and rewrite
   its function in the same order of steps; each tool calls these
   helpers in that order and adds its own IR in between.  Task side:
   {!build_env}, {!open_task}, {!clone_body}, {!chunk_cyclic} (DOALL and
   HELIX only), {!close_task}.  Main side, in the preheader: {!enter},
   {!launch}, {!combine_reductions}, {!iv_finals}, {!rejoin}. *)

(** The environment layout of a candidate: one live-in slot per live-in
    value, then [ncores] partial slots per reduction of [reds] (see
    {!red_slot}), then the named [extra] slots.  Returns the env, the
    live-in slot assignment and the extra slot assignment. *)
let build_env (c : candidate) ~(reds : Reduction.t list) ~ncores
    ~(extra : (string * Ty.t) list) :
    Env.t * (Instr.value * int) list * (string * int) list =
  let env = Env.create () in
  let live_slots =
    List.mapi
      (fun i v ->
        (v, Env.add env ~name:(Printf.sprintf "livein%d" i) ~ty:(value_ty c.f v)
              ~role:Env.Live_in))
      c.live_in_values
  in
  List.iteri
    (fun ri (rd : Reduction.t) ->
      for core = 0 to ncores - 1 do
        ignore
          (Env.add env ~name:(Printf.sprintf "red%d.c%d" ri core)
             ~ty:(Reduction.value_ty rd.Reduction.kind) ~role:Env.Live_out)
      done)
    reds;
  let extra_slots =
    List.map (fun (name, ty) -> (name, Env.add env ~name ~ty ~role:Env.Live_out)) extra
  in
  (env, live_slots, extra_slots)

(** The env slot of reduction [ri]'s core-0 partial; core [k]'s is [k]
    slots further. *)
let red_slot (env : Env.t) ~ncores ri = List.length (Env.live_ins env) + (ri * ncores)

(** Create the task function [name] with the env layout of [env] and load
    every live-in in its entry block.  Returns the task, its entry block
    and the live-in substitution (original value, loaded value). *)
let open_task (m : Irmod.t) (c : candidate) ~name ~origin (env : Env.t)
    (live_slots : (Instr.value * int) list) =
  let task, entry = Task.create m ~name ~env ~origin in
  let subst =
    List.map
      (fun (v, idx) ->
        ( v,
          Env.emit_load task.Task.tfunc entry.Func.bid ~env_ptr:Task.env_arg ~index:idx
            (value_ty c.f v) ))
      live_slots
  in
  (task, entry.Func.bid, subst)

(** [subst] as a value map: the substitute of a value, or the value. *)
let subst_of (subst : (Instr.value * Instr.value) list) v =
  Option.value ~default:v
    (List.find_map (fun (k, x) -> if Instr.value_equal k v then Some x else None) subst)

(** Clone the loop into [tf] behind block [entry], with [subst] applied
    and every exit edge leading to a fresh [done] block.  Returns the
    [done] block and the block and instruction maps of the clone. *)
let clone_body (c : candidate) (tf : Func.t) ~entry subst =
  let done_ = (Builder.add_block tf ~label:"done").Func.bid in
  let bmap, imap =
    Loopbuilder.clone_blocks ~src:c.f ~blocks:c.ls.Loopstructure.blocks ~dst:tf
      ~map_value:(subst_of subst) ~entry_from:entry ~exit_to:(fun _ -> done_)
  in
  (done_, bmap, imap)

(** Cyclic iteration chunking of a cloned loop, through IVS: every IV of
    [ivs] starts [core * step] later and strides [ncores * step]; every
    reduction of [reds] starts from its identity and stores its partial
    to its {!red_slot} for the running core on reaching [done_].  Only
    the phi reads the scaled update: any other reader of an IV's update
    (an exit test on the update, a body that uses [i + 1]) reads a fresh
    [phi' + step], the next iteration's value. *)
let chunk_cyclic (task : Task.t) ~entry ~done_ imap subst (ivs : Indvars.t list)
    (reds : Reduction.t list) ~ncores =
  let tf = task.Task.tfunc in
  List.iter
    (fun (iv : Indvars.t) ->
      let phi' = Hashtbl.find imap iv.Indvars.phi.Instr.id in
      let upd' = Hashtbl.find imap iv.Indvars.update.Instr.id in
      (match List.filter (fun (u : Instr.inst) -> u.Instr.id <> phi') (Func.users tf upd') with
      | [] -> ()
      | readers ->
        let next =
          Builder.insert_before tf ~before:upd'
            (Instr.Bin (Instr.Add, Instr.Reg phi', subst_of subst iv.Indvars.step))
            Ty.I64
        in
        List.iter
          (fun (u : Instr.inst) ->
            Builder.set_op tf u
              (Instr.map_operands
                 (function Instr.Reg r when r = upd' -> Instr.Reg next.Instr.id | v -> v)
                 u.Instr.op))
          readers);
      let delta =
        Builder.add tf entry
          (Instr.Bin (Instr.Mul, Task.core_arg, subst_of subst iv.Indvars.step))
          Ty.I64
      in
      Ivstepper.offset_start tf ~phi_id:phi' ~pred:entry ~delta:(Instr.Reg delta.Instr.id);
      Ivstepper.scale_step tf ~update_id:upd' ~phi_id:phi' ~factor:Task.ncores_arg)
    ivs;
  List.iteri
    (fun ri (rd : Reduction.t) ->
      let phi' = Func.inst tf (Hashtbl.find imap rd.Reduction.phi.Instr.id) in
      (match phi'.Instr.op with
      | Instr.Phi incs ->
        Builder.set_op tf phi'
          (Instr.Phi
            (List.map
               (fun (p, v) ->
                 if p = entry then (p, Reduction.identity rd.Reduction.kind) else (p, v))
               incs))
      | _ -> ());
      let base = red_slot task.Task.env ~ncores ri in
      let off =
        Builder.add tf done_
          (Instr.Bin (Instr.Add, Instr.Cint (Int64.of_int base), Task.core_arg))
          Ty.I64
      in
      let addr =
        Builder.add tf done_ (Instr.Gep (Task.env_arg, Instr.Reg off.Instr.id)) Ty.Ptr
      in
      ignore
        (Builder.add tf done_
           (Instr.Store (Instr.Reg phi'.Instr.id, Instr.Reg addr.Instr.id))
           Ty.Void))
    reds

(** Terminate the task: [entry] enters the cloned header, [done_]
    returns. *)
let close_task (c : candidate) (tf : Func.t) ~entry ~done_ bmap =
  ignore (Builder.set_term tf entry (Instr.Br (Hashtbl.find bmap c.ls.Loopstructure.header)));
  ignore (Builder.set_term tf done_ (Instr.Ret None))

(** Open the rewrite in the preheader [ph]: the trip count, then the env
    allocation with every live-in stored.  Returns the trip count and
    the env pointer. *)
let enter (c : candidate) ~ph (env : Env.t) (live_slots : (Instr.value * int) list) =
  let niters = emit_niters c ph in
  let env_ptr = Env.emit_alloc env c.f ph in
  List.iter (fun (v, idx) -> Env.emit_store c.f ph ~env_ptr ~index:idx v) live_slots;
  (niters, env_ptr)

(** Submit [tasks] (the [k]-th as core [k] of [List.length tasks]) and
    run them all. *)
let launch (c : candidate) ~ph ~env_ptr (tasks : Task.t list) =
  let ncores = Instr.Cint (Int64.of_int (List.length tasks)) in
  List.iteri
    (fun core t ->
      Task.emit_submit c.f ph t ~core:(Instr.Cint (Int64.of_int core)) ~ncores ~env_ptr)
    tasks;
  Task.emit_run_all c.f ph

(** Fold every reduction's per-core partials into its initial value;
    returns (reduction phi, combined value) pairs. *)
let combine_reductions (c : candidate) ~ph (env : Env.t) ~env_ptr
    (reds : Reduction.t list) ~ncores =
  List.mapi
    (fun ri (rd : Reduction.t) ->
      let base = red_slot env ~ncores ri in
      let acc = ref rd.Reduction.init in
      for core = 0 to ncores - 1 do
        let part =
          Env.emit_load c.f ph ~env_ptr ~index:(base + core)
            (Reduction.value_ty rd.Reduction.kind)
        in
        acc := Reduction.emit_combine c.f ph rd.Reduction.kind !acc part
      done;
      (rd.Reduction.phi.Instr.id, !acc))
    reds

(** Closed-form final value [start + niters * step] of every IV; returns
    (IV phi, final value) pairs. *)
let iv_finals (c : candidate) ~ph ~niters (ivs : Indvars.t list) =
  List.map
    (fun (iv : Indvars.t) ->
      let extent = Builder.add c.f ph (Instr.Bin (Instr.Mul, niters, iv.Indvars.step)) Ty.I64 in
      let final =
        Builder.add c.f ph
          (Instr.Bin (Instr.Add, iv.Indvars.start, Instr.Reg extent.Instr.id))
          Ty.I64
      in
      (iv.Indvars.phi.Instr.id, Instr.Reg final.Instr.id))
    ivs

(** Close the rewrite: the preheader [ph] branches to a fresh join block
    [label] that falls through to the loop's exit target, and every use
    of a live-out after the loop (exit phis included) reads its entry in
    [finals] (live-out register, value) instead.  The old loop becomes
    unreachable and is pruned; the runtime is declared and [n]'s
    analyses are invalidated. *)
let rejoin (n : Noelle.t) (m : Irmod.t) (c : candidate) ~ph ~label finals =
  let map_live_out r = Option.value (List.assoc_opt r finals) ~default:(Instr.Cint 0L) in
  let join_bid = (Builder.add_block c.f ~label).Func.bid in
  let f = c.f in
  let header = c.ls.Loopstructure.header in
  (* exit phis: the incoming from the header now comes from the join block *)
  List.iter
    (fun (i : Instr.inst) ->
      match i.Instr.op with
      | Instr.Phi incs ->
        Builder.set_op f i
          (Instr.Phi
            (List.map
               (fun (p, v) ->
                 if p = header then
                   ( join_bid,
                     match v with
                     | Instr.Reg r when List.mem r c.live_out_regs -> map_live_out r
                     | v -> v )
                 else (p, v))
               incs))
      | _ -> ())
    (Func.insts_of_block f c.exit_dst);
  (* direct uses of live-outs outside the loop (exit phis already done) *)
  List.iter
    (fun r ->
      let by = map_live_out r in
      Func.iter_insts
        (fun (u : Instr.inst) ->
          let in_loop = Loopstructure.contains c.ls u.Instr.parent in
          let is_exit_phi =
            u.Instr.parent = c.exit_dst
            && match u.Instr.op with Instr.Phi _ -> true | _ -> false
          in
          if (not in_loop) && not is_exit_phi then
            Builder.set_op f u
              (Instr.map_operands
                (function Instr.Reg x when x = r -> by | v -> v)
                u.Instr.op))
        f)
    c.live_out_regs;
  ignore (Builder.set_term f join_bid (Instr.Br c.exit_dst));
  Builder.redirect f ph ~old_succ:header ~new_succ:join_bid;
  ignore (Cfg.prune_unreachable f);
  ignore (Builder.simplify_phis f);
  Task.declare_runtime m;
  Noelle.invalidate n
