(** The data-flow engine (DFE, §2.2).

    A generic engine that evaluates data-flow equations supplied by the
    user, with the conventional optimizations the paper lists: set-based
    transfer at basic-block granularity, a working-list algorithm, and
    loop-aware priority ordering (blocks are processed in reverse postorder
    for forward problems and postorder for backward problems, which gives
    inner loops priority).  Canned analyses (liveness, reaching
    definitions) are provided on top. *)

open Ir

module IntSet = Set.Make (Int)

type direction = Forward | Backward

(** A data-flow problem over sets of instruction ids (or any int-coded
    facts).  [gen]/[kill] are per-block; [meet] is union or intersection
    via [init_inner]/[combine]. *)
type problem = {
  direction : direction;
  gen : int -> IntSet.t;          (** block id -> generated facts *)
  kill : int -> IntSet.t;         (** block id -> killed facts *)
  boundary : IntSet.t;            (** IN of entry (forward) / OUT of exits *)
  init : IntSet.t;                (** initial interior value *)
  combine : IntSet.t -> IntSet.t -> IntSet.t;  (** the meet operator *)
}

type result = {
  in_ : (int, IntSet.t) Hashtbl.t;   (** block id -> IN set *)
  out : (int, IntSet.t) Hashtbl.t;   (** block id -> OUT set *)
  iterations : int;                  (** block transfer evaluations to fixpoint *)
}

(** Solve [p] over the CFG of [f] with a worklist seeded in loop-aware
    priority order. *)
let solve (f : Func.t) (p : problem) : result =
  let rpo = Cfg.reverse_postorder f in
  let order = match p.direction with Forward -> rpo | Backward -> List.rev rpo in
  let preds = Func.preds f in
  let in_ = Hashtbl.create 16 and out = Hashtbl.create 16 in
  List.iter
    (fun b ->
      Hashtbl.replace in_ b p.init;
      Hashtbl.replace out b p.init)
    (Func.blocks f);
  let get tbl b = try Hashtbl.find tbl b with Not_found -> p.init in
  let work = Queue.create () in
  let queued = Hashtbl.create 16 in
  let enqueue b =
    if not (Hashtbl.mem queued b) then begin
      Hashtbl.replace queued b ();
      Queue.add b work
    end
  in
  List.iter enqueue order;
  let iterations = ref 0 in
  while not (Queue.is_empty work) do
    let b = Queue.pop work in
    Hashtbl.remove queued b;
    incr iterations;
    match p.direction with
    | Forward ->
      let ins =
        let ps = try Hashtbl.find preds b with Not_found -> [] in
        if ps = [] then p.boundary
        else
          List.fold_left
            (fun acc pb ->
              match acc with
              | None -> Some (get out pb)
              | Some a -> Some (p.combine a (get out pb)))
            None ps
          |> Option.value ~default:p.init
      in
      Hashtbl.replace in_ b ins;
      let o = IntSet.union (p.gen b) (IntSet.diff ins (p.kill b)) in
      if not (IntSet.equal o (get out b)) then begin
        Hashtbl.replace out b o;
        List.iter enqueue (Func.successors f b)
      end
    | Backward ->
      let outs =
        let ss = Func.successors f b in
        if ss = [] then p.boundary
        else
          List.fold_left
            (fun acc sb ->
              match acc with
              | None -> Some (get in_ sb)
              | Some a -> Some (p.combine a (get in_ sb)))
            None ss
          |> Option.value ~default:p.init
      in
      Hashtbl.replace out b outs;
      let i = IntSet.union (p.gen b) (IntSet.diff outs (p.kill b)) in
      if not (IntSet.equal i (get in_ b)) then begin
        Hashtbl.replace in_ b i;
        List.iter
          enqueue
          (try Hashtbl.find preds b with Not_found -> [])
      end
  done;
  (* solver-loop telemetry: total block transfers to fixpoint, plus the
     per-solve distribution (log-scale buckets) *)
  Trace.incr_m "dfe.solves";
  Trace.add "dfe.iterations" !iterations;
  Trace.observe "dfe.iterations.hist" (Int64.of_int !iterations);
  { in_; out; iterations = !iterations }

(* ------------------------------------------------------------------ *)
(* Canned analyses                                                     *)
(* ------------------------------------------------------------------ *)

(** Liveness of SSA registers: a register is live at a point if some path
    uses it later.  Facts are instruction ids.  Phi uses are attributed to
    the corresponding predecessor's OUT (standard SSA liveness). *)
let liveness (f : Func.t) : result =
  (* per-block: uses before def (upward-exposed), defs *)
  let gen b =
    let seen_defs = Hashtbl.create 8 in
    List.fold_left
      (fun acc (i : Instr.inst) ->
        let acc =
          match i.Instr.op with
          | Instr.Phi _ -> acc (* phi operands live in predecessors *)
          | op ->
            List.fold_left
              (fun acc v ->
                match v with
                | Instr.Reg r when not (Hashtbl.mem seen_defs r) -> IntSet.add r acc
                | _ -> acc)
              acc (Instr.operands op)
        in
        Hashtbl.replace seen_defs i.Instr.id ();
        acc)
      IntSet.empty
      (Func.insts_of_block f b)
    |> fun upward ->
    (* values used by phis of successors count as live-out of this block *)
    List.fold_left
      (fun acc s ->
        List.fold_left
          (fun acc (i : Instr.inst) ->
            match i.Instr.op with
            | Instr.Phi incs -> (
              match List.assoc_opt b incs with
              | Some (Instr.Reg r) -> IntSet.add r acc
              | _ -> acc)
            | _ -> acc)
          acc
          (Func.insts_of_block f s))
      IntSet.empty (Func.successors f b)
    |> fun phi_out -> IntSet.union upward phi_out
  in
  let kill b =
    List.fold_left
      (fun acc (i : Instr.inst) -> IntSet.add i.Instr.id acc)
      IntSet.empty
      (Func.insts_of_block f b)
  in
  solve f
    {
      direction = Backward;
      gen;
      kill;
      boundary = IntSet.empty;
      init = IntSet.empty;
      combine = IntSet.union;
    }

(** Available expressions: which pure computations are available (computed
    on every path, operands unchanged) at the start of each block.  Facts
    are instruction ids; two instructions compute the same expression when
    their operations are structurally equal — the meet is intersection.
    This is the analysis a NOELLE-based CSE or the redundant-guard
    elimination of CARAT consults. *)
let available_expressions (f : Func.t) : result =
  let pure (i : Instr.inst) =
    match i.Instr.op with
    | Instr.Bin _ | Instr.Fbin _ | Instr.Icmp _ | Instr.Fcmp _ | Instr.Cast _
    | Instr.Gep _ | Instr.Select _ -> true
    | _ -> false
  in
  let universe =
    Func.fold_insts
      (fun acc i -> if pure i then IntSet.add i.Instr.id acc else acc)
      IntSet.empty f
  in
  let gen b =
    List.fold_left
      (fun acc (i : Instr.inst) -> if pure i then IntSet.add i.Instr.id acc else acc)
      IntSet.empty
      (Func.insts_of_block f b)
  in
  (* SSA values never change, so nothing kills a pure expression *)
  solve f
    {
      direction = Forward;
      gen;
      kill = (fun _ -> IntSet.empty);
      boundary = IntSet.empty;
      init = universe;
      combine = IntSet.inter;
    }

(** Structural equality of two pure operations (same opcode and operands):
    the redundancy predicate used with {!available_expressions}. *)
let same_expression (a : Instr.inst) (b : Instr.inst) =
  match (a.Instr.op, b.Instr.op) with
  | Instr.Bin (o1, x1, y1), Instr.Bin (o2, x2, y2) ->
    o1 = o2 && Instr.value_equal x1 x2 && Instr.value_equal y1 y2
  | Instr.Fbin (o1, x1, y1), Instr.Fbin (o2, x2, y2) ->
    o1 = o2 && Instr.value_equal x1 x2 && Instr.value_equal y1 y2
  | Instr.Icmp (c1, x1, y1), Instr.Icmp (c2, x2, y2) ->
    c1 = c2 && Instr.value_equal x1 x2 && Instr.value_equal y1 y2
  | Instr.Gep (p1, i1), Instr.Gep (p2, i2) ->
    Instr.value_equal p1 p2 && Instr.value_equal i1 i2
  | Instr.Cast (k1, v1), Instr.Cast (k2, v2) -> k1 = k2 && Instr.value_equal v1 v2
  | _ -> false

(** Reaching definitions of memory stores: which store instructions may
    reach the start of each block. *)
let reaching_stores ?(stack = Andersen.baseline_stack) (m : Irmod.t) (f : Func.t) : result =
  let stores =
    Func.fold_insts
      (fun acc i ->
        match i.Instr.op with Instr.Store _ -> i :: acc | _ -> acc)
      [] f
  in
  let gen b =
    List.fold_left
      (fun acc (i : Instr.inst) ->
        match i.Instr.op with
        | Instr.Store _ -> IntSet.add i.Instr.id acc
        | _ -> acc)
      IntSet.empty
      (Func.insts_of_block f b)
  in
  let kill b =
    (* a store kills stores to must-aliasing addresses *)
    List.fold_left
      (fun acc (i : Instr.inst) ->
        match i.Instr.op with
        | Instr.Store (_, p) ->
          List.fold_left
            (fun acc (j : Instr.inst) ->
              match j.Instr.op with
              | Instr.Store (_, q) when j.Instr.id <> i.Instr.id ->
                if Alias.alias stack m f p q = Alias.Must_alias then
                  IntSet.add j.Instr.id acc
                else acc
              | _ -> acc)
            acc stores
        | _ -> acc)
      IntSet.empty
      (Func.insts_of_block f b)
  in
  solve f
    {
      direction = Forward;
      gen;
      kill;
      boundary = IntSet.empty;
      init = IntSet.empty;
      combine = IntSet.union;
    }

(** Live memory: which memory-reading instructions (loads and calls that
    may read program memory) may still execute after each program point,
    before the location they read is definitely overwritten.  Facts are
    the ids of the reading instructions; a block kills a read when it
    contains a store that must-alias the read's address (the value flowing
    backward past that store can no longer be the one observed).  This is
    the backward problem a dead-store eliminator — or the [san.dead-store]
    checker — consults: a store whose OUT set contains no may-aliasing
    read writes a value nobody can see. *)
let live_memory ?(stack = Andersen.baseline_stack) (m : Irmod.t) (f : Func.t) : result =
  let is_read (i : Instr.inst) =
    match i.Instr.op with
    | Instr.Load _ -> true
    | Instr.Call (callee, _) ->
      (* builtins that provably never read program memory are not reads *)
      not
        (Alias.is_pure_builtin callee || Alias.is_alloc_builtin callee
        || Alias.is_ordered_builtin callee)
    | _ -> false
  in
  let reads = Func.fold_insts (fun acc i -> if is_read i then i :: acc else acc) [] f in
  let gen b =
    List.fold_left
      (fun acc (i : Instr.inst) -> if is_read i then IntSet.add i.Instr.id acc else acc)
      IntSet.empty
      (Func.insts_of_block f b)
  in
  let kill b =
    (* a store kills the loads whose address it must-overwrites, unless the
       load lives in this very block (then [gen] keeps it live anyway and
       intra-block ordering is the client's business) *)
    List.fold_left
      (fun acc (i : Instr.inst) ->
        match i.Instr.op with
        | Instr.Store (_, p) ->
          List.fold_left
            (fun acc (j : Instr.inst) ->
              match j.Instr.op with
              | Instr.Load q when j.Instr.parent <> b ->
                if Alias.alias stack m f p q = Alias.Must_alias then
                  IntSet.add j.Instr.id acc
                else acc
              | _ -> acc)
            acc reads
        | _ -> acc)
      IntSet.empty
      (Func.insts_of_block f b)
  in
  solve f
    {
      direction = Backward;
      gen;
      kill;
      boundary = IntSet.empty;
      init = IntSet.empty;
      combine = IntSet.union;
    }
