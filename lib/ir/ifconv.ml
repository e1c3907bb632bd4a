(** If-conversion: linearize a single-entry acyclic CFG region into one
    straight-line block, replacing control divergence with predication.

    Every block's execution condition becomes an explicit i64 0/1 value
    (the block predicate); merge phis become select chains over the edge
    predicates; side effects that must not fire on masked-off paths are
    address-masked — a store or load in a predicated block redirects to a
    caller-supplied scratch slot when its predicate is false
    ([store v, select(p, real, scratch)]), so the instruction executes
    unconditionally yet touches program memory only when the original
    program would have.  The scratch slots are function-local allocas the
    caller never lets escape, which keeps masked-off stores invisible to
    the {!Obs} observable-trace oracle (it records stores by dynamic
    address against escaped objects only).

    Two scratch slots are needed because the interpreter's memory is
    dynamically typed: float loads must always read a float-holding cell
    ([scratch_f]), everything else shares [scratch_i] (integers and
    pointers coerce freely).  Divisors of predicated [Sdiv]/[Srem] are
    masked to 1 so masked-off lanes cannot introduce a division trap the
    original program did not have.

    Used by [Ntools.Vec] to turn divergent loop bodies into vectorizable
    straight-line code, per the predication recipe of "Retrofitting
    Control Flow Graphs in LLVM IR for Auto Vectorization". *)

type result = {
  blocks_merged : int;   (** region blocks folded into the entry block *)
  selects : int;         (** merge phis converted to select chains *)
  masked : int;          (** memory operands / divisors address-masked *)
  div_frac : float;      (** fraction of region insts under a predicate *)
}

(** Builtins that are safe to execute speculatively on masked-off lanes:
    pure value→value functions that trap on no well-typed input (IEEE
    semantics return nan/inf rather than trapping) and touch no
    interpreter state.  [rand], [clock], [malloc], [print], … are
    stateful or observable, and user functions may contain anything, so
    any other callee on a divergent path disqualifies the region. *)
let pure_builtins =
  [ "sqrt"; "exp"; "log"; "sin"; "cos"; "fabs"; "floor"; "pow";
    "i64_min"; "i64_max" ]

let value_is_float (f : Func.t) = function
  | Instr.Cfloat _ -> true
  | Instr.Cint _ | Instr.Null | Instr.Glob _ -> false
  | Instr.Arg i ->
    (try Ty.equal (snd f.Func.params.(i)) Ty.F64 with _ -> false)
  | Instr.Reg r -> (
    match Func.inst_opt f r with
    | Some i -> Ty.equal i.Instr.ty Ty.F64
    | None -> false)

(* Reverse post-order of the region from [entry] following in-region
   successors; [Error] on a cycle (an inner loop) or an edge leaving the
   region other than to [exit_bid].  RPO places defs before uses for
   non-phi values, so instructions can be concatenated in this order. *)
let topo_order (f : Func.t) ~entry ~blocks ~exit_bid =
  let in_region b = List.mem b blocks in
  let state = Hashtbl.create 16 in (* 1 = on stack, 2 = done *)
  let order = ref [] in
  let rec visit b =
    match Hashtbl.find_opt state b with
    | Some 1 -> Error "region has an internal cycle (inner loop)"
    | Some _ -> Ok ()
    | None ->
      Hashtbl.replace state b 1;
      let rec succs = function
        | [] ->
          Hashtbl.replace state b 2;
          order := b :: !order;
          Ok ()
        | s :: rest ->
          if s = exit_bid then succs rest
          else if not (in_region s) then
            Error (Printf.sprintf "edge to block %d leaves the region" s)
          else (match visit s with Ok () -> succs rest | Error e -> Error e)
      in
      succs (Func.successors f b)
  in
  match visit entry with
  | Error e -> Error e
  | Ok () ->
    (* [order] was built by consing at DFS finish time, so it already
       reads entry-first: reverse post-order *)
    if List.length !order <> List.length blocks then
      Error "region has blocks unreachable from its entry"
    else Ok !order

(** Pure feasibility check: [Ok order] when the region can be linearized.
    The region must be acyclic, single-entry, have every phi's incoming
    predecessors inside the region, terminate region-internally with
    [Br]/[Cbr] only, reach [exit_bid] from exactly one block (the unique
    tail, via an unconditional branch), and contain no alloca and no
    observable or stateful call outside the entry block (anything not on
    the always-executed path would otherwise run speculatively). *)
let check (f : Func.t) ~entry ~blocks ~exit_bid :
    (int list, string) Stdlib.result =
  match topo_order f ~entry ~blocks ~exit_bid with
  | Error e -> Error e
  | Ok order ->
    let err = ref None in
    let reject msg = if !err = None then err := Some msg in
    let exits = ref [] in
    List.iter
      (fun b ->
        (match Func.terminator f b with
        | Some { Instr.op = Instr.Br s; _ } ->
          if s = exit_bid then exits := b :: !exits
        | Some { Instr.op = Instr.Cbr (_, t, e); _ } ->
          if t = exit_bid || e = exit_bid then
            reject "conditional branch to the region exit (early exit)"
        | _ -> reject "region block without a plain Br/Cbr terminator");
        List.iter
          (fun (i : Instr.inst) ->
            match i.Instr.op with
            | Instr.Phi incs ->
              if b = entry then reject "phi at the region entry"
              else
                List.iter
                  (fun (p, _) ->
                    if not (List.mem p blocks) then
                      reject "phi with an incoming edge from outside the region")
                  incs
            | Instr.Alloca _ when b <> entry ->
              reject "alloca on a divergent path"
            | Instr.Call (Instr.Glob g, _) when b <> entry ->
              if not (List.mem g pure_builtins) then
                reject (Printf.sprintf "call to %s on a divergent path" g)
            | Instr.Call (_, _) when b <> entry ->
              reject "indirect call on a divergent path"
            | _ -> ())
          (Func.insts_of_block f b))
      order;
    (match !exits with
    | [ _ ] -> ()
    | _ -> reject "region must reach the exit from exactly one tail block");
    (match !err with Some e -> Error e | None -> Ok order)

(** Linearize the region in place.  [scratch_i]/[scratch_f] are pointers
    to two one-word allocas the caller emitted outside the region (and
    must never let escape).  On success the whole region is the single
    block [entry], terminated by [Br exit_bid]. *)
let run (f : Func.t) ~entry ~blocks ~exit_bid ~scratch_i ~scratch_f :
    (result, string) Stdlib.result =
  match check f ~entry ~blocks ~exit_bid with
  | Error e -> Error e
  | Ok order ->
    let total_insts =
      List.fold_left
        (fun n b -> n + List.length (Func.block f b).Func.insts)
        0 order
    in
    let divergent_insts = ref 0 in
    let selects = ref 0 in
    let masked = ref 0 in
    (* predicate per block (None = always executes) and per edge *)
    let bpred : (int, Instr.value option) Hashtbl.t = Hashtbl.create 16 in
    let epred : (int * int, Instr.value option) Hashtbl.t = Hashtbl.create 16 in
    Hashtbl.replace bpred entry None;
    (* [Or p (Xor p 1)] is a tautology: a two-way merge of both arms of
       one branch executes unconditionally *)
    let complement a b =
      match b with
      | Instr.Reg r -> (
        match Func.inst_opt f r with
        | Some { Instr.op = Instr.Bin (Instr.Xor, x, Instr.Cint 1L); _ } ->
          x = a
        | _ -> false)
      | _ -> false
    in
    let preds = Func.preds f in
    (* predicate and edge computations are appended at the end of
       [entry], whose own terminator is dropped before any is emitted *)
    let emit op ty = Instr.Reg (Builder.add f entry op ty).Instr.id in
    let edge_of src dst =
      match Hashtbl.find_opt epred (src, dst) with Some p -> p | None -> None
    in
    let tail = ref entry in
    List.iter
      (fun b ->
        (* block predicate: OR of incoming edge predicates *)
        if b <> entry then begin
          let inc = try Hashtbl.find preds b with Not_found -> [] in
          let ps = List.map (fun p -> edge_of p b) inc in
          let p =
            if ps = [] || List.exists (fun p -> p = None) ps then None
            else
              match List.map Option.get ps with
              | [ p ] -> Some p
              | [ a; b ] when complement a b || complement b a -> None
              | p :: rest ->
                Some
                  (List.fold_left
                     (fun acc q -> emit (Instr.Bin (Instr.Or, acc, q)) Ty.I64)
                     p rest)
              | [] -> None
          in
          Hashtbl.replace bpred b p
        end;
        let p = Hashtbl.find bpred b in
        List.iter
          (fun (i : Instr.inst) ->
            if p <> None && not (Instr.is_terminator i) then incr divergent_insts;
            match (i.Instr.op, p) with
            (* a merge phi folds into a select chain keyed by the
               incoming edges' predicates *)
            | Instr.Phi incs, _ ->
              let incs = List.map (fun (pb, v) -> (edge_of pb b, v)) incs in
              let chain =
                match List.rev incs with
                | [] -> Instr.Cint 0L (* unreachable: phis are non-empty *)
                | (_, last) :: rest ->
                  List.fold_left
                    (fun acc (ep, v) ->
                      match ep with
                      | None -> v (* unconditional edge dominates the merge *)
                      | Some c ->
                        incr selects;
                        Instr.Reg
                          (Builder.insert_before f ~before:i.Instr.id
                             (Instr.Select (c, v, acc)) i.Instr.ty)
                            .Instr.id)
                    last rest
              in
              Builder.replace_uses f ~old:i.Instr.id ~by:chain;
              Builder.remove f i.Instr.id
            | Instr.Load ptr, Some pv ->
              incr masked;
              let slot =
                if Ty.equal i.Instr.ty Ty.F64 then scratch_f else scratch_i
              in
              let a =
                Builder.insert_before f ~before:i.Instr.id
                  (Instr.Select (pv, ptr, slot)) Ty.Ptr
              in
              i.Instr.op <- Instr.Load (Instr.Reg a.Instr.id)
            | Instr.Store (v, ptr), Some pv ->
              incr masked;
              let slot =
                if value_is_float f v then scratch_f else scratch_i
              in
              let a =
                Builder.insert_before f ~before:i.Instr.id
                  (Instr.Select (pv, ptr, slot)) Ty.Ptr
              in
              i.Instr.op <- Instr.Store (v, Instr.Reg a.Instr.id)
            | Instr.Bin ((Instr.Sdiv | Instr.Srem) as op, a, d), Some pv ->
              incr masked;
              let d' =
                Builder.insert_before f ~before:i.Instr.id
                  (Instr.Select (pv, d, Instr.Cint 1L)) Ty.I64
              in
              i.Instr.op <- Instr.Bin (op, a, Instr.Reg d'.Instr.id)
            | _ -> ())
          (Func.insts_of_block f b);
        (* drop [b]'s terminator and fold its remaining instructions
           into [entry], then record the edge predicates out of [b]: a
           branch condition defined in [b] must precede its uses *)
        let term = Func.terminator f b in
        Option.iter (fun (t : Instr.inst) -> Builder.remove f t.Instr.id) term;
        if b <> entry then begin
          List.iter
            (fun id -> Builder.move_to_end f id ~bid:entry)
            (Func.block f b).Func.insts;
          tail := b
        end;
        match term with
        | Some { Instr.op = Instr.Br _ as op; _ } ->
          List.iter
            (fun s -> if s <> exit_bid then Hashtbl.replace epred (b, s) p)
            (Instr.successors op)
        | Some { Instr.op = Instr.Cbr (c, tb, eb); _ } ->
          (* normalize the condition to 0/1 so its complement is Xor 1 *)
          let cc = emit (Instr.Icmp (Instr.Ne, c, Instr.Cint 0L)) Ty.I64 in
          let ncc = emit (Instr.Bin (Instr.Xor, cc, Instr.Cint 1L)) Ty.I64 in
          let conj q =
            match p with
            | None -> Some q
            | Some pv -> Some (emit (Instr.Bin (Instr.And, pv, q)) Ty.I64)
          in
          Hashtbl.replace epred (b, tb) (conj cc);
          Hashtbl.replace epred (b, eb) (conj ncc)
        | _ -> ())
      order;
    ignore (Builder.set_term f entry (Instr.Br exit_bid));
    (* the back edge into [exit_bid] now comes from [entry]: retarget its
       phis before erasing the folded blocks *)
    if !tail <> entry then
      Builder.rewrite_phi_pred f exit_bid ~old_pred:!tail ~new_pred:entry;
    List.iter (fun b -> if b <> entry then Builder.erase_block f b) order;
    Ok
      {
        blocks_merged = List.length order - 1;
        selects = !selects;
        masked = !masked;
        div_frac =
          (if total_insts = 0 then 0.0
           else float_of_int !divergent_insts /. float_of_int total_insts);
      }
