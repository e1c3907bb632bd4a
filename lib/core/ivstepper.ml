(** The induction-variable stepper (IVS, §2.2).

    Modifies the step (and start) of a loop's induction variables: the
    user specifies the new step value and the abstraction rewrites the
    loop.  The paper's motivating uses are loop rotation (negating steps)
    and DOALL chunking (multiplying the step by the core count and
    offsetting each task's start) — which is exactly how [lib/tools]'s
    DOALL uses this module on the cloned task body. *)

open Ir

exception Not_steppable of string

(** Replace the step of the IV whose phi is [phi_id] and whose update
    instruction is [update_id] in [f] with [new_step] (a value valid at
    the update's location). *)
let set_step (f : Func.t) ~update_id ~phi_id ~(new_step : Instr.value) =
  let upd = Func.inst f update_id in
  match upd.Instr.op with
  | Instr.Bin (Instr.Add, a, _b) when Instr.value_equal a (Instr.Reg phi_id) ->
    Builder.set_op f upd (Instr.Bin (Instr.Add, a, new_step))
  | Instr.Bin (Instr.Add, _a, b) when Instr.value_equal b (Instr.Reg phi_id) ->
    Builder.set_op f upd (Instr.Bin (Instr.Add, new_step, b))
  | Instr.Bin (Instr.Sub, a, _b) when Instr.value_equal a (Instr.Reg phi_id) ->
    (* keep the subtraction shape: step is the subtrahend *)
    let neg =
      Builder.insert_before f ~before:update_id
        (Instr.Bin (Instr.Sub, Instr.Cint 0L, new_step))
        Ty.I64
    in
    Builder.set_op f upd (Instr.Bin (Instr.Sub, a, Instr.Reg neg.Instr.id))
  | _ ->
    raise
      (Not_steppable
         (Printf.sprintf "instruction %d is not a recognized IV update" update_id))

(** Multiply the IV's step by [factor] (emitting the multiply right before
    the update).  The subtraction shape is preserved by scaling the
    subtrahend directly, so down-counting loops keep counting down. *)
let scale_step (f : Func.t) ~update_id ~phi_id ~(factor : Instr.value) =
  let upd = Func.inst f update_id in
  let scaled v =
    Instr.Reg
      (Builder.insert_before f ~before:update_id (Instr.Bin (Instr.Mul, v, factor)) Ty.I64)
        .Instr.id
  in
  match upd.Instr.op with
  | Instr.Bin (Instr.Add, a, b) when Instr.value_equal a (Instr.Reg phi_id) ->
    Builder.set_op f upd (Instr.Bin (Instr.Add, a, scaled b))
  | Instr.Bin (Instr.Add, a, b) when Instr.value_equal b (Instr.Reg phi_id) ->
    Builder.set_op f upd (Instr.Bin (Instr.Add, scaled a, b))
  | Instr.Bin (Instr.Sub, a, b) when Instr.value_equal a (Instr.Reg phi_id) ->
    Builder.set_op f upd (Instr.Bin (Instr.Sub, a, scaled b))
  | _ ->
    raise
      (Not_steppable
         (Printf.sprintf "instruction %d is not a recognized IV update" update_id))

(** Offset the IV's start: the phi's incoming value from [pred] becomes
    [init + delta], with the add emitted at the end of [pred]. *)
let offset_start (f : Func.t) ~phi_id ~pred ~(delta : Instr.value) =
  let phi = Func.inst f phi_id in
  match phi.Instr.op with
  | Instr.Phi incs -> (
    match List.assoc_opt pred incs with
    | None -> raise (Not_steppable (Printf.sprintf "phi %d has no incoming from %d" phi_id pred))
    | Some init ->
      let add =
        match Func.terminator f pred with
        | Some t ->
          Builder.insert_before f ~before:t.Instr.id
            (Instr.Bin (Instr.Add, init, delta))
            Ty.I64
        | None -> Builder.add f pred (Instr.Bin (Instr.Add, init, delta)) Ty.I64
      in
      Builder.set_op f phi
        (Instr.Phi
          (List.map
             (fun (p, v) -> if p = pred then (p, Instr.Reg add.Instr.id) else (p, v))
             incs)))
  | _ -> raise (Not_steppable (Printf.sprintf "instruction %d is not a phi" phi_id))
