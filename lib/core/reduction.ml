(** Reduction detection (RD, §2.2).

    Identifies loop accumulations that are reducible by cloning the
    accumulator per task and combining partial results afterwards
    (the paper's example: [s += work(d)]).  A reduction is a header phi
    whose only in-loop uses form an associative-commutative update chain
    (sum, product, bitwise and/or/xor, min/max via select). *)

open Ir

type kind = Sum | Prod | Fsum | Fprod | Band | Bor | Bxor | Min | Max | Fmin | Fmax

type t = {
  phi : Instr.inst;          (** the accumulator phi *)
  update : Instr.inst;       (** final update producing the next value *)
  kind : kind;
  init : Instr.value;        (** incoming value from outside the loop *)
  chain : int list;          (** instruction ids of the update chain *)
}

(** Identity element of a reduction kind, used to seed per-task private
    accumulators. *)
let identity = function
  | Sum -> Instr.Cint 0L
  | Prod -> Instr.Cint 1L
  | Fsum -> Instr.Cfloat 0.0
  | Fprod -> Instr.Cfloat 1.0
  | Band -> Instr.Cint (-1L)
  | Bor -> Instr.Cint 0L
  | Bxor -> Instr.Cint 0L
  | Min -> Instr.Cint Int64.max_int
  | Max -> Instr.Cint Int64.min_int
  | Fmin -> Instr.Cfloat infinity
  | Fmax -> Instr.Cfloat neg_infinity

(** The IR value type a reduction of this kind accumulates. *)
let value_ty = function
  | Fsum | Fprod | Fmin | Fmax -> Ty.F64
  | _ -> Ty.I64

(** Emit instructions combining two partial results into block [bid] of
    [f]; returns the combined value.  Min/max need a compare + select. *)
let emit_combine (f : Func.t) bid kind a b : Instr.value =
  let add op ty = Instr.Reg (Builder.add f bid op ty).Instr.id in
  match kind with
  | Sum -> add (Instr.Bin (Instr.Add, a, b)) Ty.I64
  | Prod -> add (Instr.Bin (Instr.Mul, a, b)) Ty.I64
  | Fsum -> add (Instr.Fbin (Instr.Fadd, a, b)) Ty.F64
  | Fprod -> add (Instr.Fbin (Instr.Fmul, a, b)) Ty.F64
  | Band -> add (Instr.Bin (Instr.And, a, b)) Ty.I64
  | Bor -> add (Instr.Bin (Instr.Or, a, b)) Ty.I64
  | Bxor -> add (Instr.Bin (Instr.Xor, a, b)) Ty.I64
  | Min -> add (Instr.Call (Instr.Glob "i64_min", [ a; b ])) Ty.I64
  | Max -> add (Instr.Call (Instr.Glob "i64_max", [ a; b ])) Ty.I64
  | Fmin ->
    let c = add (Instr.Fcmp (Instr.Slt, a, b)) Ty.I64 in
    add (Instr.Select (c, a, b)) Ty.F64
  | Fmax ->
    let c = add (Instr.Fcmp (Instr.Sgt, a, b)) Ty.I64 in
    add (Instr.Select (c, a, b)) Ty.F64

(** Detect the reductions of loop [ls].  An accumulator must:
    - be a header phi with a unique in-loop incoming update;
    - have every in-loop use inside the accumulation chain (so partial
      sums never leak into other computation);
    - use a single associative-commutative operation along the chain. *)
let find (ls : Loopstructure.t) : t list =
  let f = ls.Loopstructure.f in
  let l = ls.Loopstructure.raw in
  let body = Loopnest.insts f l in
  List.filter_map
    (fun (phi : Instr.inst) ->
      match phi.Instr.op with
      | Instr.Phi incs -> (
        let outside, inside =
          List.partition (fun (p, _) -> not (Loopnest.contains l p)) incs
        in
        match (outside, inside) with
        | [ (_, init) ], [ (_, Instr.Reg upd_id) ] -> (
          match Func.inst_opt f upd_id with
          | None -> None
          | Some upd ->
            (* the chain is the sequence of same-kind ops linking phi to
               update; we accept chains of length >= 1, all of one kind *)
            let acc_val = Instr.Reg phi.Instr.id in
            let kind_of (i : Instr.inst) ~carries =
              match i.Instr.op with
              | Instr.Bin (Instr.Add, a, b) when carries a || carries b -> Some Sum
              | Instr.Bin (Instr.Mul, a, b) when carries a || carries b -> Some Prod
              | Instr.Bin (Instr.And, a, b) when carries a || carries b -> Some Band
              | Instr.Bin (Instr.Or, a, b) when carries a || carries b -> Some Bor
              | Instr.Bin (Instr.Xor, a, b) when carries a || carries b -> Some Bxor
              | Instr.Fbin (Instr.Fadd, a, b) when carries a || carries b -> Some Fsum
              | Instr.Fbin (Instr.Fmul, a, b) when carries a || carries b -> Some Fprod
              | Instr.Call (Instr.Glob "i64_min", [ a; b ]) when carries a || carries b ->
                Some Min
              | Instr.Call (Instr.Glob "i64_max", [ a; b ]) when carries a || carries b ->
                Some Max
              | Instr.Select (Instr.Reg c, a, b) when carries a || carries b -> (
                (* min/max via select over a comparison involving the acc *)
                match Func.inst_opt f c with
                | Some { Instr.op = Instr.Icmp ((Instr.Slt | Instr.Sle), x, y); _ }
                  when (carries x || carries y) && carries a <> carries b ->
                  Some (if carries a && carries x then Min
                        else if carries b && carries y then Min
                        else Max)
                | Some { Instr.op = Instr.Icmp ((Instr.Sgt | Instr.Sge), x, y); _ }
                  when (carries x || carries y) && carries a <> carries b ->
                  Some (if carries a && carries x then Max
                        else if carries b && carries y then Max
                        else Min)
                | Some { Instr.op = Instr.Fcmp ((Instr.Slt | Instr.Sle), x, y); _ }
                  when (carries x || carries y) && carries a <> carries b ->
                  Some (if carries a && carries x then Fmin
                        else if carries b && carries y then Fmin
                        else Fmax)
                | Some { Instr.op = Instr.Fcmp ((Instr.Sgt | Instr.Sge), x, y); _ }
                  when (carries x || carries y) && carries a <> carries b ->
                  Some (if carries a && carries x then Fmax
                        else if carries b && carries y then Fmax
                        else Fmin)
                | _ -> None)
              | _ -> None
            in
            (* walk the chain from phi to update following unique uses *)
            let chain = ref [] in
            let kind = ref None in
            let ok = ref true in
            let cur = ref acc_val in
            let steps = ref 0 in
            let phi_cmp_users = ref [] in
            while !ok && not (Instr.value_equal !cur (Instr.Reg upd_id)) && !steps < 8 do
              incr steps;
              let users =
                List.fold_left
                  (fun acc (i : Instr.inst) ->
                    if List.exists (Instr.value_equal !cur) (Instr.operands i.Instr.op)
                    then i :: acc
                    else acc)
                  [] body
              in
              (* a min/max select pattern has the cmp as an extra user *)
              let users =
                List.filter
                  (fun (u : Instr.inst) ->
                    match u.Instr.op with
                    | Instr.Icmp _ | Instr.Fcmp _ ->
                      phi_cmp_users := u.Instr.id :: !phi_cmp_users;
                      false
                    | _ -> true)
                  users
              in
              match users with
              | [ u ] -> (
                let carries v = Instr.value_equal v !cur in
                match kind_of u ~carries with
                | Some k ->
                  (match !kind with
                  | None -> kind := Some k
                  | Some k0 when k0 = k -> ()
                  | Some _ -> ok := false);
                  chain := u.Instr.id :: !chain;
                  cur := Instr.Reg u.Instr.id
                | None -> ok := false)
              | _ -> ok := false
            done;
            if !ok && Instr.value_equal !cur (Instr.Reg upd_id) then
              match !kind with
              | Some k ->
                (* cmp users are only allowed for min/max selects *)
                let allowed_cmps =
                  match k with Min | Max | Fmin | Fmax -> true | _ -> false
                in
                if !phi_cmp_users <> [] && not allowed_cmps then None
                else
                  Some
                    {
                      phi;
                      update = upd;
                      kind = k;
                      init;
                      chain = List.rev_append !phi_cmp_users !chain;
                    }
              | None -> None
            else None)
        | _ -> None)
      | _ -> None)
    (Loopstructure.header_phis ls)
