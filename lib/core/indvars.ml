(** Induction variables (IV, §2.2).

    Because the IR is SSA, an induction variable is embodied by an SCC of
    the loop's aSCCDAG: a header phi plus its update arithmetic.  NOELLE's
    detector works on that SCC and therefore handles while-shaped loops,
    do-while-shaped loops, and rotated forms alike; it also identifies the
    {e governing} IV (the one that controls the number of iterations) and
    derived IVs.  An IV governs when some exit edge's test reads it, as
    {!Bounds.exit_test} reads the edge: the same reading counts exact
    trips and gives the parallelizers their plan
    ([Parutil.candidate_of]).  Contrast with {!Indvars_llvm}, the
    baseline detector that reproduces LLVM's do-while-only behaviour for
    the §4.3 experiment. *)

open Ir

type t = {
  phi : Instr.inst;            (** the header phi *)
  start : Instr.value;         (** incoming value from outside the loop *)
  step : Instr.value;          (** loop-invariant step (negated for sub) *)
  update : Instr.inst;         (** the add/sub computing the next value *)
  scc : int list;              (** instruction ids of the IV's SCC *)
  governing : bool;            (** some exit edge's test reads it *)
}

type derived = {
  dinst : Instr.inst;          (** the derived value *)
  base_iv : t;                 (** IV it is derived from *)
}

(** The basic IVs of loop [ls], from its dependence-graph SCCs.  An IV
    governs the loop when some exit edge's {!Bounds.exit_test} reads it
    (or its update) against a loop-invariant bound. *)
let analyze (ls : Loopstructure.t) (dag : Sccdag.t) : t list =
  let f = ls.Loopstructure.f in
  let l = ls.Loopstructure.raw in
  let invariant v = Scev.is_invariant_value f l v in
  List.filter_map
    (fun (phi : Instr.inst) ->
      match phi.Instr.op with
      | Instr.Phi incs -> (
        let outside, inside =
          List.partition
            (fun (p, _) -> not (Loopnest.contains l p))
            incs
        in
        match (outside, inside) with
        | [ (_, start) ], [ (_, Instr.Reg upd_id) ] ->
          let self v = Instr.value_equal v (Instr.Reg phi.Instr.id) in
          let stepped =
            match Func.inst_opt f upd_id with
            | Some ({ Instr.op = Instr.Bin (Instr.Add, a, b); _ } as upd)
              when self a && invariant b -> Some (upd, b)
            | Some ({ Instr.op = Instr.Bin (Instr.Add, a, b); _ } as upd)
              when self b && invariant a -> Some (upd, a)
            | Some ({ Instr.op = Instr.Bin (Instr.Sub, a, Instr.Cint c); _ } as upd)
              when self a -> Some (upd, Instr.Cint (Int64.neg c))
            | _ -> None
          in
          Option.map
            (fun (update, step) ->
              let scc =
                match Sccdag.scc_of_inst dag phi.Instr.id with
                | Some sid -> (Sccdag.scc_by_id dag sid).Sccdag.members
                | None -> [ phi.Instr.id; upd_id ]
              in
              let governing =
                List.exists
                  (fun e -> Bounds.exit_test f l ~phi:phi.Instr.id ~update:upd_id e <> None)
                  ls.Loopstructure.exit_edges
              in
              { phi; start; step; update; scc; governing })
            stepped
        | _ -> None)
      | _ -> None)
    (Loopstructure.header_phis ls)

(** The governing IV of the loop, if one exists. *)
let governing_iv (ivs : t list) = List.find_opt (fun iv -> iv.governing) ivs

(** Derived IVs: values that are affine in a basic IV (e.g. [4*i + 2]). *)
let derived (ls : Loopstructure.t) (ivs : t list) : derived list =
  let f = ls.Loopstructure.f in
  let l = ls.Loopstructure.raw in
  let iv_ids = List.concat_map (fun iv -> iv.scc) ivs in
  List.filter_map
    (fun (i : Instr.inst) ->
      if List.mem i.Instr.id iv_ids then None
      else
        match i.Instr.op with
        | Instr.Bin ((Instr.Add | Instr.Sub | Instr.Mul | Instr.Shl), _, _)
        | Instr.Gep _ ->
          List.find_map
            (fun iv ->
              match Scev.affine_of f l ~iv_phi:iv.phi.Instr.id (Instr.Reg i.Instr.id) with
              | Some a when not (Int64.equal a.Scev.scale 0L) ->
                Some { dinst = i; base_iv = iv }
              | _ -> None)
            ivs
        | _ -> None)
    (Loopstructure.insts ls)
