(** Induction variables (IV, §2.2).

    Because the IR is SSA, an induction variable is embodied by an SCC of
    the loop's aSCCDAG: a header phi plus its update arithmetic.  NOELLE's
    detector works on that SCC and therefore handles while-shaped loops,
    do-while-shaped loops, and rotated forms alike; it also identifies the
    {e governing} IV (the one that controls the number of iterations) and
    derived IVs.  Contrast with {!Indvars_llvm}, the baseline detector that
    reproduces LLVM's do-while-only behaviour for the §4.3 experiment. *)

open Ir

type governing = {
  cmp : Instr.inst;            (** the comparison deciding the exit *)
  br : Instr.inst;             (** the conditional branch using it *)
  bound : Instr.value;         (** loop-invariant bound *)
  pred : Instr.cmp;            (** predicate with IV on the left *)
  exit_on_false : bool;        (** does the false edge leave the loop? *)
}

type t = {
  phi : Instr.inst;            (** the header phi *)
  start : Instr.value;         (** incoming value from outside the loop *)
  step : Instr.value;          (** loop-invariant step (negated for sub) *)
  update : Instr.inst;         (** the add/sub computing the next value *)
  scc : int list;              (** instruction ids of the IV's SCC *)
  governing : governing option;
}

type derived = {
  dinst : Instr.inst;          (** the derived value *)
  base_iv : t;                 (** IV it is derived from *)
}

let swap_pred = function
  | Instr.Slt -> Instr.Sgt
  | Instr.Sle -> Instr.Sge
  | Instr.Sgt -> Instr.Slt
  | Instr.Sge -> Instr.Sle
  | (Instr.Eq | Instr.Ne) as p -> p

(** Detect the basic IVs of loop [ls] from its dependence-graph SCCs. *)
let find (ls : Loopstructure.t) (dag : Sccdag.t) : t list =
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
        | [ (_, start) ], [ (_, Instr.Reg upd_id) ] -> (
          match Func.inst_opt f upd_id with
          | Some ({ Instr.op = Instr.Bin (Instr.Add, a, b); _ } as upd) ->
            let step =
              if Instr.value_equal a (Instr.Reg phi.Instr.id) && invariant b then Some b
              else if Instr.value_equal b (Instr.Reg phi.Instr.id) && invariant a then Some a
              else None
            in
            Option.map
              (fun step ->
                let scc =
                  match Sccdag.scc_of_inst dag phi.Instr.id with
                  | Some sid -> (Sccdag.scc_by_id dag sid).Sccdag.members
                  | None -> [ phi.Instr.id; upd_id ]
                in
                { phi; start; step; update = upd; scc; governing = None })
              step
          | Some ({ Instr.op = Instr.Bin (Instr.Sub, a, Instr.Cint c); _ } as upd)
            when Instr.value_equal a (Instr.Reg phi.Instr.id) ->
            let scc =
              match Sccdag.scc_of_inst dag phi.Instr.id with
              | Some sid -> (Sccdag.scc_by_id dag sid).Sccdag.members
              | None -> [ phi.Instr.id; upd_id ]
            in
            Some
              {
                phi;
                start;
                step = Instr.Cint (Int64.neg c);
                update = upd;
                scc;
                governing = None;
              }
          | _ -> None)
        | _ -> None)
      | _ -> None)
    (Loopstructure.header_phis ls)

(** Attach governing information: the IV governs the loop when an exiting
    branch tests it (or its update) against a loop-invariant bound. *)
let detect_governing (ls : Loopstructure.t) (iv : t) : t =
  let f = ls.Loopstructure.f in
  let l = ls.Loopstructure.raw in
  let invariant v = Scev.is_invariant_value f l v in
  let found =
    List.find_map
      (fun (from_blk, to_blk) ->
        match Func.terminator f from_blk with
        | Some ({ Instr.op = Instr.Cbr (Instr.Reg c, _tgt, els); _ } as br) -> (
          match Func.inst_opt f c with
          | Some ({ Instr.op = Instr.Icmp (pred, a, b); _ } as cmp) ->
            let is_iv v =
              Instr.value_equal v (Instr.Reg iv.phi.Instr.id)
              || Instr.value_equal v (Instr.Reg iv.update.Instr.id)
            in
            let mk pred bound =
              let exit_on_false = els = to_blk in
              Some { cmp; br; bound; pred; exit_on_false }
            in
            if is_iv a && invariant b then mk pred b
            else if is_iv b && invariant a then mk (swap_pred pred) a
            else None
          | _ -> None)
        | _ -> None)
      ls.Loopstructure.exit_edges
  in
  { iv with governing = found }

(** All IVs of the loop, with governing info attached. *)
let analyze (ls : Loopstructure.t) (dag : Sccdag.t) : t list =
  List.map (detect_governing ls) (find ls dag)

(** The governing IV of the loop, if one exists. *)
let governing_iv (ivs : t list) = List.find_opt (fun iv -> iv.governing <> None) ivs

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
