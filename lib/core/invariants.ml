(** Loop invariants via the PDG (INV, §2.2 and Algorithm 2).

    NOELLE's invariant detection is the paper's flagship example of the
    power of building on a higher-level abstraction: instead of LLVM's
    case analysis over loads/stores/calls with alias queries and dominator
    walks (Algorithm 1, reproduced in {!Invariants_llvm}), it recurses over
    the PDG: an instruction is invariant when everything it depends on is
    either outside the loop or itself invariant, with a visit stack cutting
    cycles.  Smaller, simpler, and more precise (Figure 4). *)

open Ir

type t = {
  ls : Loopstructure.t;
  invariant : (int, bool) Hashtbl.t;  (** memoized per-instruction answers *)
}

(** Is instruction [id] an invariant of the loop?  Faithful to Algorithm 2:
    [s] is the stack of instructions currently under analysis. *)
let rec is_invariant_rec (pdg : Pdg.t) (ls : Loopstructure.t) memo (s : int list)
    (id : int) : bool =
  match Hashtbl.find_opt memo id with
  | Some r -> r
  | None ->
    if List.mem id s then false
    else begin
      let f = ls.Loopstructure.f in
      let i = Func.inst f id in
      let candidate =
        match i.Instr.op with
        | Instr.Phi _ | Instr.Br _ | Instr.Cbr _ | Instr.Ret _ | Instr.Unreachable
        | Instr.Alloca _ -> false
        | Instr.Store _ -> false (* a store computes no loop-usable value *)
        | Instr.Call (callee, _) -> Alias.is_pure_builtin callee
        | _ -> true
      in
      let r =
        candidate
        && List.for_all
             (fun (e : Depgraph.edge) ->
               match e.Depgraph.kind with
               | Depgraph.Control ->
                 true
                 (* the loop's own branches gate every instruction in the
                    body; invariance is about the produced value, so only
                    data dependences participate in the recursion *)
               | _ -> (
                 let j = e.Depgraph.esrc in
                 match Func.inst_opt f j with
                 | Some ji when Loopstructure.contains_inst ls ji ->
                   is_invariant_rec pdg ls memo (id :: s) j
                 | _ -> true (* dependence from outside the loop *)))
             (Depgraph.preds pdg.Pdg.fdg id)
      in
      Hashtbl.replace memo id r;
      r
    end

(** Compute the invariants of loop [ls] using the PDG. *)
let compute (pdg : Pdg.t) (ls : Loopstructure.t) : t =
  let memo = Hashtbl.create 64 in
  List.iter
    (fun (i : Instr.inst) ->
      ignore (is_invariant_rec pdg ls memo [] i.Instr.id))
    (Loopstructure.insts ls);
  { ls; invariant = memo }

let is_invariant (t : t) id =
  match Hashtbl.find_opt t.invariant id with Some r -> r | None -> false

(** The invariant instructions, in loop layout order. *)
let invariants (t : t) =
  List.filter
    (fun (i : Instr.inst) -> is_invariant t i.Instr.id)
    (Loopstructure.insts t.ls)

let count (t : t) = List.length (invariants t)
