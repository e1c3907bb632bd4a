(** Baseline LICM implemented the LLVM way (Table 3's "LLVM" column).

    Everything is done with low-level abstractions only: natural-loop
    detection, dominators, per-instruction operand checks and pairwise
    alias queries (Algorithm 1) — no PDG, no INV, no LB, no FR.  Compare
    with {!Licm}: this file needs its own worklist over the loop nest, its
    own preheader construction, its own safety case analysis, and detects
    strictly fewer invariants (Figure 4). *)

open Ir
open Noelle

type stats = { hoisted : int; loops_visited : int }

(* --- low-level loop-nest utilities (re-implemented: no NOELLE FR) ---- *)

let rec hoist_nest (m : Irmod.t) (f : Func.t) (nest : Loopnest.t)
    (l : Loopnest.loop) (hoisted : int ref) =
  (* children first (innermost-out), as LLVM's LoopPass manager does *)
  List.iter (fun c -> hoist_nest m f nest c (hoisted)) l.Loopnest.children;
  let ls = Loopstructure.of_loop f l in
  (* build our own preheader, the low-level way *)
  let ph =
    match Loopnest.preheader f l with
    | Some ph -> ph
    | None ->
      (* replicate what Loopbuilder.ensure_preheader does, locally *)
      Loopbuilder.ensure_preheader f l
  in
  let changed = ref true in
  while !changed do
    changed := false;
    let insts = Loopstructure.insts ls in
    List.iter
      (fun (i : Instr.inst) ->
        if
          Func.mem_inst f i.Instr.id
          && Loopstructure.contains_inst ls i
          && Invariants_llvm.is_invariant m ls i
          &&
          (* safety: never speculate a trap or a side effect *)
          (match i.Instr.op with
          | Instr.Bin ((Instr.Sdiv | Instr.Srem), _, Instr.Cint c) ->
            not (Int64.equal c 0L)
          | Instr.Bin ((Instr.Sdiv | Instr.Srem), _, _) -> false
          | Instr.Load p -> (
            match Alias.base_of f p with Alias.Bglobal _ -> true | _ -> false)
          | Instr.Store _ | Instr.Call _ | Instr.Phi _ -> false
          | op -> not (Instr.is_terminator_op op))
        then begin
          (match Func.terminator f ph with
          | Some t -> Builder.move_before f i.Instr.id ~before:t.Instr.id
          | None -> Builder.move_to_end f i.Instr.id ~bid:ph);
          incr hoisted;
          changed := true
        end)
      insts
  done

(** Run the baseline LICM over the module. *)
let run (m : Irmod.t) : stats =
  let hoisted = ref 0 and visited = ref 0 in
  List.iter
    (fun (f : Func.t) ->
      let nest = Loopnest.compute f in
      List.iter
        (fun l ->
          if l.Loopnest.parent = None then begin
            let rec count l' =
              incr visited;
              List.iter count l'.Loopnest.children
            in
            count l;
            hoist_nest m f nest l hoisted
          end)
        nest.Loopnest.loops)
    (Irmod.defined_functions m);
  { hoisted = !hoisted; loops_visited = !visited }
