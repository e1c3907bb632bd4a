(** CARAT — compiler- and runtime-based address translation (§3, [46]).

    Co-designed with the OS to replace virtual memory: the compiler guards
    every memory instruction that cannot be proven valid at compile time,
    calling into the runtime's allocation tracker.  Per the paper, CARAT
    uses the PDG / aSCCDAG / INV to decide what needs guarding, DFE (+ PRO)
    to avoid redundantly guarding the same location, L / LB / IV to merge
    per-iteration guards into a single range guard hoisted before the
    loop, and SCD to place guards.

    The runtime ({!Toolrt}) implements [carat_guard]/[carat_guard_range]
    against the interpreter's allocation index — the same check the real
    CARAT performs against its kernel allocation map. *)

open Ir
open Noelle

type stats = {
  mem_insts : int;
  guards_inserted : int;      (** per-access guards *)
  range_guards : int;         (** per-loop merged guards *)
  proven_safe : int;          (** accesses needing no guard *)
  redundant_skipped : int;    (** skipped thanks to the data-flow analysis *)
}

let declare_runtime (m : Irmod.t) =
  if Irmod.func_opt m "carat_guard" = None then
    Irmod.add_func m
      (Func.declare ~name:"carat_guard" ~params:[ ("p", Ty.Ptr) ] ~ret:Ty.I64);
  if Irmod.func_opt m "carat_guard_range" = None then
    Irmod.add_func m
      (Func.declare ~name:"carat_guard_range"
         ~params:[ ("p", Ty.Ptr); ("len", Ty.I64) ]
         ~ret:Ty.I64)

(** Is the access provably in-bounds at compile time?  Non-escaping
    allocas and globals with known-constant offsets within their size. *)
let provably_safe (m : Irmod.t) (f : Func.t) (p : Instr.value) =
  match Alias.base_of f p with
  | Alias.Balloca _ -> (
    match Alias.const_offset f p with Some _ -> true | None -> false)
  | Alias.Bglobal g -> (
    match (Irmod.global_opt m g, Alias.const_offset f p) with
    | Some gl, Some off -> off >= 0L && off < Int64.of_int gl.Irmod.size
    | _ -> false)
  | _ -> false

let run (n : Noelle.t) (m : Irmod.t) : stats =
  Noelle.set_tool n "CARAT";
  Noelle.dfe n;
  Noelle.profiler n;
  Noelle.loop_builder n;
  Noelle.iv_stepper n;
  declare_runtime m;
  let mem_insts = ref 0 and guards = ref 0 and ranges = ref 0 in
  let safe = ref 0 and redundant = ref 0 in
  List.iter
    (fun (f : Func.t) ->
      let pdg = Noelle.pdg n f in
      let sched = Noelle.scheduler n f in
      ignore sched;
      let loops = Noelle.loops n f in
      (* loop-merged guards: accesses whose address is affine in the
         governing IV of a loop with an exact constant trip count get one
         range guard in the preheader, over the IV's range (Bounds) *)
      let merged : (int, unit) Hashtbl.t = Hashtbl.create 16 in
      List.iter
        (fun lp ->
          let ls = Loop.structure lp in
          let ivs = Noelle.induction_variables n lp in
          ignore (Noelle.invariants n lp);
          ignore (Noelle.aSCCDAG n lp);
          let raw = ls.Loopstructure.raw in
          match
            Option.bind (Indvars.governing_iv ivs) (fun iv ->
                Option.map (fun r -> (iv, r)) (Bounds.phi_range f raw iv.Indvars.phi))
          with
          | Some (iv, (plo, phi_hi)) ->
            List.iter
              (fun (i : Instr.inst) ->
                match Alias.pointer_operand i with
                | Some p when not (provably_safe m f p) -> (
                  match Scev.affine_of f raw ~iv_phi:iv.Indvars.phi.Instr.id p with
                  | Some a
                    when (not (Int64.equal a.Scev.scale 0L)) && a.Scev.base <> None ->
                    if not (Hashtbl.mem merged i.Instr.id) then begin
                      (* range = base + offset + scale*[plo, phi_hi] *)
                      let ph = Loopbuilder.ensure_preheader f raw in
                      let base = Option.get a.Scev.base in
                      let first =
                        Int64.add a.Scev.offset
                          (Int64.min (Int64.mul a.Scev.scale plo)
                             (Int64.mul a.Scev.scale phi_hi))
                      in
                      let lo =
                        if Int64.equal first 0L then base
                        else
                          Instr.Reg
                            (Builder.add f ph (Instr.Gep (base, Instr.Cint first)) Ty.Ptr)
                              .Instr.id
                      in
                      let len =
                        Int64.succ (Int64.mul (Int64.abs a.Scev.scale) (Int64.sub phi_hi plo))
                      in
                      ignore
                        (Builder.add f ph
                           (Instr.Call
                              (Instr.Glob "carat_guard_range", [ lo; Instr.Cint len ]))
                           Ty.I64);
                      Hashtbl.replace merged i.Instr.id ();
                      incr ranges
                    end
                  | _ -> ())
                | _ -> ())
              (Loopstructure.insts ls)
          | None -> ())
        loops;
      (* redundancy elimination with the DFE: a guard for pointer [p] makes
         every later access through the same address guard-free on all
         paths it dominates.  Facts are the ids of guard-needing accesses;
         the meet is intersection (available-guards, a forward problem). *)
      ignore pdg;
      let candidates =
        Func.fold_insts
          (fun acc i ->
            match Alias.pointer_operand i with
            | Some p ->
              incr mem_insts;
              if provably_safe m f p then begin
                incr safe;
                acc
              end
              else if Hashtbl.mem merged i.Instr.id then acc
              else (i, p) :: acc
            | None -> acc)
          [] f
        |> List.rev
      in
      let cand_tbl = Hashtbl.create 16 in
      List.iter (fun (i, p) -> Hashtbl.replace cand_tbl i.Instr.id p) candidates;
      let universe =
        List.fold_left
          (fun acc (i, _) -> Dfe.IntSet.add i.Instr.id acc)
          Dfe.IntSet.empty candidates
      in
      let frees b =
        List.exists
          (fun id ->
            match (Func.inst f id).Instr.op with
            | Instr.Call (Instr.Glob "free", _) -> true
            | _ -> false)
          (Func.block f b).Func.insts
      in
      let gen b =
        if frees b then Dfe.IntSet.empty
        else
          List.fold_left
            (fun acc id ->
              if Hashtbl.mem cand_tbl id then Dfe.IntSet.add id acc else acc)
            Dfe.IntSet.empty
            (Func.block f b).Func.insts
      in
      let avail =
        Dfe.solve f
          {
            Dfe.direction = Dfe.Forward;
            gen;
            (* a free() invalidates every cached guard *)
            kill = (fun b -> if frees b then universe else Dfe.IntSet.empty);
            boundary = Dfe.IntSet.empty;
            init = universe;
            combine = Dfe.IntSet.inter;
          }
      in
      (* walk each block in order, carrying the available set *)
      Func.iter_blocks
        (fun b ->
          let avail_here =
            ref
              (try Hashtbl.find avail.Dfe.in_ b.Func.bid
               with Not_found -> Dfe.IntSet.empty)
          in
          List.iter
            (fun id ->
              match Hashtbl.find_opt cand_tbl id with
              | None -> ()
              | Some p ->
                let covered =
                  Dfe.IntSet.exists
                    (fun other ->
                      other <> id
                      &&
                      match Hashtbl.find_opt cand_tbl other with
                      | Some q -> Alias.same_address f p q
                      | None -> false)
                    !avail_here
                in
                if covered then incr redundant
                else begin
                  (* SCD places the guard right before the access *)
                  ignore
                    (Builder.insert_before f ~before:id
                       (Instr.Call (Instr.Glob "carat_guard", [ p ]))
                       Ty.I64);
                  incr guards
                end;
                avail_here := Dfe.IntSet.add id !avail_here)
            (List.filter
               (fun id ->
                 (match Func.inst_opt f id with
                 | Some { Instr.op = Instr.Call (Instr.Glob "free", _); _ } ->
                   avail_here := Dfe.IntSet.empty
                 | _ -> ());
                 Func.mem_inst f id)
               b.Func.insts))
        f)
    (Irmod.defined_functions m);
  Noelle.invalidate n;
  {
    mem_insts = !mem_insts;
    guards_inserted = !guards;
    range_guards = !ranges;
    proven_safe = !safe;
    redundant_skipped = !redundant;
  }
