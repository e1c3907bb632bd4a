(** Time-Squeezer (TIME, §3, [28, 29]).

    Generates code for timing-speculative micro-architectures, where the
    clock period can be shortened while only some instruction classes
    remain timing-safe.  The compiler decides (i) when to swap compare
    operands (and flip the predicate) so the critical carry chain shortens,
    (ii) how to re-schedule instructions so same-period instructions
    cluster (each period switch costs re-timing cycles), and (iii) where
    the clock-change points land.  Per the paper it uses DFE / L / FR to
    choose clock-change points, SCD to reorder within regions, and
    ISL + PDG to analyze the compare instructions per dependence island.

    The timing model: "fast" instructions run at period 1.0, "slow" at
    1.15; every switch between classes inside a block costs
    [switch_penalty] cycles. *)

open Ir
open Noelle

type klass = Fast | Slow

type stats = {
  cmps_swapped : int;
  switches_before : int;
  switches_after : int;
  islands_analyzed : int;
  est_cycles_before : float;
  est_cycles_after : float;
}

let switch_penalty = 4.0

(** Timing class of an instruction.  Compares against immediates resolve
    early (fast); register-register compares, floating point, and memory
    are slow. *)
let class_of (i : Instr.inst) =
  match i.Instr.op with
  | Instr.Icmp (_, _, Instr.Cint _) -> Fast
  | Instr.Icmp _ -> Slow
  | Instr.Fcmp _ | Instr.Fbin _ -> Slow
  | Instr.Load _ | Instr.Store _ | Instr.Call _ -> Slow
  | Instr.Bin ((Instr.Mul | Instr.Sdiv | Instr.Srem), _, _) -> Slow
  | _ -> Fast

let period = function Fast -> 1.0 | Slow -> 1.15

(** Count class switches along each block's schedule, weighted by the
    block's execution count when a profile is available. *)
let eval (m : Irmod.t) (f : Func.t) =
  let switches = ref 0 and cycles = ref 0.0 in
  Func.iter_blocks
    (fun b ->
      let w =
        if Profiler.available m then
          Int64.to_float (Int64.max 1L (Profiler.block_count m f b.Func.bid))
        else 1.0
      in
      let prev = ref None in
      List.iter
        (fun id ->
          let k = class_of (Func.inst f id) in
          cycles := !cycles +. (w *. period k);
          (match !prev with
          | Some p when p <> k ->
            incr switches;
            cycles := !cycles +. (w *. switch_penalty)
          | _ -> ());
          prev := Some k)
        b.Func.insts)
    f;
  (!switches, !cycles)

let run (n : Noelle.t) (m : Irmod.t) : stats =
  Noelle.set_tool n "TIME";
  Noelle.dfe n;
  Noelle.loop_builder n;
  let swapped = ref 0 and islands = ref 0 in
  let sw_before = ref 0 and sw_after = ref 0 in
  let cy_before = ref 0.0 and cy_after = ref 0.0 in
  List.iter
    (fun (f : Func.t) ->
      ignore (Noelle.loop_forest n f);
      let pdg = Noelle.pdg n f in
      Noelle.islands n;
      islands := !islands + List.length (Islands.of_depgraph pdg.Pdg.fdg);
      let s0, c0 = eval m f in
      sw_before := !sw_before + s0;
      cy_before := !cy_before +. c0;
      (* 1. swap compare operands so the immediate lands on the right *)
      Func.iter_insts
        (fun i ->
          match i.Instr.op with
          | Instr.Icmp (pred, Instr.Cint c, b) ->
            Builder.set_op f i (Instr.Icmp (Instr.swap_cmp pred, b, Instr.Cint c));
            incr swapped
          | _ -> ())
        f;
      (* 2. cluster timing classes with the within-block scheduler; the
         dependence constraints can force interleavings that are worse
         than the original order, so keep a block's new schedule only when
         it reduces that block's cost *)
      let block_cost bid =
        let prev = ref None and cost = ref 0.0 in
        List.iter
          (fun id ->
            let k = class_of (Func.inst f id) in
            cost := !cost +. period k;
            (match !prev with
            | Some p when p <> k -> cost := !cost +. switch_penalty
            | _ -> ());
            prev := Some k)
          (Func.block f bid).Func.insts;
        !cost
      in
      let sched = Noelle.scheduler n f in
      List.iter
        (fun bid ->
          let before_order = (Func.block f bid).Func.insts in
          let before_cost = block_cost bid in
          Scheduler.schedule_block sched bid ~priority:(fun i ->
              match class_of i with Fast -> 0 | Slow -> 1);
          if block_cost bid > before_cost then
            Builder.set_order f bid before_order)
        (Func.blocks f);
      let s1, c1 = eval m f in
      sw_after := !sw_after + s1;
      cy_after := !cy_after +. c1)
    (Irmod.defined_functions m);
  Noelle.invalidate n;
  {
    cmps_swapped = !swapped;
    switches_before = !sw_before;
    switches_after = !sw_after;
    islands_analyzed = !islands;
    est_cycles_before = !cy_before;
    est_cycles_after = !cy_after;
  }
