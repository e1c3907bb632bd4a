(** Compiler-based timing (COOS, §3, [31]).

    Co-designed with the OS to replace hardware timer interrupts: the
    compiler injects calls to an OS callback routine so that no more than
    a budget of [k] dynamic instructions ever executes between two
    callbacks.  Per the paper it uses DFE (+ PRO) for its specialized
    data-flow analysis of instruction distances, L / FR / LB to handle
    potentially-infinite loops, and CG to improve the accuracy of the
    interprocedural timing analysis. *)

open Ir
open Noelle

type stats = {
  callbacks_inserted : int;
  functions_instrumented : int;
}

let declare_runtime (m : Irmod.t) =
  if Irmod.func_opt m "os_callback" = None then
    Irmod.add_func m (Func.declare ~name:"os_callback" ~params:[] ~ret:Ty.I64)

(** Worst-case straight-line gap of a function, treating calls to defined
    functions via the call-graph summary ([None] = the callee guarantees a
    callback on every path, resetting the distance). *)
let rec fn_gap (cg : Callgraph.t) (memo : (string, int) Hashtbl.t)
    (visiting : string list) (m : Irmod.t) fname : int =
  match Hashtbl.find_opt memo fname with
  | Some g -> g
  | None ->
    if List.mem fname visiting then 1_000_000  (* recursive: unbounded *)
    else begin
      let g =
        match Irmod.func_opt m fname with
        | Some f when not f.Func.is_declaration ->
          (* sum of block sizes along the worst acyclic path, loops count
             as unbounded unless they contain a callback (handled by the
             instrumentation pass before summaries are consulted) *)
          let nest = Loopnest.compute f in
          if nest.Loopnest.loops <> [] then 1_000_000
          else
            Func.fold_insts
              (fun acc i ->
                acc + 1
                +
                match i.Instr.op with
                | Instr.Call (Instr.Glob g, _) when g <> "os_callback" ->
                  fn_gap cg memo (fname :: visiting) m g
                | _ -> 0)
              0 f
        | _ -> 1 (* builtins are short *)
      in
      Hashtbl.replace memo fname g;
      g
    end

let run (n : Noelle.t) (m : Irmod.t) ?(budget = 500) () : stats =
  Noelle.set_tool n "COOS";
  Noelle.dfe n;
  Noelle.profiler n;
  Noelle.loop_builder n;
  declare_runtime m;
  let cg = Noelle.callgraph n in
  let inserted = ref 0 and funcs = ref 0 in
  let memo = Hashtbl.create 16 in
  List.iter
    (fun (f : Func.t) ->
      if String.contains f.Func.fname '.' then ()
      else begin
        let before = !inserted in
        (* 1. potentially-unbounded loops get a callback in the body
           (innermost first via FR) unless a constant trip bound keeps the
           whole loop under budget *)
        let forest = Noelle.loop_forest n f in
        List.iter
          (fun nd ->
            let raw = nd.Forest.value in
            let lp =
              List.find_opt
                (fun lp ->
                  (Loop.structure lp).Loopstructure.header = raw.Loopnest.header)
                (Noelle.loops n f)
            in
            match lp with
            | None -> ()
            | Some lp ->
              let ls = Loop.structure lp in
              let body_size = Loopstructure.size ls in
              let bounded =
                match
                  ( Indvars.governing_iv (Noelle.induction_variables n lp),
                    Bounds.exact_trips f raw )
                with
                | Some _, Some ((Bounds.Exact _ as body), _) -> (
                  match Bounds.trip_const body with
                  | Some t -> Int64.to_int t * body_size <= budget
                  | None -> false)
                | _ -> false
              in
              let already =
                List.exists
                  (fun (i : Instr.inst) ->
                    match i.Instr.op with
                    | Instr.Call (Instr.Glob "os_callback", _) -> true
                    | _ -> false)
                  (Loopstructure.insts ls)
              in
              if (not bounded) && not already then begin
                (* place in the header so every iteration passes it *)
                let hdr = ls.Loopstructure.header in
                let first = List.hd (Func.block f hdr).Func.insts in
                let rec after_phis id rest =
                  match (Func.inst f id).Instr.op with
                  | Instr.Phi _ -> (
                    match rest with
                    | x :: r -> after_phis x r
                    | [] -> id)
                  | _ -> id
                in
                let anchor =
                  match (Func.block f hdr).Func.insts with
                  | x :: rest -> after_phis x rest
                  | [] -> first
                in
                ignore
                  (Builder.insert_before f ~before:anchor
                     (Instr.Call (Instr.Glob "os_callback", []))
                     Ty.I64);
                incr inserted
              end)
          (Forest.nodes_postorder forest);
        (* 2. straight-line stretches: a forward scan per block inserting a
           callback whenever the accumulated distance exceeds the budget;
           call sites account for callee gaps via the CG summary *)
        Func.iter_blocks
          (fun b ->
            let dist = ref 0 in
            List.iter
              (fun id ->
                if Func.mem_inst f id then begin
                  let i = Func.inst f id in
                  let cost =
                    1
                    +
                    match i.Instr.op with
                    | Instr.Call (Instr.Glob "os_callback", _) ->
                      dist := -1;
                      0
                    | Instr.Call (Instr.Glob g, _) -> fn_gap cg memo [] m g
                    | _ -> 0
                  in
                  if !dist >= 0 then begin
                    dist := !dist + cost;
                    if !dist > budget && not (Instr.is_terminator i) then begin
                      ignore
                        (Builder.insert_before f ~before:id
                           (Instr.Call (Instr.Glob "os_callback", []))
                           Ty.I64);
                      incr inserted;
                      dist := cost
                    end
                  end
                  else dist := 0
                end)
              b.Func.insts)
          f;
        if !inserted > before then incr funcs
      end)
    (Irmod.defined_functions m);
  Noelle.invalidate n;
  { callbacks_inserted = !inserted; functions_instrumented = !funcs }
