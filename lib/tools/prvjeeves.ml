(** PRVJeeves — pseudo-random value generator selection (§3, [38]).

    Selects, per use site, the cheapest PRVG whose statistical quality
    suffices for the randomized program (Monte Carlo simulations and
    friends).  Per the paper it uses the PDG / CG / DFE to identify the
    allocations and uses of PRVGs, PRO to prune the design space (cold
    sites are left alone), L / LB / INV / IV to recognize uses inside hot
    loops, and SCD to place the selected generator's calls.

    Design space (implemented by {!Toolrt}): the default [rand] models a
    high-quality generator (Mersenne-Twister class, 40 extra cycles per
    call); [prv_xorshift] (8 cycles) and [prv_lcg] (2 cycles) are cheaper
    but weaker.  Quality demand is inferred from the PDG: a site whose
    value is immediately reduced to a small range (mask/modulo by a small
    constant) tolerates a weak generator; a site feeding floating-point
    conversion keeps a mid-quality one; anything else stays untouched. *)

open Ir
open Noelle

type choice = Keep | Xorshift | Lcg

type site = {
  fname : string;
  inst_id : int;
  hot : bool;
  chosen : choice;
}

type stats = {
  sites : site list;
  changed : int;
}

let declare_runtime (m : Irmod.t) =
  List.iter
    (fun name ->
      if Irmod.func_opt m name = None then
        Irmod.add_func m (Func.declare ~name ~params:[] ~ret:Ty.I64))
    [ "prv_xorshift"; "prv_lcg" ]

(** Infer the quality demand of a rand call from its users (via the PDG):
    [`Mask k] when every user masks/mods the value into [0,k); [`Float]
    when converted to float; [`Full] otherwise. *)
let demand (pdg : Pdg.t) (f : Func.t) (call : Instr.inst) =
  let users =
    List.filter_map
      (fun (e : Depgraph.edge) ->
        match e.Depgraph.kind with
        | Depgraph.Register _ -> Func.inst_opt f e.Depgraph.edst
        | _ -> None)
      (Depgraph.succs pdg.Pdg.fdg call.Instr.id)
  in
  if users = [] then `Mask 0L
  else if
    List.for_all
      (fun (u : Instr.inst) ->
        match u.Instr.op with
        | Instr.Bin (Instr.And, _, Instr.Cint k) when k < 65536L -> true
        | Instr.Bin (Instr.Srem, _, Instr.Cint k) when k < 65536L -> true
        | _ -> false)
      users
  then `Mask 65536L
  else if
    List.for_all
      (fun (u : Instr.inst) ->
        match u.Instr.op with
        | Instr.Cast (Instr.Sitofp, _) -> true
        | Instr.Bin ((Instr.And | Instr.Srem), _, Instr.Cint _) -> true
        | _ -> false)
      users
  then `Float
  else `Full

let run (n : Noelle.t) (m : Irmod.t) ?(hot_threshold = 0.01) () : stats =
  Noelle.set_tool n "PRVJ";
  Noelle.dfe n;
  Noelle.profiler n;
  Noelle.loop_builder n;
  declare_runtime m;
  ignore (Noelle.callgraph n);
  let sites = ref [] and changed = ref 0 in
  List.iter
    (fun (f : Func.t) ->
      if String.contains f.Func.fname '.' then ()
      else begin
        let pdg = Noelle.pdg n f in
        let loops = Noelle.loops n f in
        (* hot sites: inside a loop whose hotness clears the threshold
           (IV / INV / L recognize the enclosing loop) *)
        let hotness_of (i : Instr.inst) =
          List.exists
            (fun lp ->
              let ls = Loop.structure lp in
              ignore (Noelle.induction_variables n lp);
              ignore (Noelle.invariants n lp);
              Loopstructure.contains_inst ls i
              && ((not (Profiler.available m))
                 || Profiler.loop_hotness m ls >= hot_threshold))
            loops
        in
        Func.iter_insts
          (fun i ->
            match i.Instr.op with
            | Instr.Call (Instr.Glob "rand", []) ->
              let hot = hotness_of i in
              let chosen =
                if not hot then Keep (* PRO prunes the design space *)
                else
                  match demand pdg f i with
                  | `Mask _ -> Lcg
                  | `Float -> Xorshift
                  | `Full -> Keep
              in
              (match chosen with
              | Keep -> ()
              | Xorshift ->
                Builder.set_op f i (Instr.Call (Instr.Glob "prv_xorshift", []));
                incr changed
              | Lcg ->
                Builder.set_op f i (Instr.Call (Instr.Glob "prv_lcg", []));
                incr changed);
              sites :=
                { fname = f.Func.fname; inst_id = i.Instr.id; hot; chosen } :: !sites
            | _ -> ())
          f
      end)
    (Irmod.defined_functions m);
  Noelle.invalidate n;
  { sites = List.rev !sites; changed = !changed }
