(** Perspective (PERS, §3, [15]) — speculative parallelization that
    minimizes speculation and privatization costs.

    The paper ported the original Perspective onto NOELLE's PDG and
    aSCCDAG.  This reproduction keeps that structure: the planner consumes
    the same loop dependence graph DOALL sees, but additionally consults a
    memory-dependence {e profile} distinguishing apparent dependences
    (may-alias edges the static analysis cannot disprove) from actual ones
    (conflicts that really occur).  Only the apparent-but-never-actual
    loop-carried memory edges blocking parallelization are speculated
    away — the "minimum speculation" selection — and reductions are the
    only privatized state.

    Substitution note (DESIGN.md): the original validates speculation with
    process-based checkpointing; here the profile is exact for the profiled
    input (the interpreter observes every access), and the test-suite
    re-validates by comparing parallel and sequential program outputs. *)

open Ir
open Noelle

type stats = {
  loop_id : string;
  speculated_edges : int;
  privatized : int;            (** reductions privatized by DOALL's planner *)
  cloned_objects : string list;
      (** globals privatized per task (memory-object cloning) *)
  ncores : int;
}

(* ------------------------------------------------------------------ *)
(* Memory-dependence profiling (apparent vs actual, §2.2 PDG attrs)    *)
(* ------------------------------------------------------------------ *)

(* per-loop dynamic profile *)
type lprof = {
  mutable active : bool;
  mutable iter : int;
  mutable ran : bool;
  (* addr -> (last access iter, last was write, last write iter) *)
  tbl : (int, int * bool * int option) Hashtbl.t;
  conflict_bases : (string, unit) Hashtbl.t;
      (* objects with an observed cross-iteration conflict ("?" = unknown) *)
  priv_bad : (string, unit) Hashtbl.t;
      (* objects read before a same-iteration write, or read after the loop:
         not privatizable *)
}

(** Run the program once, tracking for every loop (a) which objects carry
    {e actual} cross-iteration conflicts and (b) which of those are
    privatizable (every in-loop read follows a same-iteration write, and
    the object is never read again after the loop) — the memory-object
    cloning analysis the paper lists as future work (§4.4, crc).  Embeds
    "memconf.<fn>.<label>" and "mempriv.<fn>.<label>" metadata. *)
let profile_conflicts ?(entry = "main") ?(args = []) ?fuel (m : Irmod.t) =
  (* static loop maps per function *)
  let nests = Hashtbl.create 8 in
  List.iter
    (fun (f : Func.t) ->
      Hashtbl.replace nests f.Func.fname (f, Loopnest.compute f))
    (Irmod.defined_functions m);
  let state : (string * int, lprof) Hashtbl.t = Hashtbl.create 16 in
  let loop_state fn (l : Loopnest.loop) =
    let key = (fn, l.Loopnest.header) in
    match Hashtbl.find_opt state key with
    | Some s -> s
    | None ->
      let s =
        { active = false; iter = 0; ran = false; tbl = Hashtbl.create 64;
          conflict_bases = Hashtbl.create 4; priv_bad = Hashtbl.create 4 }
      in
      Hashtbl.replace state key s;
      s
  in
  (* resolve an address to the global that contains it, if any *)
  let globals = ref [] in
  let base_name addr =
    List.find_map
      (fun (b, sz, name) -> if addr >= b && addr < b + sz then Some name else None)
      !globals
  in
  let configure (st : Interp.state) =
    Hashtbl.iter
      (fun gname base ->
        match Irmod.global_opt m gname with
        | Some g -> globals := (base, g.Irmod.size, gname) :: !globals
        | None -> ())
      st.Interp.global_addr;
    st.Interp.hooks.Interp.on_block <-
      Some
        (fun f bid ->
          match Hashtbl.find_opt nests f.Func.fname with
          | None -> ()
          | Some (_, nest) ->
            List.iter
              (fun (l : Loopnest.loop) ->
                let s = loop_state f.Func.fname l in
                if Loopnest.contains l bid then begin
                  if not s.active then begin
                    s.active <- true;
                    s.ran <- true;
                    s.iter <- 0;
                    Hashtbl.reset s.tbl
                  end
                  else if bid = l.Loopnest.header then s.iter <- s.iter + 1
                end
                else if s.active then s.active <- false)
              nest.Loopnest.loops);
    st.Interp.hooks.Interp.on_mem <-
      Some
        (fun f _i ~addr ~write ->
          let g = base_name addr in
          (* post-loop reads poison privatizability of ran, inactive loops *)
          if not write then
            Option.iter
              (fun gname ->
                Hashtbl.iter
                  (fun _ (s : lprof) ->
                    if s.ran && not s.active then
                      Hashtbl.replace s.priv_bad gname ())
                  state)
              g;
          match Hashtbl.find_opt nests f.Func.fname with
          | None -> ()
          | Some (_, nest) ->
            List.iter
              (fun (l : Loopnest.loop) ->
                let s = loop_state f.Func.fname l in
                if s.active then begin
                  let obj = Option.value g ~default:"?" in
                  (match Hashtbl.find_opt s.tbl addr with
                  | Some (last_iter, last_was_write, last_write) ->
                    if last_iter <> s.iter && (write || last_was_write) then
                      Hashtbl.replace s.conflict_bases obj ();
                    if (not write) && last_write <> Some s.iter then
                      Hashtbl.replace s.priv_bad obj ()
                  | None ->
                    if not write then Hashtbl.replace s.priv_bad obj ());
                  let last_write =
                    if write then Some s.iter
                    else
                      match Hashtbl.find_opt s.tbl addr with
                      | Some (_, _, lw) -> lw
                      | None -> None
                  in
                  Hashtbl.replace s.tbl addr (s.iter, write, last_write)
                end)
              nest.Loopnest.loops)
  in
  Interp.book (Interp.start ~entry ~args ?fuel ~configure m);
  (* embed results *)
  Hashtbl.iter
    (fun (fn, header) (s : lprof) ->
      match Irmod.func_opt m fn with
      | Some f when Func.block_opt f header <> None ->
        let lbl = (Func.block f header).Func.label in
        let conflicts =
          Hashtbl.fold (fun k () acc -> k :: acc) s.conflict_bases []
          |> List.sort compare
        in
        let privatizable =
          List.filter
            (fun o -> o <> "?" && not (Hashtbl.mem s.priv_bad o))
            conflicts
        in
        Meta.set m.Irmod.meta
          (Printf.sprintf "memconf.%s.%s" fn lbl)
          (String.concat "," conflicts);
        Meta.set m.Irmod.meta
          (Printf.sprintf "mempriv.%s.%s" fn lbl)
          (String.concat "," privatizable)
      | _ -> ())
    state

let get_list (m : Irmod.t) prefix (ls : Loopstructure.t) =
  let lbl = (Func.block ls.Loopstructure.f ls.Loopstructure.header).Func.label in
  match
    Meta.get m.Irmod.meta
      (Printf.sprintf "%s.%s.%s" prefix ls.Loopstructure.f.Func.fname lbl)
  with
  | Some "" -> Some []
  | Some s -> Some (String.split_on_char ',' s)
  | None -> None

(** Objects with observed cross-iteration conflicts in this loop. *)
let loop_conflicts m ls = get_list m "memconf" ls

(** Conflicting objects that the profile proves privatizable. *)
let loop_privatizable m ls =
  Option.value (get_list m "mempriv" ls) ~default:[]

(* ------------------------------------------------------------------ *)
(* Planning: drop only the apparent loop-carried memory edges           *)
(* ------------------------------------------------------------------ *)

let speculative_plan (m : Irmod.t) (c : Parutil.candidate) :
    (Doall.plan * int * string list, string) result =
  let f = c.Parutil.f and lp = c.Parutil.lp in
  let ls = Loop.structure lp in
  match loop_conflicts m ls with
  | None -> Error "no memory profile for this loop (run profile_conflicts)"
  | Some conflicts ->
    let privatizable = loop_privatizable m ls in
    let blocking =
      List.filter (fun o -> not (List.mem o privatizable)) conflicts
    in
    if blocking <> [] then
      Error
        (Printf.sprintf
           "actual cross-iteration conflicts on non-privatizable objects (%s)"
           (String.concat " " blocking))
    else begin
      let ldg = Loop.dep_graph lp in
      (* drop blocking carried may edges: edges on privatizable objects
         are privatized (the object gets cloned per task); the rest are
         speculated (the profile saw no actual conflict) *)
      let speculated = ref 0 in
      let cloned : (string, unit) Hashtbl.t = Hashtbl.create 4 in
      let edge_object (e : Depgraph.edge) =
        let base_of_inst id =
          match Func.inst_opt f id with
          | Some i -> (
            match Alias.pointer_operand i with
            | Some p -> (
              match Alias.base_of f p with
              | Alias.Bglobal g -> Some g
              | _ -> None)
            | None -> None)
          | None -> None
        in
        match (base_of_inst e.Depgraph.esrc, base_of_inst e.Depgraph.edst) with
        | Some a, Some b when String.equal a b -> Some a
        | _ -> None
      in
      (* two regimes:
         - pure speculation (no actual conflicts anywhere): every carried
           may edge can go, calls included;
         - privatization (conflicts exist, all on privatizable objects):
           only edges attributed to a specific object may go — attributed
           to a privatizable object = privatize, to a conflict-free
           object = speculate; unattributable edges (calls, unknown
           bases) must stay, so a callee sneaking accesses to a cloned
           object keeps the loop sequential rather than miscompiling *)
      let pure_speculation = conflicts = [] in
      Depgraph.filter_edges ldg.Pdg.ldg ~keep_edge:(fun e ->
          match e.Depgraph.kind with
          | Depgraph.Memory _ when e.Depgraph.loop_carried && not e.Depgraph.must
            -> (
            match edge_object e with
            | Some g when List.mem g privatizable ->
              Hashtbl.replace cloned g ();
              false
            | Some _ ->
              (* a named object with no observed conflict *)
              incr speculated;
              false
            | None ->
              if pure_speculation then begin
                incr speculated;
                false
              end
              else true)
          | _ -> true);
      let dag = Sccdag.build ldg in
      let ascc = Ascc.build ls dag in
      let c = { c with Parutil.ascc } in
      let cloned = Hashtbl.fold (fun k () acc -> k :: acc) cloned [] in
      if !speculated = 0 && cloned = [] then Error "nothing to speculate (use DOALL)"
      else
        match Doall.plan_of c with
        | Error e -> Error ("even after speculation: " ^ e)
        | Ok plan ->
          Ok ({ plan with Doall.privatized = List.sort compare cloned },
              !speculated, List.sort compare cloned)
    end

(** Run Perspective over hot loops that plain DOALL rejected. *)
let run (n : Noelle.t) (m : Irmod.t) ?(ncores = 12) ?(min_hotness = 0.05)
    ?(min_work = 20000.0) () : (string * (stats, string) result) list =
  Parutil.drive n m ~tool:"PERS"
    ~select:(Parutil.hot n m ~profile_free:false ~min_hotness ~min_work)
    (fun c ->
      Result.map
        (fun (plan, dropped, cloned) ->
          let s = Doall.transform n m plan ~ncores in
          {
            loop_id = s.Doall.loop_id;
            speculated_edges = dropped;
            privatized = s.Doall.nreductions;
            cloned_objects = cloned;
            ncores;
          })
        (speculative_plan m c))
