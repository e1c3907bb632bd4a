(** The complete program call graph (CG, §2.2).

    Unlike LLVM's call graph, NOELLE's is {e complete}: indirect calls are
    resolved to their possible callees using the points-to analysis that
    powers the PDG, and every edge is tagged must (proved) or may.  A
    defined function passed by address to a declared one (a runtime entry
    such as the parallelizers' [task_submit]) is a may-callee of the
    caller, since the runtime calls it on the caller's behalf.
    Completeness is what lets DeadFunctionElimination treat a missing edge
    as proof that one function can never invoke another. *)

open Ir

type edge = {
  caller : string;
  callee : string;
  must : bool;                     (** direct call = must; resolved indirect = may *)
  sites : int list;                (** call instruction ids in the caller *)
}

type t = {
  m : Irmod.t;
  edges : edge list;
  callees_of : (string, edge list) Hashtbl.t;
  callers_of : (string, edge list) Hashtbl.t;
  unresolved : (string * int) list;
      (** call sites whose callees could not be bounded *)
}

(** Build the complete call graph; [pts] supplies indirect-call resolution
    (typically the Andersen result used by the PDG). *)
let build ?(pts : Andersen.t option) (m : Irmod.t) : t =
  let acc : (string * string * bool, int list) Hashtbl.t = Hashtbl.create 64 in
  let unresolved = ref [] in
  let add caller callee must site =
    let key = (caller, callee, must) in
    let cur = try Hashtbl.find acc key with Not_found -> [] in
    Hashtbl.replace acc key (site :: cur)
  in
  let defined g =
    match Irmod.func_opt m g with
    | Some fn -> not fn.Func.is_declaration
    | None -> false
  in
  List.iter
    (fun (f : Func.t) ->
      Func.iter_insts
        (fun i ->
          match i.Instr.op with
          | Instr.Call (Instr.Glob g, args) ->
            add f.Func.fname g true i.Instr.id;
            if not (defined g) then
              List.iter
                (function
                  | Instr.Glob h when defined h -> add f.Func.fname h false i.Instr.id
                  | _ -> ())
                args
          | Instr.Call (v, _) -> (
            match pts with
            | None -> unresolved := (f.Func.fname, i.Instr.id) :: !unresolved
            | Some r ->
              let s = Andersen.pts_of_value r f v in
              if Andersen.ObjSet.is_empty s || Andersen.ObjSet.mem Andersen.Oextern s
              then unresolved := (f.Func.fname, i.Instr.id) :: !unresolved
              else
                Andersen.ObjSet.iter
                  (function
                    | Andersen.Ofun g -> add f.Func.fname g false i.Instr.id
                    | _ ->
                      unresolved := (f.Func.fname, i.Instr.id) :: !unresolved)
                  s)
          | _ -> ())
        f)
    (Irmod.defined_functions m);
  let edges =
    Hashtbl.fold
      (fun (caller, callee, must) sites acc ->
        { caller; callee; must; sites = List.sort compare sites } :: acc)
      acc []
    |> List.sort (fun a b -> compare (a.caller, a.callee) (b.caller, b.callee))
  in
  let callees_of = Hashtbl.create 16 and callers_of = Hashtbl.create 16 in
  List.iter
    (fun e ->
      Hashtbl.replace callees_of e.caller
        (e :: (try Hashtbl.find callees_of e.caller with Not_found -> []));
      Hashtbl.replace callers_of e.callee
        (e :: (try Hashtbl.find callers_of e.callee with Not_found -> [])))
    edges;
  { m; edges; callees_of; callers_of; unresolved = List.rev !unresolved }

let callees (t : t) fname =
  try Hashtbl.find t.callees_of fname with Not_found -> []

(** Functions transitively reachable from the given roots.  When the graph
    has unresolved call sites, every address-taken function is added as a
    root (soundness fallback). *)
let reachable (t : t) ~roots =
  let address_taken =
    if t.unresolved = [] then []
    else
      (* a function whose address appears as a non-callee operand *)
      List.concat_map
        (fun (f : Func.t) ->
          Func.fold_insts
            (fun acc i ->
              let ops =
                match i.Instr.op with
                | Instr.Call (_, args) -> args
                | op -> Instr.operands op
              in
              List.fold_left
                (fun acc v ->
                  match v with
                  | Instr.Glob g when Irmod.func_opt t.m g <> None -> g :: acc
                  | _ -> acc)
                acc ops)
            [] f)
        (Irmod.defined_functions t.m)
  in
  let seen = Hashtbl.create 16 in
  let rec visit fn =
    if not (Hashtbl.mem seen fn) then begin
      Hashtbl.replace seen fn ();
      List.iter (fun e -> visit e.callee) (callees t fn)
    end
  in
  List.iter visit roots;
  List.iter visit address_taken;
  seen

(** Disconnected islands of the call graph (ignoring edge direction). *)
let islands (t : t) : string list list =
  let adj = Hashtbl.create 16 in
  let names = List.map (fun f -> f.Func.fname) (Irmod.defined_functions t.m) in
  List.iter (fun n -> Hashtbl.replace adj n []) names;
  List.iter
    (fun e ->
      if Hashtbl.mem adj e.caller && Hashtbl.mem adj e.callee then begin
        Hashtbl.replace adj e.caller (e.callee :: Hashtbl.find adj e.caller);
        Hashtbl.replace adj e.callee (e.caller :: Hashtbl.find adj e.callee)
      end)
    t.edges;
  Islands.find ~nodes:names ~neighbors:(fun n -> try Hashtbl.find adj n with Not_found -> [])
