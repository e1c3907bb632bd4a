(** Module checkpoints for the transactional pass pipeline.

    A snapshot is a cheap deep copy of an {!Irmod.t} ({!Irmod.copy}): fresh
    instruction and block records, fresh global initializers and a fresh
    metadata table, while the immutable payloads (operand values, labels,
    strings) stay shared.  {!restore} rolls a module back to a captured
    state in place ({!Irmod.assign}), so every handle to the module (a
    {e Noelle} manager, a driver) keeps working across a rollback.  {!diff}
    renders a compact structural diff between two modules for rollback
    diagnostics. *)

type t = { smod : Irmod.t (** private deep copy; never handed out mutable *) }

(** Checkpoint the current state of [m]. *)
let capture (m : Irmod.t) : t = { smod = Irmod.copy m }

(** Read-only view of the captured module (for diffing). *)
let view (s : t) : Irmod.t = s.smod

(** A fresh mutable module equal to the captured state (e.g. the pristine
    original kept around for sequential fallback). *)
let to_module (s : t) : Irmod.t = Irmod.copy s.smod

(** Roll [m] back to the captured state, in place.  The snapshot remains
    valid and can be restored again. *)
let restore (s : t) (m : Irmod.t) = Irmod.assign m ~from:s.smod

(* ------------------------------------------------------------------ *)
(* Structural diff                                                     *)
(* ------------------------------------------------------------------ *)

let func_lines (f : Func.t) = String.split_on_char '\n' (Printer.func_str f)

(** Lines present in [xs] but not in [ys] (multiset difference, order of
    [xs] preserved). *)
let lines_minus xs ys =
  let counts = Hashtbl.create 64 in
  List.iter
    (fun l ->
      Hashtbl.replace counts l (1 + Option.value ~default:0 (Hashtbl.find_opt counts l)))
    ys;
  List.filter
    (fun l ->
      match Hashtbl.find_opt counts l with
      | Some n when n > 0 ->
        Hashtbl.replace counts l (n - 1);
        false
      | _ -> l <> "")
    xs

(** Structural diff between module [a] (before) and [b] (after): function
    additions/removals and per-function line changes, capped at [limit]
    lines.  Returns [[]] when the modules print identically. *)
let diff ?(limit = 24) (a : Irmod.t) (b : Irmod.t) : string list =
  let out = ref [] and n = ref 0 in
  let emit line =
    if !n < limit then out := line :: !out;
    incr n
  in
  let anames = List.map (fun (f : Func.t) -> f.Func.fname) (Irmod.functions a) in
  let bnames = List.map (fun (f : Func.t) -> f.Func.fname) (Irmod.functions b) in
  List.iter
    (fun fn ->
      if not (List.mem fn bnames) then
        emit (Printf.sprintf "- function @%s removed (%d insts)" fn
                (Func.num_insts (Irmod.func a fn))))
    anames;
  List.iter
    (fun fn ->
      if not (List.mem fn anames) then
        emit (Printf.sprintf "+ function @%s added (%d insts)" fn
                (Func.num_insts (Irmod.func b fn))))
    bnames;
  List.iter
    (fun fn ->
      if List.mem fn bnames then begin
        let la = func_lines (Irmod.func a fn) in
        let lb = func_lines (Irmod.func b fn) in
        if la <> lb then begin
          emit (Printf.sprintf "@ function @%s changed:" fn);
          List.iter (fun l -> emit ("  - " ^ String.trim l)) (lines_minus la lb);
          List.iter (fun l -> emit ("  + " ^ String.trim l)) (lines_minus lb la)
        end
      end)
    anames;
  let ga = List.map (fun (g : Irmod.global) -> g.Irmod.gname) (Irmod.globals a) in
  let gb = List.map (fun (g : Irmod.global) -> g.Irmod.gname) (Irmod.globals b) in
  List.iter
    (fun g -> if not (List.mem g gb) then emit (Printf.sprintf "- global @%s removed" g))
    ga;
  List.iter
    (fun g -> if not (List.mem g ga) then emit (Printf.sprintf "+ global @%s added" g))
    gb;
  let shown = List.rev !out in
  if !n > limit then shown @ [ Printf.sprintf "... (%d more diff lines)" (!n - limit) ]
  else shown
