(** Loop structure (LS, §2.2).

    Describes the structure of a loop: header, pre-header, latches, exits,
    basic blocks.  Equivalent to LLVM's loop abstraction but with
    caller-controlled lifetime (a plain value).  The richer canonical loop
    abstraction L ({!Loop}) adds the dependence graph, invariants, and
    induction variables on top of LS. *)

open Ir

type shape =
  | While_shape     (** exit test in the header, before the body *)
  | Do_while_shape  (** exit test in the latch, after the body *)
  | Other_shape

type t = {
  f : Func.t;
  raw : Loopnest.loop;
  header : int;
  preheader : int option;
  latches : int list;
  blocks : int list;                  (** in function layout order *)
  exit_edges : (int * int) list;      (** (inside block, outside target) *)
  exit_targets : int list;
  depth : int;
}

let of_loop (f : Func.t) (l : Loopnest.loop) : t =
  {
    f;
    raw = l;
    header = l.Loopnest.header;
    preheader = Loopnest.preheader f l;
    latches = l.Loopnest.latches;
    blocks = List.filter (fun b -> Loopnest.contains l b) (Func.blocks f);
    exit_edges = Loopnest.exit_edges f l;
    exit_targets = Loopnest.exit_targets f l;
    depth = l.Loopnest.depth;
  }

let contains (t : t) bid = Loopnest.contains t.raw bid
let contains_inst (t : t) (i : Instr.inst) = contains t i.Instr.parent

(** Instructions of the loop in layout order. *)
let insts (t : t) = Loopnest.insts t.f t.raw

(** Header phis of the loop. *)
let header_phis (t : t) =
  List.filter
    (fun (i : Instr.inst) -> match i.Instr.op with Instr.Phi _ -> true | _ -> false)
    (Func.insts_of_block t.f t.header)

(** Blocks inside the loop whose terminator can leave the loop. *)
let exiting_blocks (t : t) = List.sort_uniq compare (List.map fst t.exit_edges)

(** Shape of the loop (see §4.3: LLVM's induction-variable analysis only
    handles do-while-shaped loops; NOELLE handles both). *)
let shape (t : t) =
  let exiting = exiting_blocks t in
  let is_latch b = List.mem b t.latches in
  if List.mem t.header exiting && not (List.exists is_latch exiting) then While_shape
  else if List.exists is_latch exiting then Do_while_shape
  else Other_shape

(** The single exit target if the loop has exactly one. *)
let single_exit (t : t) =
  match t.exit_targets with [ e ] -> Some e | _ -> None

(** Number of instructions in the loop body. *)
let size (t : t) = List.length (insts t)
