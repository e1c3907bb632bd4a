(** Mutation API for the IR.

    All edits to functions go through this module: it is the one place
    outside {!Func} that writes the IR records (their types are [private]
    everywhere else), and every edit takes the owning function.  It keeps
    block instruction lists, parent pointers and phi incoming lists
    consistent, playing the role of LLVM's IRBuilder plus the handful of
    low-level CFG update utilities passes need.

    Every write that can change what {!Printer.func_str} shows draws the
    function a fresh version stamp ({!Func.version}).  A call that turns
    out to change nothing (a rewrite of a register no operand mentions, a
    cleanup with nothing to remove) writes nothing and keeps the stamp,
    so the caches keyed on it survive. *)

open Raw.Instr
open Raw.Func

(* [f.labels] counts the blocks carrying each label *)
let count_label (f : Func.t) l d =
  match Option.value (Hashtbl.find_opt f.labels l) ~default:0 + d with
  | 0 -> Hashtbl.remove f.labels l
  | n -> Hashtbl.replace f.labels l n

(** [add_block f ~label] appends a fresh empty block to [f], in O(1).  A
    label some block already carries gets the block id as a suffix. *)
let add_block (f : Func.t) ~label =
  let bid = Func.fresh_id f in
  let lbl = if Hashtbl.mem f.labels label then Printf.sprintf "%s.%d" label bid else label in
  let b = { bid; label = lbl; insts = [] } in
  Hashtbl.replace f.blks bid b;
  count_label f lbl 1;
  f.appended <- bid :: f.appended;
  touch f;
  b

(** Rename block [bid]; the caller keeps labels unique. *)
let set_label (f : Func.t) bid label =
  let b = Func.block f bid in
  if not (String.equal b.label label) then begin
    count_label f b.label (-1);
    count_label f label 1;
    b.label <- label;
    touch f
  end

(** Move block [bid] to the head of the layout, making it the entry. *)
let make_entry (f : Func.t) bid =
  match Func.blocks f with
  | b :: _ when b = bid -> ()
  | layout ->
    f.layout <- bid :: List.filter (fun b -> b <> bid) layout;
    touch f

(** Replace the operation of instruction [i] of [f]. *)
let set_op (f : Func.t) (i : Instr.inst) op =
  if op != i.op then begin
    i.op <- op;
    touch f
  end

(** Lay out block [bid]'s instructions as [ids], which must be a
    permutation of the instructions it holds. *)
let set_order (f : Func.t) bid ids =
  let b = Func.block f bid in
  assert (List.sort compare ids = List.sort compare b.insts);
  if ids <> b.insts then begin
    b.insts <- ids;
    touch f
  end

(** Create an instruction record owned by [f] without inserting it. *)
let mk_inst (f : Func.t) op ty =
  let id = Func.fresh_id f in
  let i = { id; op; ty; parent = -1 } in
  Hashtbl.replace f.body id i;
  touch f;
  i

(** The parser's and the Mini-C lowering's form of {!add}, in two halves
    so that a block's list is built once: [define_with_id] registers an
    instruction of block [bid] whose [id] the caller chose (unused, and
    below the counter: set by {!reserve_ids}, or drawn with
    [Func.fresh_id]) without laying it out, and {!fill_block} then lays
    out the block's instructions in order. *)
let define_with_id (f : Func.t) bid ~id op ty =
  ignore (Func.block f bid);
  Hashtbl.replace f.body id { id; op; ty; parent = bid };
  touch f

(** Lay out [ids] at the end of block [bid]: in one step when the block
    is empty, by a copy of its list otherwise. *)
let fill_block (f : Func.t) bid ids =
  let b = Func.block f bid in
  if ids <> [] then begin
    b.insts <- (match b.insts with [] -> ids | l -> l @ ids);
    touch f
  end

(** Make every id below [n] unavailable to {!Func.fresh_id}. *)
let reserve_ids (f : Func.t) n = f.next_id <- max f.next_id n

(* [ids] with [id] at the end, or just before the last id if that is a
   terminator: one pass *)
let rec before_term (f : Func.t) id = function
  | [] -> [ id ]
  | [ last ] when Instr.is_terminator (Func.inst f last) -> [ id; last ]
  | x :: rest -> x :: before_term f id rest

(** Append an instruction at the end of block [bid] and return its value.
    If the block is already terminated the instruction goes just before the
    terminator. *)
let add (f : Func.t) bid op ty =
  let i = mk_inst f op ty in
  i.parent <- bid;
  let b = Func.block f bid in
  b.insts <- before_term f i.id b.insts;
  i

(** Append a terminator to block [bid]; fails if already terminated. *)
let set_term (f : Func.t) bid op =
  assert (Instr.is_terminator_op op);
  let b = Func.block f bid in
  (* one pass: check the last instruction while appending the id that
     [mk_inst] draws next *)
  let id = f.next_id in
  let rec append = function
    | [] -> [ id ]
    | [ last ] ->
      let t = Func.inst f last in
      if Instr.is_terminator t then
        invalid_arg
          (Printf.sprintf "Builder.set_term: block %d already terminated (inst %d)" bid t.id);
      [ last; id ]
    | x :: rest -> x :: append rest
  in
  let insts = append b.insts in
  let i = mk_inst f op Ty.Void in
  i.parent <- bid;
  b.insts <- insts;
  i

(** Replace the terminator of [bid] (or install one if missing). *)
let replace_term (f : Func.t) bid op =
  assert (Instr.is_terminator_op op);
  let b = Func.block f bid in
  (match Func.terminator f bid with
  | Some t ->
    b.insts <- List.filter (fun id -> id <> t.id) b.insts;
    Hashtbl.remove f.body t.id
  | None -> ());
  ignore (set_term f bid op)

(** Insert a new instruction immediately before instruction [before]. *)
let insert_before (f : Func.t) ~before op ty =
  let anchor = Func.inst f before in
  let i = mk_inst f op ty in
  i.parent <- anchor.parent;
  let b = Func.block f anchor.parent in
  let rec ins = function
    | x :: rest when x = before -> i.id :: x :: rest
    | x :: rest -> x :: ins rest
    | [] -> [ i.id ]
  in
  b.insts <- ins b.insts;
  i

(** Insert a new instruction at the front of block [bid] (phi position). *)
let insert_front (f : Func.t) bid op ty =
  let i = mk_inst f op ty in
  i.parent <- bid;
  let b = Func.block f bid in
  b.insts <- i.id :: b.insts;
  i

(** Detach instruction [id] from its block and delete it.  The caller must
    ensure it has no remaining users. *)
let remove (f : Func.t) id =
  let i = Func.inst f id in
  if i.parent >= 0 then begin
    let b = Func.block f i.parent in
    b.insts <- List.filter (fun x -> x <> id) b.insts
  end;
  Hashtbl.remove f.body id;
  touch f

(** Replace every use of SSA register [old] with value [by], everywhere in
    [f]. *)
let replace_uses (f : Func.t) ~old ~by =
  Func.iter_insts
    (fun i ->
      if Instr.uses_reg i.op old then begin
        i.op <- Instr.map_operands (function Reg r when r = old -> by | v -> v) i.op;
        touch f
      end)
    f

(** [resolve subst v] follows [v] through a table of pending
    {!replace_uses} rewrites (register -> replacement value) until it
    reaches a value the table leaves alone. *)
let rec resolve subst v =
  match v with
  | Reg r -> (
    match Hashtbl.find_opt subst r with Some by -> resolve subst by | None -> v)
  | v -> v

(** Apply every pending rewrite of [subst] to the operands of [f] in one
    pass: the batched form of one {!replace_uses} call per entry. *)
let apply_subst (f : Func.t) subst =
  let pending = function Reg r -> Hashtbl.mem subst r | _ -> false in
  if Hashtbl.length subst > 0 then
    Func.iter_insts
      (fun i ->
        if List.exists pending (Instr.operands i.op) then begin
          i.op <- Instr.map_operands (resolve subst) i.op;
          touch f
        end)
      f

(** Delete every instruction satisfying [dead] with one filter per block.
    The caller must ensure none of them has remaining users. *)
let remove_all (f : Func.t) dead =
  Func.iter_blocks
    (fun b ->
      if List.exists dead b.insts then begin
        b.insts <-
          List.filter
            (fun id -> if dead id then (Hashtbl.remove f.body id; false) else true)
            b.insts;
        touch f
      end)
    f

(** Move instruction [id] so it becomes the last non-terminator of block
    [bid]. *)
let move_to_end (f : Func.t) id ~bid =
  let i = Func.inst f id in
  let src = Func.block f i.parent in
  src.insts <- List.filter (fun x -> x <> id) src.insts;
  i.parent <- bid;
  let b = Func.block f bid in
  b.insts <- before_term f id b.insts;
  touch f

(** Move instruction [id] immediately before instruction [before] (possibly
    in a different block). *)
let move_before (f : Func.t) id ~before =
  let i = Func.inst f id in
  let anchor = Func.inst f before in
  let src = Func.block f i.parent in
  src.insts <- List.filter (fun x -> x <> id) src.insts;
  i.parent <- anchor.parent;
  let b = Func.block f anchor.parent in
  let rec ins = function
    | x :: rest when x = before -> id :: x :: rest
    | x :: rest -> x :: ins rest
    | [] -> [ id ]
  in
  b.insts <- ins b.insts;
  touch f

(** In every phi of block [bid], rewrite incoming edges from [old_pred] to
    come from [new_pred] instead. *)
let rewrite_phi_pred (f : Func.t) bid ~old_pred ~new_pred =
  List.iter
    (fun i ->
      match i.op with
      | Phi incs when old_pred <> new_pred && List.mem_assoc old_pred incs ->
        i.op <- Phi (List.map (fun (p, v) -> if p = old_pred then (new_pred, v) else (p, v)) incs);
        touch f
      | _ -> ())
    (Func.insts_of_block f bid)

(** Drop the incoming edge from [pred] in every phi of [bid]. *)
let remove_phi_incoming (f : Func.t) bid ~pred =
  List.iter
    (fun i ->
      match i.op with
      | Phi incs when List.mem_assoc pred incs ->
        i.op <- Phi (List.filter (fun (p, _) -> p <> pred) incs);
        touch f
      | _ -> ())
    (Func.insts_of_block f bid)

(** Redirect the successor [old_succ] of block [bid]'s terminator to
    [new_succ]. *)
let redirect (f : Func.t) bid ~old_succ ~new_succ =
  match Func.terminator f bid with
  | None -> ()
  | Some t ->
    if old_succ <> new_succ && List.mem old_succ (Instr.successors t.op) then begin
      let retarget b = if b = old_succ then new_succ else b in
      t.op <-
        (match t.op with
        | Br b -> Br (retarget b)
        | Cbr (v, a, b) -> Cbr (v, retarget a, retarget b)
        | op -> op);
      touch f
    end

(** Delete block [bid] (must be unreachable: no predecessors).  Phis of
    its successors lose their incoming from [bid]; a successor already
    erased is skipped. *)
let erase_block (f : Func.t) bid =
  let b = Func.block f bid in
  List.iter
    (fun s -> if Func.block_opt f s <> None then remove_phi_incoming f s ~pred:bid)
    (Func.successors f bid);
  List.iter (fun id -> Hashtbl.remove f.body id) b.insts;
  Hashtbl.remove f.blks bid;
  count_label f b.label (-1);
  f.layout <- List.filter (fun x -> x <> bid) (Func.blocks f);
  touch f

(** Simplify trivial phis ([Phi [(p, v)]] or all-same-value phis) away.
    Returns the number of phis removed.  Used after CFG surgery. *)
let simplify_phis (f : Func.t) =
  let removed = ref 0 in
  let changed = ref true in
  while !changed do
    changed := false;
    let to_remove = ref [] in
    Func.iter_insts
      (fun i ->
        match i.op with
        | Phi [] -> ()
        | Phi incs -> (
          (* self-references do not count: phi [v, self, v] == v *)
          let others =
            List.filter
              (fun (_, v) -> not (Instr.value_equal v (Reg i.id)))
              incs
          in
          match others with
          | (_, v0) :: rest
            when List.for_all (fun (_, v) -> Instr.value_equal v v0) rest ->
            to_remove := (i.id, v0) :: !to_remove
          | _ -> ())
        | _ -> ())
      f;
    List.iter
      (fun (id, v) ->
        replace_uses f ~old:id ~by:v;
        remove f id;
        incr removed;
        changed := true)
      !to_remove
  done;
  !removed

(** Remove phis that are only used by other dead phis (mem2reg can leave
    closed cycles of dead phis rotating a dead value around a loop nest).
    Returns the number removed. *)
let dce_phis (f : Func.t) =
  let is_phi id =
    match Func.inst_opt f id with
    | Some { op = Phi _; _ } -> true
    | _ -> false
  in
  (* a phi is live if some non-phi uses it, or a live phi uses it *)
  let live = Hashtbl.create 32 in
  let work = Queue.create () in
  Func.iter_insts
    (fun i ->
      match i.op with
      | Phi _ -> ()
      | op ->
        List.iter
          (function
            | Reg r when is_phi r && not (Hashtbl.mem live r) ->
              Hashtbl.replace live r ();
              Queue.add r work
            | _ -> ())
          (Instr.operands op))
    f;
  while not (Queue.is_empty work) do
    let p = Queue.pop work in
    match (Func.inst f p).op with
    | Phi incs ->
      List.iter
        (fun (_, v) ->
          match v with
          | Reg r when is_phi r && not (Hashtbl.mem live r) ->
            Hashtbl.replace live r ();
            Queue.add r work
          | _ -> ())
        incs
    | _ -> ()
  done;
  let dead =
    Func.fold_insts
      (fun acc i ->
        match i.op with
        | Phi _ when not (Hashtbl.mem live i.id) -> i.id :: acc
        | _ -> acc)
      [] f
  in
  (* dead phis may reference each other: clear operands first *)
  List.iter (fun id -> (Func.inst f id).op <- Phi []) dead;
  List.iter (fun id -> remove f id) dead;
  List.length dead

(** Remove instructions with no users and no side effects.  Returns the
    number removed. *)
let dce (f : Func.t) =
  let removed = ref 0 in
  let changed = ref true in
  while !changed do
    changed := false;
    let used = Hashtbl.create 64 in
    Func.iter_insts
      (fun i ->
        List.iter
          (function Reg r -> Hashtbl.replace used r () | _ -> ())
          (Instr.operands i.op))
      f;
    let dead =
      Func.fold_insts
        (fun acc i ->
          let side_effecting =
            match i.op with
            | Store _ | Call _ | Br _ | Cbr _ | Ret _ | Unreachable | Alloca _ -> true
            | _ -> false
          in
          if (not side_effecting) && not (Hashtbl.mem used i.id) then i.id :: acc
          else acc)
        [] f
    in
    List.iter (fun id -> remove f id; incr removed; changed := true) dead
  done;
  !removed
