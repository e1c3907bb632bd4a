(** Functions and basic blocks.

    A function owns two id-indexed tables: one for instructions and one for
    basic blocks.  Instruction ids and block ids are drawn from the same
    per-function counter, so every id is unique within the function and is
    deterministic (creation order).  Blocks keep their instructions as an
    ordered id list whose last element is the terminator. *)

type block = {
  bid : int;
  mutable label : string;          (** printable label, unique per function *)
  mutable insts : int list;        (** instruction ids, terminator last *)
}

type t = {
  fname : string;
  params : (string * Ty.t) array;
  ret : Ty.t;
  mutable blocks : int list;       (** block ids in layout order; head = entry *)
  body : (int, Instr.inst) Hashtbl.t;
  blks : (int, block) Hashtbl.t;
  mutable next_id : int;
  mutable is_declaration : bool;   (** true for external/builtin declarations *)
}

let create ~name ~params ~ret =
  {
    fname = name;
    params = Array.of_list params;
    ret;
    blocks = [];
    body = Hashtbl.create 64;
    blks = Hashtbl.create 16;
    next_id = 0;
    is_declaration = false;
  }

let declare ~name ~params ~ret =
  let f = create ~name ~params ~ret in
  f.is_declaration <- true;
  f

let fresh_id (f : t) =
  let id = f.next_id in
  f.next_id <- id + 1;
  id

let entry (f : t) =
  match f.blocks with
  | b :: _ -> b
  | [] -> invalid_arg (Printf.sprintf "Func.entry: %s has no blocks" f.fname)

let block (f : t) bid =
  match Hashtbl.find_opt f.blks bid with
  | Some b -> b
  | None -> invalid_arg (Printf.sprintf "Func.block: no block %d in %s" bid f.fname)

let inst (f : t) id =
  match Hashtbl.find_opt f.body id with
  | Some i -> i
  | None -> invalid_arg (Printf.sprintf "Func.inst: no inst %d in %s" id f.fname)

let inst_opt (f : t) id = Hashtbl.find_opt f.body id

(** Terminator of a block, if the block is already terminated. *)
let terminator (f : t) bid =
  let b = block f bid in
  match List.rev b.insts with
  | last :: _ ->
    let i = inst f last in
    if Instr.is_terminator i then Some i else None
  | [] -> None

let successors (f : t) bid =
  match terminator f bid with
  | Some i -> Instr.successors i.op
  | None -> []

(** Iterate blocks in layout order. *)
let iter_blocks fn (f : t) = List.iter (fun bid -> fn (block f bid)) f.blocks

(** Iterate instructions in layout order (blocks in order, insts in order). *)
let iter_insts fn (f : t) =
  iter_blocks (fun b -> List.iter (fun id -> fn (inst f id)) b.insts) f

let fold_insts fn acc (f : t) =
  let r = ref acc in
  iter_insts (fun i -> r := fn !r i) f;
  !r

(** All instructions in layout order. *)
let insts (f : t) = List.rev (fold_insts (fun acc i -> i :: acc) [] f)

let num_insts (f : t) = fold_insts (fun n _ -> n + 1) 0 f

(** [insts_of_block f bid] is the instructions of block [bid], in block
    order (terminator last).  Raises [Invalid_argument] when the block or
    one of its listed instructions does not exist. *)
let insts_of_block (f : t) bid = List.map (inst f) (block f bid).insts

(** [find_label f l] finds the block labelled [l]. *)
let find_label (f : t) l =
  let found = ref None in
  iter_blocks (fun b -> if String.equal b.label l then found := Some b) f;
  !found

(** [users f r] lists instructions whose operands mention SSA register [r].
    Recomputed on demand; the IR does not maintain use lists. *)
let users (f : t) r =
  fold_insts (fun acc i -> if Instr.uses_reg i.op r then i :: acc else acc) [] f
  |> List.rev

(** Predecessor map of the CFG: block id -> predecessor block ids (in layout
    order of the predecessors). *)
let preds (f : t) =
  let tbl = Hashtbl.create 16 in
  List.iter (fun bid -> Hashtbl.replace tbl bid []) f.blocks;
  List.iter
    (fun bid ->
      List.iter
        (fun s ->
          let cur = try Hashtbl.find tbl s with Not_found -> [] in
          if not (List.mem bid cur) then Hashtbl.replace tbl s (cur @ [ bid ]))
        (successors f bid))
    f.blocks;
  tbl
