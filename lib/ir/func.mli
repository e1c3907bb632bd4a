(** Functions and basic blocks.

    A function owns two id-indexed tables: one for instructions and one for
    basic blocks.  Instruction ids and block ids are drawn from the same
    per-function counter, so every id is unique within the function and is
    deterministic (creation order).  Blocks keep their instructions as an
    ordered id list whose last element is the terminator.

    The records are [private]: outside [lib/ir] they can be read but not
    written.  Structural edits go through {!Builder}; the tables are read
    through {!inst}, {!block} and their [_opt]/[mem_] forms. *)

type block = Raw.Func.block = private {
  bid : int;
  mutable label : string;          (** printable label, unique per function *)
  mutable insts : int list;        (** instruction ids, terminator last *)
}

type t = Raw.Func.t = private {
  fname : string;
  params : (string * Ty.t) array;
  ret : Ty.t;
  mutable layout : int list;
      (** block ids in layout order, head = entry, except the newest:
          read the layout through {!blocks} *)
  mutable appended : int list;     (** blocks appended after [layout], newest first *)
  labels : (string, int) Hashtbl.t;  (** label -> number of blocks carrying it *)
  body : (int, Instr.inst) Hashtbl.t;
  blks : (int, block) Hashtbl.t;
  mutable next_id : int;
  is_declaration : bool;           (** true for external/builtin declarations *)
  mutable version : int;           (** see {!version} *)
}

(** A function with no blocks yet; {!Builder} fills it in. *)
val create : name:string -> params:(string * Ty.t) list -> ret:Ty.t -> t

(** An external or builtin declaration (no body). *)
val declare : name:string -> params:(string * Ty.t) list -> ret:Ty.t -> t

(** The version stamp of [f].  Stamps come from one process-wide counter
    that only increases: a new function draws one, and so does every
    {!Builder} write that can change what {!Printer.func_str} shows
    (merging appended blocks into the layout in {!blocks} is a read and
    draws none).  A stamp stands for exactly one content, so an equal
    stamp means an equal printed function; in-memory caches compare
    stamps instead of printing (DESIGN.md §11). *)
val version : t -> int

(** [copy ?name f] deep-copies [f]: fresh instruction and block records
    with the same ids, labels and layout, under [name] (default: [f]'s
    own).  Operand values and labels are immutable and stay shared.  A
    copy under [f]'s own name carries [f]'s version stamp; a renamed one
    draws a fresh stamp. *)
val copy : ?name:string -> t -> t

(** Block ids in layout order; the head is the entry block.  Appending
    a block ({!Builder.add_block}) is O(1); the first read after appends
    merges them into the layout in one pass. *)
val blocks : t -> int list

(** Draw the next id from [f]'s counter. *)
val fresh_id : t -> int

(** The entry block id; raises [Invalid_argument] on a function without
    blocks. *)
val entry : t -> int

(** [block f bid] and [inst f id] raise [Invalid_argument] when [f] has no
    such block or instruction. *)
val block : t -> int -> block

val inst : t -> int -> Instr.inst
val inst_opt : t -> int -> Instr.inst option
val block_opt : t -> int -> block option
val mem_inst : t -> int -> bool

(** Every block id [f] holds, in the layout or not, in increasing order. *)
val block_ids : t -> int list

(** Terminator of a block, if the block is already terminated. *)
val terminator : t -> int -> Instr.inst option

val successors : t -> int -> int list

(** Iterate blocks in layout order. *)
val iter_blocks : (block -> unit) -> t -> unit

(** Iterate instructions in layout order (blocks in order, insts in order). *)
val iter_insts : (Instr.inst -> unit) -> t -> unit

val fold_insts : ('a -> Instr.inst -> 'a) -> 'a -> t -> 'a

(** All instructions in layout order. *)
val insts : t -> Instr.inst list

val num_insts : t -> int

(** [insts_of_block f bid] is the instructions of block [bid], in block
    order (terminator last).  Raises [Invalid_argument] when the block or
    one of its listed instructions does not exist. *)
val insts_of_block : t -> int -> Instr.inst list

(** [users f r] lists instructions whose operands mention SSA register [r].
    Recomputed on demand; the IR does not maintain use lists. *)
val users : t -> int -> Instr.inst list

(** Predecessor map of the CFG: block id -> predecessor block ids (in layout
    order of the predecessors). *)
val preds : t -> (int, int list) Hashtbl.t
