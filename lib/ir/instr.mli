(** Instructions and SSA values.

    An SSA value ({!type:value}) is either a constant, a function argument,
    the result of an instruction (referenced by the instruction's
    function-unique id), or the address of a global/function.  Instructions
    ({!type:inst}) are records owned by a {!Func.t}.  They are [private]:
    code reads them freely, but only {!Builder} (and {!Func} for copies)
    changes an [op] or a [parent], always given the owning function. *)

(** Integer binary operators.  Shifts mask their amount to 0..63. *)
type bin = Raw.Instr.bin = Add | Sub | Mul | Sdiv | Srem | And | Or | Xor | Shl | Ashr

(** Floating-point binary operators. *)
type fbin = Raw.Instr.fbin = Fadd | Fsub | Fmul | Fdiv

(** Comparison predicates (shared between integer and float compares). *)
type cmp = Raw.Instr.cmp = Eq | Ne | Slt | Sle | Sgt | Sge

(** Casts between the three first-class types. *)
type cast = Raw.Instr.cast = Sitofp | Fptosi | Ptrtoint | Inttoptr

type value = Raw.Instr.value =
  | Cint of int64       (** integer literal *)
  | Cfloat of float     (** float literal *)
  | Null                (** the null pointer *)
  | Arg of int          (** argument [i] of the enclosing function *)
  | Reg of int          (** result of the instruction with this id *)
  | Glob of string      (** address of a global variable or function *)

type op = Raw.Instr.op =
  | Bin of bin * value * value
  | Fbin of fbin * value * value
  | Icmp of cmp * value * value           (** result is i64 0/1 *)
  | Fcmp of cmp * value * value
  | Cast of cast * value
  | Alloca of value                       (** stack-allocate [n] words; result ptr *)
  | Load of value                         (** load one word from ptr *)
  | Store of value * value                (** [Store (v, ptr)] stores [v] to [ptr] *)
  | Gep of value * value                  (** [Gep (base, idx)] = base + idx words *)
  | Call of value * value list            (** callee ([Glob f] if direct) and arguments *)
  | Phi of (int * value) list             (** incoming (predecessor block id, value) *)
  | Select of value * value * value       (** [Select (c, t, f)] *)
  | Br of int                             (** unconditional branch to block id *)
  | Cbr of value * int * int              (** conditional branch: nonzero -> first *)
  | Ret of value option
  | Unreachable

type inst = Raw.Instr.inst = private {
  id : int;                (** function-unique, deterministic id *)
  mutable op : op;         (** written by {!Builder.set_op} *)
  ty : Ty.t;               (** type of the produced value ([Void] if none) *)
  mutable parent : int;    (** id of the owning basic block *)
}

val is_terminator_op : op -> bool
val is_terminator : inst -> bool

(** [operands op] lists the value operands of [op] in a fixed order. *)
val operands : op -> value list

(** [map_operands f op] rewrites every value operand of [op] with [f]. *)
val map_operands : (value -> value) -> op -> op

(** Block successors of a terminator ([[]] for non-terminators). *)
val successors : op -> int list

(** [uses_reg op r] is true when [op] mentions the SSA register [r]. *)
val uses_reg : op -> int -> bool

(** Memory-touching instructions relevant to dependence analysis. *)
val is_memory_op : op -> bool

val value_equal : value -> value -> bool

(** [negate_cmp p] holds exactly where [p] does not: [a p b = not (a (negate_cmp p) b)]. *)
val negate_cmp : cmp -> cmp

(** [swap_cmp p] compares with the operands exchanged: [a p b = b (swap_cmp p) a]. *)
val swap_cmp : cmp -> cmp

val bin_to_string : bin -> string
val fbin_to_string : fbin -> string
val cmp_to_string : cmp -> string
val cast_to_string : cast -> string
