(** The IR records with their mutable fields.

    This module is private to the [ir] library.  {!Instr} and {!Func}
    include it and re-export its records as [private] types, so outside
    [lib/ir] the compiler rejects a field write; inside [lib/ir] only
    [func.ml] and [builder.ml] write through it.  Every edit of the IR
    therefore goes through a {!Func} or {!Builder} function that takes the
    owning function, and each such edit draws the function a fresh
    version stamp ({!Func.version}).  The types are documented where they
    are re-exported. *)

module Instr = struct
  type bin = Add | Sub | Mul | Sdiv | Srem | And | Or | Xor | Shl | Ashr
  type fbin = Fadd | Fsub | Fmul | Fdiv
  type cmp = Eq | Ne | Slt | Sle | Sgt | Sge
  type cast = Sitofp | Fptosi | Ptrtoint | Inttoptr

  type value =
    | Cint of int64
    | Cfloat of float
    | Null
    | Arg of int
    | Reg of int
    | Glob of string

  type op =
    | Bin of bin * value * value
    | Fbin of fbin * value * value
    | Icmp of cmp * value * value
    | Fcmp of cmp * value * value
    | Cast of cast * value
    | Alloca of value
    | Load of value
    | Store of value * value
    | Gep of value * value
    | Call of value * value list
    | Phi of (int * value) list
    | Select of value * value * value
    | Br of int
    | Cbr of value * int * int
    | Ret of value option
    | Unreachable

  type inst = { id : int; mutable op : op; ty : Ty.t; mutable parent : int }
end

module Func = struct
  type block = { bid : int; mutable label : string; mutable insts : int list }

  type t = {
    fname : string;
    params : (string * Ty.t) array;
    ret : Ty.t;
    mutable layout : int list;
    mutable appended : int list;
    labels : (string, int) Hashtbl.t;
    body : (int, Instr.inst) Hashtbl.t;
    blks : (int, block) Hashtbl.t;
    mutable next_id : int;
    is_declaration : bool;
    mutable version : int;
  }

  (* one counter for every function: a stamp is never drawn twice, so
     two functions carry the same stamp only when one was copied from
     the other and neither was written since *)
  let clock = ref 0

  let next_version () =
    incr clock;
    !clock

  (* every write that can change what the printer shows calls this *)
  let touch (f : t) = f.version <- next_version ()
end
