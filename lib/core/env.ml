(** The Environment abstraction (ENV, §2.2).

    An environment is an array of variables carrying the incoming (live-in)
    and outgoing (live-out) values of a set of instructions — the paper's
    mechanism for explicitly forwarding values between the code that
    surrounds a parallelized loop and the tasks executing it.  The
    {e Environment Builder} below creates, modifies and queries
    environments and emits the IR that allocates and populates them. *)

open Ir

type role = Live_in | Live_out

type slot = {
  index : int;
  sname : string;              (** diagnostic name *)
  sty : Ty.t;
  role : role;
}

type t = { mutable slots : slot list (* reverse order *) }

let create () = { slots = [] }

(** Register a new variable; returns its index in the environment array. *)
let add (t : t) ~name ~ty ~role =
  let index = List.length t.slots in
  t.slots <- { index; sname = name; sty = ty; role } :: t.slots;
  index

let size (t : t) = List.length t.slots
let slots (t : t) = List.rev t.slots

let live_ins (t : t) = List.filter (fun s -> s.role = Live_in) (slots t)
let live_outs (t : t) = List.filter (fun s -> s.role = Live_out) (slots t)

(* ------------------------------------------------------------------ *)
(* Builder: IR emission                                                 *)
(* ------------------------------------------------------------------ *)

(** Allocate the environment array in block [bid]; returns the pointer. *)
let emit_alloc (t : t) (f : Func.t) bid : Instr.value =
  let n = max (size t) 1 in
  Instr.Reg (Builder.add f bid (Instr.Alloca (Instr.Cint (Int64.of_int n))) Ty.Ptr).Instr.id

(** Store [v] into slot [index] of the environment at [env_ptr]. *)
let emit_store (f : Func.t) bid ~env_ptr ~index v =
  let addr =
    if index = 0 then env_ptr
    else
      Instr.Reg
        (Builder.add f bid (Instr.Gep (env_ptr, Instr.Cint (Int64.of_int index))) Ty.Ptr)
          .Instr.id
  in
  ignore (Builder.add f bid (Instr.Store (v, addr)) Ty.Void)

(** Load slot [index] of the environment at [env_ptr] as a value of type
    [ty]. *)
let emit_load (f : Func.t) bid ~env_ptr ~index ty : Instr.value =
  let addr =
    if index = 0 then env_ptr
    else
      Instr.Reg
        (Builder.add f bid (Instr.Gep (env_ptr, Instr.Cint (Int64.of_int index))) Ty.Ptr)
          .Instr.id
  in
  Instr.Reg (Builder.add f bid (Instr.Load addr) ty).Instr.id
