(** Types of the IR.

    The IR uses a deliberately small type system modelled on modern LLVM
    (opaque pointers): 64-bit integers, 64-bit floats, an opaque pointer
    type, [void] for functions that return nothing, and function types for
    declarations and indirect calls.  Aggregates are represented as sized
    allocations of words rather than first-class types; this matches the
    word-granularity memory model of the interpreter ({!Interp}). *)

type t =
  | I64        (** 64-bit two's-complement integer (also used for booleans) *)
  | F64        (** IEEE-754 double *)
  | Ptr        (** opaque pointer (word-granularity address) *)
  | Void       (** absence of a value; only valid as a return type *)
  | Fun of t list * t  (** function type: parameter types and return type *)

let rec to_string = function
  | I64 -> "i64"
  | F64 -> "f64"
  | Ptr -> "ptr"
  | Void -> "void"
  | Fun (ps, r) ->
    Printf.sprintf "%s(%s)" (to_string r)
      (String.concat ", " (List.map to_string ps))

let rec equal a b =
  match (a, b) with
  | I64, I64 | F64, F64 | Ptr, Ptr | Void, Void -> true
  | Fun (p1, r1), Fun (p2, r2) ->
    List.length p1 = List.length p2 && List.for_all2 equal p1 p2 && equal r1 r2
  | _ -> false
