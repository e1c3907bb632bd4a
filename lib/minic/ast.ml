(** Abstract syntax of Mini-C, the C subset used by the benchmark corpus.

    The subset mirrors the C features exercised by the paper's suites
    (MiBench / PARSEC / SPEC kernels): scalars (64-bit [int], [float] =
    double), pointers, fixed-size arrays, function calls (direct and via
    function pointers), all structured control flow, and the usual operator
    zoo.  Structs are modelled with word-indexed arrays, as the IR memory
    model is word-granular. *)

(** The frontend's one error, raised by the lexer, the parser and the
    lowering alike: a source line ([0] from the lowering, whose syntax
    tree carries no lines) and a message. *)
exception Error of { line : int; msg : string }

let fail line fmt = Printf.ksprintf (fun msg -> raise (Error { line; msg })) fmt

let error_to_string line msg = if line > 0 then Printf.sprintf "line %d: %s" line msg else msg

type ty = Tint | Tfloat | Tptr of ty | Tvoid

let rec ty_to_string = function
  | Tint -> "int"
  | Tfloat -> "float"
  | Tvoid -> "void"
  | Tptr t -> ty_to_string t ^ "*"

type unop = Neg | Not | Bnot

type expr =
  | Eint of int64
  | Efloat of float
  | Evar of string
  | Eidx of expr * expr            (** a[i] *)
  | Ederef of expr                 (** *p *)
  | Eaddr of expr                  (** &lvalue *)
  | Ecall of string * expr list
  | Ecallptr of expr * expr list   (** call through a function-pointer value *)
  | Efunref of string              (** function name used as a value *)
  | Ebin of string * expr * expr   (** "+", "-", ..., "&&", "||" *)
  | Eun of unop * expr
  | Ecast of ty * expr
  | Eternary of expr * expr * expr

type stmt =
  | Sdecl of ty * string * int option * expr option
      (** type, name, array size, initializer *)
  | Sassign of expr * expr         (** lvalue = expr *)
  | Sopassign of string * expr * expr  (** lvalue op= expr *)
  | Sif of expr * stmt list * stmt list
  | Swhile of expr * stmt list
  | Sdo of stmt list * expr
  | Sfor of stmt option * expr option * stmt option * stmt list
  | Sreturn of expr option
  | Sbreak
  | Scontinue
  | Sexpr of expr
  | Sblock of stmt list

type gdecl =
  | Gvar of ty * string * int option * expr list option
      (** global scalar or array with optional constant initializer list *)
  | Gfun of ty * string * (ty * string) list * stmt list
  | Gproto of ty * string * (ty * string) list
      (** forward declaration; resolved at link time *)

type program = gdecl list
