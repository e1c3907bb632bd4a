(** IR modules (compilation units).

    A module owns named globals and functions plus a metadata table
    ({!Meta}).  Function order is tracked so printing is deterministic.
    [noelle-whole-IR] and [noelle-linker] (see {!Linker}) merge modules.
    The module record is [private]: its tables change only through the
    functions below. *)

type global = {
  gname : string;
  size : int;                          (** size in words *)
  init : Instr.value array option;     (** constant initializer (Cint/Cfloat) *)
}

type t = private {
  mname : string;
  globals : (string, global) Hashtbl.t;
  funcs : (string, Func.t) Hashtbl.t;
  mutable gorder : string list;        (** globals in declaration order *)
  mutable forder : string list;        (** functions in declaration order *)
  meta : Meta.t;
  mutable stamp : int;
      (** the module's own version stamp: redrawn by every change of its
          globals or its function list (see {!version}) *)
}

(** The version of a module: its own stamp and the name and
    {!Func.version} of each function, in declaration order.  Stamps stand
    for exactly one content, so two equal versions mean the same printed
    module up to metadata ({!Printer.module_str} minus its [meta] lines;
    metadata is not versioned).  Compare versions with [=]: they are
    small and never hashed. *)
type version = { own : int; funcs : (string * int) list }

val version : t -> version

val create : ?name:string -> unit -> t

(** Add or replace a global; a new name goes last in declaration order. *)
val add_global : t -> global -> unit

(** Add or replace a function; a new name goes last in declaration order. *)
val add_func : t -> Func.t -> unit

val remove_func : t -> string -> unit

(** [func m name] raises [Invalid_argument] when [m] has no such function. *)
val func : t -> string -> Func.t

val func_opt : t -> string -> Func.t option
val global_opt : t -> string -> global option

(** Functions in declaration order. *)
val functions : t -> Func.t list

(** Functions that have a body, in declaration order. *)
val defined_functions : t -> Func.t list

(** Globals in declaration order. *)
val globals : t -> global list

(** Total number of instructions across all function bodies; the stand-in
    for "binary size" in the Dead Function Elimination experiment. *)
val total_insts : t -> int

(** [assign m ~from] makes [m] a deep copy of [from], in place: fresh
    function records ({!Func.copy}), fresh global initializers and a fresh
    metadata table.  [m] keeps its name, and every handle to [m] stays
    valid.  The function copies carry their originals' stamps, and [m]
    takes over [from]'s own stamp when the two share a name. *)
val assign : t -> from:t -> unit

(** A deep copy of a module, as {!assign} makes it. *)
val copy : t -> t
