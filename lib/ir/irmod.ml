type global = {
  gname : string;
  size : int;
  init : Instr.value array option;
}

type t = {
  mname : string;
  globals : (string, global) Hashtbl.t;
  funcs : (string, Func.t) Hashtbl.t;
  mutable gorder : string list;
  mutable forder : string list;
  meta : Meta.t;
  mutable stamp : int;
}

type version = { own : int; funcs : (string * int) list }

(* the module's own stamp: drawn from the functions' counter, so it too
   stands for one content *)
let touch (m : t) = m.stamp <- Raw.Func.next_version ()

let create ?(name = "module") () =
  {
    mname = name;
    globals = Hashtbl.create 16;
    funcs = Hashtbl.create 16;
    gorder = [];
    forder = [];
    meta = Meta.create ();
    stamp = Raw.Func.next_version ();
  }

let add_global (m : t) (g : global) =
  if not (Hashtbl.mem m.globals g.gname) then m.gorder <- m.gorder @ [ g.gname ];
  Hashtbl.replace m.globals g.gname g;
  touch m

let add_func (m : t) (f : Func.t) =
  if not (Hashtbl.mem m.funcs f.Func.fname) then m.forder <- m.forder @ [ f.Func.fname ];
  Hashtbl.replace m.funcs f.Func.fname f;
  touch m

let remove_func (m : t) name =
  if Hashtbl.mem m.funcs name then begin
    Hashtbl.remove m.funcs name;
    m.forder <- List.filter (fun n -> not (String.equal n name)) m.forder;
    touch m
  end

let func (m : t) name =
  match Hashtbl.find_opt m.funcs name with
  | Some f -> f
  | None -> invalid_arg (Printf.sprintf "Irmod.func: no function %s" name)

let func_opt (m : t) name = Hashtbl.find_opt m.funcs name
let global_opt (m : t) name = Hashtbl.find_opt m.globals name

let functions (m : t) = List.map (func m) m.forder

let version (m : t) =
  { own = m.stamp; funcs = List.map (fun n -> (n, Func.version (func m n))) m.forder }

let defined_functions (m : t) =
  List.filter (fun f -> not f.Func.is_declaration) (functions m)

let globals (m : t) =
  List.map (fun n -> Hashtbl.find m.globals n) m.gorder

let total_insts (m : t) =
  List.fold_left (fun n f -> n + Func.num_insts f) 0 (defined_functions m)

let assign (m : t) ~from =
  Hashtbl.reset m.globals;
  Hashtbl.reset m.funcs;
  m.gorder <- [];
  m.forder <- [];
  Hashtbl.reset m.meta;
  List.iter
    (fun g -> add_global m { g with init = Option.map Array.copy g.init })
    (globals from);
  List.iter (fun f -> add_func m (Func.copy f)) (functions from);
  Hashtbl.iter (fun k v -> Meta.set m.meta k v) from.meta;
  if String.equal m.mname from.mname then m.stamp <- from.stamp

let copy (m : t) =
  let c = create ~name:m.mname () in
  assign c ~from:m;
  c
