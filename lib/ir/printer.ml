(** Textual form of the IR.

    The syntax is LLVM-flavoured but deliberately simpler: operand types are
    not annotated (they are recoverable), and instructions whose result type
    is ambiguous carry a [.i64]/[.f64]/[.ptr] suffix ([load.i64], [call.void],
    [phi.ptr], [select.f64]).  {!Parser} parses exactly what this module
    prints, preserving instruction ids and block labels so that embedded
    metadata remains valid across round trips. *)

open Instr

(** Render a float so that {!Parser} can tell it apart from an int. *)
let float_str x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
  else Printf.sprintf "%.17g" x

let ty_tag = function
  | Ty.I64 -> "i64"
  | Ty.F64 -> "f64"
  | Ty.Ptr -> "ptr"
  | Ty.Void -> "void"
  | Ty.Fun _ -> "ptr"

let value_str (f : Func.t) = function
  | Cint n -> Int64.to_string n
  | Cfloat x -> float_str x
  | Null -> "null"
  | Arg i -> "%" ^ fst f.Func.params.(i)
  | Reg r -> "%" ^ string_of_int r
  | Glob g -> "@" ^ g

let inst_str (f : Func.t) (i : inst) =
  let v = value_str f in
  (* total, so diagnostics can print modules with dangling block refs *)
  let lbl bid =
    match Func.block_opt f bid with
    | Some b -> b.Func.label
    | None -> Printf.sprintf "?%d" bid
  in
  (* Every instruction carries its id, void results included: analysis
     artifacts embedded as metadata (PDG edges, branch profiles) reference
     instructions by id, so ids must survive print/parse round trips for
     stores and terminators too, not only for value-producing ops. *)
  let res body = Printf.sprintf "%%%d = %s" i.id body in
  match i.op with
  | Bin (o, a, b) -> res (Printf.sprintf "%s %s, %s" (bin_to_string o) (v a) (v b))
  | Fbin (o, a, b) -> res (Printf.sprintf "%s %s, %s" (fbin_to_string o) (v a) (v b))
  | Icmp (c, a, b) -> res (Printf.sprintf "icmp.%s %s, %s" (cmp_to_string c) (v a) (v b))
  | Fcmp (c, a, b) -> res (Printf.sprintf "fcmp.%s %s, %s" (cmp_to_string c) (v a) (v b))
  | Cast (k, a) -> res (Printf.sprintf "%s %s" (cast_to_string k) (v a))
  | Alloca n -> res (Printf.sprintf "alloca %s" (v n))
  | Load p -> res (Printf.sprintf "load.%s %s" (ty_tag i.ty) (v p))
  | Store (x, p) -> res (Printf.sprintf "store %s, %s" (v x) (v p))
  | Gep (p, idx) -> res (Printf.sprintf "gep %s, %s" (v p) (v idx))
  | Call (callee, args) ->
    res
      (Printf.sprintf "call.%s %s(%s)" (ty_tag i.ty) (v callee)
         (String.concat ", " (List.map v args)))
  | Phi incs ->
    res
      (Printf.sprintf "phi.%s %s" (ty_tag i.ty)
         (String.concat " "
            (List.map (fun (p, x) -> Printf.sprintf "[%s: %s]" (lbl p) (v x)) incs)))
  | Select (c, a, b) ->
    res (Printf.sprintf "select.%s %s, %s, %s" (ty_tag i.ty) (v c) (v a) (v b))
  | Br b -> res (Printf.sprintf "br %s" (lbl b))
  | Cbr (c, t, e) -> res (Printf.sprintf "cbr %s, %s, %s" (v c) (lbl t) (lbl e))
  | Ret None -> res "ret"
  | Ret (Some x) -> res (Printf.sprintf "ret %s" (v x))
  | Unreachable -> res "unreachable"

let func_str (f : Func.t) =
  let buf = Buffer.create 1024 in
  let params =
    Array.to_list f.Func.params
    |> List.map (fun (n, t) -> Printf.sprintf "%s %%%s" (ty_tag t) n)
    |> String.concat ", "
  in
  if f.Func.is_declaration then
    Buffer.add_string buf
      (Printf.sprintf "declare %s @%s(%s)\n" (ty_tag f.Func.ret) f.Func.fname params)
  else begin
    Buffer.add_string buf
      (Printf.sprintf "define %s @%s(%s) {\n" (ty_tag f.Func.ret) f.Func.fname params);
    Func.iter_blocks
      (fun b ->
        Buffer.add_string buf (Printf.sprintf "%s:\n" b.Func.label);
        List.iter
          (fun id ->
            Buffer.add_string buf ("  " ^ inst_str f (Func.inst f id) ^ "\n"))
          b.Func.insts)
      f;
    Buffer.add_string buf "}\n"
  end;
  Buffer.contents buf

let escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let module_str (m : Irmod.t) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Printf.sprintf "module \"%s\"\n" (escape m.Irmod.mname));
  Meta.iter_sorted
    (fun k v ->
      Buffer.add_string buf (Printf.sprintf "meta \"%s\" = \"%s\"\n" (escape k) (escape v)))
    m.Irmod.meta;
  List.iter
    (fun (g : Irmod.global) ->
      Buffer.add_string buf (Printf.sprintf "global @%s = %d" g.gname g.size);
      (match g.init with
      | None -> ()
      | Some vs ->
        let dummy = Func.create ~name:"" ~params:[] ~ret:Ty.Void in
        Buffer.add_string buf " [";
        Buffer.add_string buf
          (String.concat ", " (Array.to_list (Array.map (value_str dummy) vs)));
        Buffer.add_string buf "]");
      Buffer.add_char buf '\n')
    (Irmod.globals m);
  List.iter (fun f -> Buffer.add_string buf (func_str f)) (Irmod.functions m);
  Buffer.contents buf

(** Write a module to a file. *)
let to_file (m : Irmod.t) path =
  let oc = open_out path in
  output_string oc (module_str m);
  close_out oc
