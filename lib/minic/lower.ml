(** Lowering Mini-C to the SSA IR.

    Locals become allocas + loads/stores ([Ir.Mem2reg] subsequently promotes
    the scalars), control flow becomes explicit CFG blocks — [while]/[for]
    lower to while-shaped loops (test before body) and [do]/[while] to
    do-while shape, which is exactly the property the paper's §4.3 governing
    induction-variable experiment depends on. *)

module Cparser = Parser
open Ir
open Ast

let faill fmt = fail 0 fmt

(* Builtin signatures: name -> (param types, return type) *)
let builtins : (string * (ty list * ty)) list =
  [
    ("print", ([ Tint ], Tvoid));
    ("print_float", ([ Tfloat ], Tvoid));
    ("malloc", ([ Tint ], Tptr Tint));
    ("free", ([ Tptr Tint ], Tvoid));
    ("rand", ([], Tint));
    ("srand", ([ Tint ], Tvoid));
    ("clock", ([], Tint));
    ("sqrt", ([ Tfloat ], Tfloat));
    ("exp", ([ Tfloat ], Tfloat));
    ("log", ([ Tfloat ], Tfloat));
    ("sin", ([ Tfloat ], Tfloat));
    ("cos", ([ Tfloat ], Tfloat));
    ("fabs", ([ Tfloat ], Tfloat));
    ("floor", ([ Tfloat ], Tfloat));
    ("pow", ([ Tfloat; Tfloat ], Tfloat));
    ("i64_min", ([ Tint; Tint ], Tint));
    ("i64_max", ([ Tint; Tint ], Tint));
  ]

let ir_ty = function
  | Tint -> Ty.I64
  | Tfloat -> Ty.F64
  | Tptr _ -> Ty.Ptr
  | Tvoid -> Ty.Void

type entry =
  | Elocal of Instr.value * ty * bool   (** alloca address, element type, is_array *)
  | Eglobal of string * ty * bool
  | Efun of string                      (** user function or builtin *)

type fnsig = { sparams : ty list; sret : ty }

type ctx = {
  m : Irmod.t;
  f : Func.t;
  mutable cur : int;                    (** current block id *)
  mutable pending : int list;
      (** the current block's instructions not laid out yet, last first *)
  mutable term : bool;                  (** the current block is terminated *)
  mutable scopes : (string * entry) list list;
  mutable loop_stack : (int * int) list;  (** (break target, continue target) *)
  sigs : (string, fnsig) Hashtbl.t;
  used_builtins : (string, unit) Hashtbl.t;
  ret_ty : ty;
}

let push_scope ctx = ctx.scopes <- [] :: ctx.scopes
let pop_scope ctx = ctx.scopes <- List.tl ctx.scopes
let bind ctx name e =
  ctx.scopes <- ((name, e) :: List.hd ctx.scopes) :: List.tl ctx.scopes

let lookup ctx name =
  let rec go = function
    | [] -> None
    | s :: rest -> (
      match List.assoc_opt name s with Some e -> Some e | None -> go rest)
  in
  go ctx.scopes

let new_block ctx label = (Builder.add_block ctx.f ~label).Func.bid

(* The current block's instructions are laid out when control leaves it
   ({!switch}), so a block of n instructions costs O(n), not one list
   copy per instruction. *)

(** A new instruction at the end of the current block.  Nothing follows
    a terminator: a statement after one opens a fresh block. *)
let define ctx op ty =
  if ctx.term then
    invalid_arg (Printf.sprintf "Lower.define: block %d already terminated" ctx.cur);
  let id = Func.fresh_id ctx.f in
  Builder.define_with_id ctx.f ctx.cur ~id op ty;
  ctx.pending <- id :: ctx.pending;
  id

let emit ctx op ty = Instr.Reg (define ctx op ty)
let emit_void ctx op = ignore (define ctx op Ty.Void)

(** Terminate the current block with [op]. *)
let terminate ctx op =
  ignore (define ctx op Ty.Void);
  ctx.term <- true

(** Lay out the current block's pending instructions. *)
let flush ctx =
  if ctx.pending <> [] then Builder.fill_block ctx.f ctx.cur (List.rev ctx.pending);
  ctx.pending <- []

(** Lay out the current block and make [bid] current. *)
let switch ctx bid =
  flush ctx;
  ctx.cur <- bid;
  ctx.term <- Func.terminator ctx.f bid <> None

let coerce ctx (v, from_t) to_t : Instr.value =
  match (from_t, to_t) with
  | Tint, Tint | Tfloat, Tfloat | Tvoid, Tvoid -> v
  | Tptr _, Tptr _ -> v
  | Tint, Tfloat -> emit ctx (Instr.Cast (Instr.Sitofp, v)) Ty.F64
  | Tfloat, Tint -> emit ctx (Instr.Cast (Instr.Fptosi, v)) Ty.I64
  | Tint, Tptr _ -> emit ctx (Instr.Cast (Instr.Inttoptr, v)) Ty.Ptr
  | Tptr _, Tint -> emit ctx (Instr.Cast (Instr.Ptrtoint, v)) Ty.I64
  | a, b -> faill "cannot convert %s to %s" (ty_to_string a) (ty_to_string b)

let boolify ctx (v, t) =
  match t with
  | Tint -> emit ctx (Instr.Icmp (Instr.Ne, v, Instr.Cint 0L)) Ty.I64
  | Tfloat -> emit ctx (Instr.Fcmp (Instr.Ne, v, Instr.Cfloat 0.0)) Ty.I64
  | Tptr _ -> emit ctx (Instr.Icmp (Instr.Ne, v, Instr.Null)) Ty.I64
  | Tvoid -> faill "void value in boolean context"

let cmp_of = function
  | "==" -> Instr.Eq | "!=" -> Instr.Ne | "<" -> Instr.Slt
  | "<=" -> Instr.Sle | ">" -> Instr.Sgt | ">=" -> Instr.Sge
  | op -> faill "not a comparison: %s" op

let ibin_of = function
  | "+" -> Instr.Add | "-" -> Instr.Sub | "*" -> Instr.Mul
  | "/" -> Instr.Sdiv | "%" -> Instr.Srem | "&" -> Instr.And
  | "|" -> Instr.Or | "^" -> Instr.Xor | "<<" -> Instr.Shl | ">>" -> Instr.Ashr
  | op -> faill "not an integer operator: %s" op

let fbin_of = function
  | "+" -> Instr.Fadd | "-" -> Instr.Fsub | "*" -> Instr.Fmul | "/" -> Instr.Fdiv
  | op -> faill "operator %s not defined on float" op

(** Lower an expression; returns (value, type). *)
let rec lower_expr ctx (e : expr) : Instr.value * ty =
  match e with
  | Eint n -> (Instr.Cint n, Tint)
  | Efloat f -> (Instr.Cfloat f, Tfloat)
  | Evar name -> (
    match lookup ctx name with
    | Some (Elocal (addr, ety, true)) -> (addr, Tptr ety)
    | Some (Elocal (addr, ety, false)) ->
      (emit ctx (Instr.Load addr) (ir_ty ety), ety)
    | Some (Eglobal (g, ety, true)) -> (Instr.Glob g, Tptr ety)
    | Some (Eglobal (g, ety, false)) ->
      (emit ctx (Instr.Load (Instr.Glob g)) (ir_ty ety), ety)
    | Some (Efun f) -> (Instr.Glob f, Tptr Tvoid)
    | None ->
      if Hashtbl.mem ctx.sigs name || List.mem_assoc name builtins then
        (Instr.Glob name, Tptr Tvoid)
      else faill "unknown variable %s" name)
  | Eidx (b, i) ->
    let addr, ety = lower_addr_idx ctx b i in
    (emit ctx (Instr.Load addr) (ir_ty ety), ety)
  | Ederef p -> (
    let v, t = lower_expr ctx p in
    match t with
    | Tptr ety -> (emit ctx (Instr.Load v) (ir_ty ety), ety)
    | _ -> faill "dereference of non-pointer")
  | Eaddr lv -> lower_lvalue_addr ctx lv
  | Efunref f -> (Instr.Glob f, Tptr Tvoid)
  | Ecall (name, args) -> (
    (* a variable holding a function pointer shadows function names *)
    match lookup ctx name with
    | Some (Elocal _ | Eglobal _) ->
      let fv, _ = lower_expr ctx (Evar name) in
      lower_indirect_call ctx fv args
    | _ -> lower_direct_call ctx name args)
  | Ecallptr (f, args) ->
    let fv, _ = lower_expr ctx f in
    lower_indirect_call ctx fv args
  | Eun (Neg, a) -> (
    let v, t = lower_expr ctx a in
    match t with
    | Tint -> (emit ctx (Instr.Bin (Instr.Sub, Instr.Cint 0L, v)) Ty.I64, Tint)
    | Tfloat -> (emit ctx (Instr.Fbin (Instr.Fsub, Instr.Cfloat 0.0, v)) Ty.F64, Tfloat)
    | _ -> faill "negation of non-numeric")
  | Eun (Not, a) ->
    let v = boolify ctx (lower_expr ctx a) in
    (emit ctx (Instr.Icmp (Instr.Eq, v, Instr.Cint 0L)) Ty.I64, Tint)
  | Eun (Bnot, a) ->
    let v, t = lower_expr ctx a in
    if t <> Tint then faill "~ on non-int";
    (emit ctx (Instr.Bin (Instr.Xor, v, Instr.Cint (-1L))) Ty.I64, Tint)
  | Ecast (to_t, a) ->
    let v, from_t = lower_expr ctx a in
    (coerce ctx (v, from_t) to_t, to_t)
  | Ebin (("&&" | "||") as op, a, b) ->
    (* short-circuit with explicit control flow + phi *)
    let av = boolify ctx (lower_expr ctx a) in
    let a_end = ctx.cur in
    let rhs = new_block ctx "sc.rhs" in
    let done_ = new_block ctx "sc.done" in
    if op = "&&" then terminate ctx (Instr.Cbr (av, rhs, done_))
    else terminate ctx (Instr.Cbr (av, done_, rhs));
    switch ctx rhs;
    let bv = boolify ctx (lower_expr ctx b) in
    let b_end = ctx.cur in
    terminate ctx (Instr.Br done_);
    switch ctx done_;
    let short = if op = "&&" then Instr.Cint 0L else Instr.Cint 1L in
    let phi =
      Builder.insert_front ctx.f done_ (Instr.Phi [ (a_end, short); (b_end, bv) ]) Ty.I64
    in
    (Instr.Reg phi.Instr.id, Tint)
  | Ebin (("==" | "!=" | "<" | "<=" | ">" | ">=") as op, a, b) -> (
    let va, ta = lower_expr ctx a in
    let vb, tb = lower_expr ctx b in
    match (ta, tb) with
    | Tfloat, _ | _, Tfloat ->
      let va = coerce ctx (va, ta) Tfloat and vb = coerce ctx (vb, tb) Tfloat in
      (emit ctx (Instr.Fcmp (cmp_of op, va, vb)) Ty.I64, Tint)
    | _ -> (emit ctx (Instr.Icmp (cmp_of op, va, vb)) Ty.I64, Tint))
  | Ebin (op, a, b) -> (
    let va, ta = lower_expr ctx a in
    let vb, tb = lower_expr ctx b in
    match (ta, tb) with
    | Tptr ety, Tint when op = "+" ->
      (emit ctx (Instr.Gep (va, vb)) Ty.Ptr, Tptr ety)
    | Tint, Tptr ety when op = "+" ->
      (emit ctx (Instr.Gep (vb, va)) Ty.Ptr, Tptr ety)
    | Tptr ety, Tint when op = "-" ->
      let neg = emit ctx (Instr.Bin (Instr.Sub, Instr.Cint 0L, vb)) Ty.I64 in
      (emit ctx (Instr.Gep (va, neg)) Ty.Ptr, Tptr ety)
    | Tptr _, Tptr _ when op = "-" ->
      let ia = coerce ctx (va, ta) Tint and ib = coerce ctx (vb, tb) Tint in
      (emit ctx (Instr.Bin (Instr.Sub, ia, ib)) Ty.I64, Tint)
    | Tfloat, _ | _, Tfloat ->
      let va = coerce ctx (va, ta) Tfloat and vb = coerce ctx (vb, tb) Tfloat in
      (emit ctx (Instr.Fbin (fbin_of op, va, vb)) Ty.F64, Tfloat)
    | Tint, Tint -> (emit ctx (Instr.Bin (ibin_of op, va, vb)) Ty.I64, Tint)
    | _ -> faill "invalid operands of %s" op)
  | Eternary (c, a, b) ->
    let cv = boolify ctx (lower_expr ctx c) in
    let tb = new_block ctx "sel.t" in
    let eb = new_block ctx "sel.e" in
    let done_ = new_block ctx "sel.done" in
    terminate ctx (Instr.Cbr (cv, tb, eb));
    switch ctx tb;
    let va, ta = lower_expr ctx a in
    let t_end = ctx.cur in
    switch ctx eb;
    let vb, tbt = lower_expr ctx b in
    let e_end = ctx.cur in
    let ty =
      match (ta, tbt) with
      | Tfloat, _ | _, Tfloat -> Tfloat
      | _ -> ta
    in
    switch ctx t_end;
    let va = coerce ctx (va, ta) ty in
    terminate ctx (Instr.Br done_);
    switch ctx e_end;
    let vb = coerce ctx (vb, tbt) ty in
    terminate ctx (Instr.Br done_);
    switch ctx done_;
    let phi =
      Builder.insert_front ctx.f done_
        (Instr.Phi [ (t_end, va); (e_end, vb) ])
        (ir_ty ty)
    in
    (Instr.Reg phi.Instr.id, ty)

(** Address and element type of [base[idx]]. *)
and lower_addr_idx ctx base idx =
  let bv, bt = lower_expr ctx base in
  let ety =
    match bt with
    | Tptr e -> e
    | _ -> faill "indexing a non-pointer (%s)" (ty_to_string bt)
  in
  let iv, it = lower_expr ctx idx in
  if it <> Tint then faill "array index must be int";
  (emit ctx (Instr.Gep (bv, iv)) Ty.Ptr, ety)

(** Address of an lvalue, as (pointer value, pointer type). *)
and lower_lvalue_addr ctx (lv : expr) : Instr.value * ty =
  match lv with
  | Evar name -> (
    match lookup ctx name with
    | Some (Elocal (addr, ety, _)) -> (addr, Tptr ety)
    | Some (Eglobal (g, ety, _)) -> (Instr.Glob g, Tptr ety)
    | Some (Efun f) -> (Instr.Glob f, Tptr Tvoid)
    | None -> faill "unknown variable %s" name)
  | Eidx (b, i) ->
    let addr, ety = lower_addr_idx ctx b i in
    (addr, Tptr ety)
  | Ederef p -> (
    let v, t = lower_expr ctx p in
    match t with
    | Tptr _ -> (v, t)
    | _ -> faill "dereference of non-pointer")
  | _ -> faill "expression is not an lvalue"

and lower_direct_call ctx name args =
  let psig =
    match Hashtbl.find_opt ctx.sigs name with
    | Some s -> s
    | None -> (
      match List.assoc_opt name builtins with
      | Some (ps, r) ->
        Hashtbl.replace ctx.used_builtins name ();
        { sparams = ps; sret = r }
      | None -> faill "call to unknown function %s" name)
  in
  if List.length args <> List.length psig.sparams then
    faill "%s: expected %d arguments, got %d" name (List.length psig.sparams)
      (List.length args);
  let vargs =
    List.map2 (fun a pt -> coerce ctx (lower_expr ctx a) pt) args psig.sparams
  in
  let rty = ir_ty psig.sret in
  if Ty.equal rty Ty.Void then begin
    emit_void ctx (Instr.Call (Instr.Glob name, vargs));
    (Instr.Cint 0L, Tint)
  end
  else (emit ctx (Instr.Call (Instr.Glob name, vargs)) rty, psig.sret)

and lower_indirect_call ctx fv args =
  (* indirect calls are assumed to return int and take the argument types
     as written; this covers the function-pointer tables in the corpus *)
  let vargs = List.map (fun a -> fst (lower_expr ctx a)) args in
  (emit ctx (Instr.Call (fv, vargs)) Ty.I64, Tint)

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

let rec lower_stmt ctx (s : stmt) : unit =
  if ctx.term then begin
    (* unreachable trailing code goes into a fresh dangling block that
       Cfg.prune_unreachable removes *)
    switch ctx (new_block ctx "dead")
  end;
  match s with
  | Sblock ss ->
    push_scope ctx;
    List.iter (lower_stmt ctx) ss;
    pop_scope ctx
  | Sdecl (ty, name, None, init) ->
    if ty = Tvoid then faill "void variable %s" name;
    let addr = emit ctx (Instr.Alloca (Instr.Cint 1L)) Ty.Ptr in
    bind ctx name (Elocal (addr, ty, false));
    (match init with
    | Some e ->
      let v = coerce ctx (lower_expr ctx e) ty in
      emit_void ctx (Instr.Store (v, addr))
    | None -> ())
  | Sdecl (ty, name, Some n, init) ->
    if ty = Tvoid then faill "void array %s" name;
    let addr = emit ctx (Instr.Alloca (Instr.Cint (Int64.of_int n))) Ty.Ptr in
    bind ctx name (Elocal (addr, ty, true));
    (match init with
    | Some _ -> faill "array initializers are only supported on globals"
    | None -> ())
  | Sassign (lv, e) ->
    let addr, pt = lower_lvalue_addr ctx lv in
    let ety = (match pt with Tptr t -> t | _ -> assert false) in
    let v = coerce ctx (lower_expr ctx e) ety in
    emit_void ctx (Instr.Store (v, addr))
  | Sopassign (op, lv, e) ->
    (* lower as lv = lv op e, evaluating the address once *)
    let addr, pt = lower_lvalue_addr ctx lv in
    let ety = (match pt with Tptr t -> t | _ -> assert false) in
    let cur = emit ctx (Instr.Load addr) (ir_ty ety) in
    let ev, et = lower_expr ctx e in
    let result =
      match ety with
      | Tfloat ->
        let ev = coerce ctx (ev, et) Tfloat in
        emit ctx (Instr.Fbin (fbin_of op, cur, ev)) Ty.F64
      | Tint ->
        let ev = coerce ctx (ev, et) Tint in
        emit ctx (Instr.Bin (ibin_of op, cur, ev)) Ty.I64
      | Tptr _ when op = "+" || op = "-" ->
        let ev = coerce ctx (ev, et) Tint in
        let ev =
          if op = "-" then emit ctx (Instr.Bin (Instr.Sub, Instr.Cint 0L, ev)) Ty.I64
          else ev
        in
        emit ctx (Instr.Gep (cur, ev)) Ty.Ptr
      | _ -> faill "invalid op-assignment"
    in
    emit_void ctx (Instr.Store (result, addr))
  | Sif (c, then_, else_) ->
    let cv = boolify ctx (lower_expr ctx c) in
    let tb = new_block ctx "if.then" in
    let eb = if else_ = [] then None else Some (new_block ctx "if.else") in
    let merge = new_block ctx "if.end" in
    terminate ctx (Instr.Cbr (cv, tb, match eb with Some e -> e | None -> merge));
    switch ctx tb;
    push_scope ctx;
    List.iter (lower_stmt ctx) then_;
    pop_scope ctx;
    if not ctx.term then terminate ctx (Instr.Br merge);
    (match eb with
    | Some e ->
      switch ctx e;
      push_scope ctx;
      List.iter (lower_stmt ctx) else_;
      pop_scope ctx;
      if not ctx.term then terminate ctx (Instr.Br merge)
    | None -> ());
    switch ctx merge
  | Swhile (c, body) ->
    let header = new_block ctx "while.header" in
    let bodyb = new_block ctx "while.body" in
    let exit = new_block ctx "while.end" in
    terminate ctx (Instr.Br header);
    switch ctx header;
    let cv = boolify ctx (lower_expr ctx c) in
    terminate ctx (Instr.Cbr (cv, bodyb, exit));
    switch ctx bodyb;
    ctx.loop_stack <- (exit, header) :: ctx.loop_stack;
    push_scope ctx;
    List.iter (lower_stmt ctx) body;
    pop_scope ctx;
    ctx.loop_stack <- List.tl ctx.loop_stack;
    if not ctx.term then terminate ctx (Instr.Br header);
    switch ctx exit
  | Sdo (body, c) ->
    let bodyb = new_block ctx "do.body" in
    let condb = new_block ctx "do.cond" in
    let exit = new_block ctx "do.end" in
    terminate ctx (Instr.Br bodyb);
    switch ctx bodyb;
    ctx.loop_stack <- (exit, condb) :: ctx.loop_stack;
    push_scope ctx;
    List.iter (lower_stmt ctx) body;
    pop_scope ctx;
    ctx.loop_stack <- List.tl ctx.loop_stack;
    if not ctx.term then terminate ctx (Instr.Br condb);
    switch ctx condb;
    let cv = boolify ctx (lower_expr ctx c) in
    terminate ctx (Instr.Cbr (cv, bodyb, exit));
    switch ctx exit
  | Sfor (init, cond, step, body) ->
    push_scope ctx;
    (match init with Some s -> lower_stmt ctx s | None -> ());
    let header = new_block ctx "for.header" in
    let bodyb = new_block ctx "for.body" in
    let stepb = new_block ctx "for.step" in
    let exit = new_block ctx "for.end" in
    terminate ctx (Instr.Br header);
    switch ctx header;
    (match cond with
    | Some c ->
      let cv = boolify ctx (lower_expr ctx c) in
      terminate ctx (Instr.Cbr (cv, bodyb, exit))
    | None -> terminate ctx (Instr.Br bodyb));
    switch ctx bodyb;
    ctx.loop_stack <- (exit, stepb) :: ctx.loop_stack;
    push_scope ctx;
    List.iter (lower_stmt ctx) body;
    pop_scope ctx;
    ctx.loop_stack <- List.tl ctx.loop_stack;
    if not ctx.term then terminate ctx (Instr.Br stepb);
    switch ctx stepb;
    (match step with Some s -> lower_stmt ctx s | None -> ());
    if not ctx.term then terminate ctx (Instr.Br header);
    pop_scope ctx;
    switch ctx exit
  | Sreturn e -> (
    match (e, ctx.ret_ty) with
    | None, _ -> terminate ctx (Instr.Ret None)
    | Some e, rt ->
      let v = coerce ctx (lower_expr ctx e) rt in
      terminate ctx (Instr.Ret (Some v)))
  | Sbreak -> (
    match ctx.loop_stack with
    | (brk, _) :: _ -> terminate ctx (Instr.Br brk)
    | [] -> faill "break outside loop")
  | Scontinue -> (
    match ctx.loop_stack with
    | (_, cont) :: _ -> terminate ctx (Instr.Br cont)
    | [] -> faill "continue outside loop")
  | Sexpr e -> ignore (lower_expr ctx e)

(* ------------------------------------------------------------------ *)
(* Program                                                             *)
(* ------------------------------------------------------------------ *)

let const_value = function
  | Eint n -> Instr.Cint n
  | Efloat f -> Instr.Cfloat f
  | Eun (Neg, Eint n) -> Instr.Cint (Int64.neg n)
  | Eun (Neg, Efloat f) -> Instr.Cfloat (-.f)
  | _ -> faill "global initializers must be constants"

(** Lower a parsed program into an IR module.  Does not run mem2reg. *)
let lower_program ?(name = "module") (prog : program) : Irmod.t =
  let m = Irmod.create ~name () in
  let sigs : (string, fnsig) Hashtbl.t = Hashtbl.create 16 in
  let global_env = ref [] in
  (* first pass: signatures and globals *)
  List.iter
    (function
      | Gfun (ret, name, params, _) | Gproto (ret, name, params) ->
        Hashtbl.replace sigs name { sparams = List.map fst params; sret = ret }
      | Gvar (ty, name, arr, init) ->
        if ty = Tvoid then faill "global %s cannot have void type" name;
        let size = match arr with Some n -> n | None -> 1 in
        let init =
          Option.map (fun es -> Array.of_list (List.map const_value es)) init
        in
        Irmod.add_global m { Irmod.gname = name; size; init };
        global_env := (name, Eglobal (name, ty, arr <> None)) :: !global_env)
    prog;
  let used_builtins = Hashtbl.create 8 in
  (* second pass: function bodies *)
  let protos = ref [] in
  List.iter
    (function
      | Gvar _ -> ()
      | Gproto (ret, name, params) -> protos := (ret, name, params) :: !protos
      | Gfun (ret, name, params, body) ->
        let f =
          Func.create ~name
            ~params:(List.map (fun (t, n) -> (n, ir_ty t)) params)
            ~ret:(ir_ty ret)
        in
        Irmod.add_func m f;
        let entry = Builder.add_block f ~label:"entry" in
        let ctx =
          {
            m; f;
            cur = entry.Func.bid;
            pending = [];
            term = false;
            scopes = [ [] ; !global_env ];
            loop_stack = [];
            sigs;
            used_builtins;
            ret_ty = ret;
          }
        in
        ignore ctx.m;
        (* spill parameters into allocas so & works and they are mutable *)
        List.iteri
          (fun i (pt, pn) ->
            let addr = emit ctx (Instr.Alloca (Instr.Cint 1L)) Ty.Ptr in
            emit_void ctx (Instr.Store (Instr.Arg i, addr));
            bind ctx pn (Elocal (addr, pt, false)))
          params;
        List.iter (lower_stmt ctx) body;
        if not ctx.term then begin
          match ret with
          | Tvoid -> terminate ctx (Instr.Ret None)
          | Tfloat ->
            terminate ctx (Instr.Ret (Some (Instr.Cfloat 0.0)))
          | _ -> terminate ctx (Instr.Ret (Some (Instr.Cint 0L)))
        end;
        flush ctx)
    prog;
  (* declare prototypes that no unit in this module defines *)
  List.iter
    (fun (ret, name, params) ->
      if Irmod.func_opt m name = None then
        Irmod.add_func m
          (Func.declare ~name
             ~params:(List.map (fun (t, n) -> (n, ir_ty t)) params)
             ~ret:(ir_ty ret)))
    !protos;
  (* declare used builtins *)
  Hashtbl.iter
    (fun name () ->
      if Irmod.func_opt m name = None then
        match List.assoc_opt name builtins with
        | Some (ps, r) ->
          Irmod.add_func m
            (Func.declare ~name
               ~params:(List.mapi (fun i t -> (Printf.sprintf "a%d" i, ir_ty t)) ps)
               ~ret:(ir_ty r))
        | None -> ())
    used_builtins;
  m

(** Compile Mini-C source to a verified SSA module (runs mem2reg + DCE). *)
let compile ?(name = "module") (src : string) : Irmod.t =
  let prog = Cparser.parse_program src in
  let m = lower_program ~name prog in
  Trace.span ~cat:"frontend" "ssa.mem2reg" (fun () -> ignore (Mem2reg.run_module m));
  Trace.span ~cat:"frontend" "ssa.simplify" (fun () -> ignore (Simplify.run_module m));
  List.iter
    (fun f ->
      ignore (Builder.dce_phis f);
      ignore (Builder.dce f))
    (Irmod.defined_functions m);
  Verify.verify_module m;
  m
