(** Recursive-descent parser for Mini-C. *)

open Ast

type st = { toks : (Lexer.tok * int) array; mutable pos : int }

let fail st msg =
  let i = min st.pos (Array.length st.toks - 1) in
  raise (Error { line = snd st.toks.(i); msg })

let peek st = fst st.toks.(st.pos)
let peek2 st = if st.pos + 1 < Array.length st.toks then fst st.toks.(st.pos + 1) else Lexer.TEOF
let next st = let t = peek st in st.pos <- st.pos + 1; t

let accept st p = if peek st = Lexer.TPUNCT p then (st.pos <- st.pos + 1; true) else false

let expect st p =
  if not (accept st p) then
    fail st (Printf.sprintf "expected %s, got %s" p (Lexer.tok_str (peek st)))

let expect_id st =
  match next st with
  | Lexer.TID s -> s
  | t -> fail st (Printf.sprintf "expected identifier, got %s" (Lexer.tok_str t))

let is_type_kw = function "int" | "float" | "void" -> true | _ -> false

(** Parse a type: (int|float|void) '*'* *)
let parse_ty st =
  let base =
    match next st with
    | Lexer.TID "int" -> Tint
    | Lexer.TID "float" -> Tfloat
    | Lexer.TID "void" -> Tvoid
    | t -> fail st (Printf.sprintf "expected type, got %s" (Lexer.tok_str t))
  in
  let t = ref base in
  while accept st "*" do t := Tptr !t done;
  !t

let starts_type st =
  match peek st with Lexer.TID s -> is_type_kw s | _ -> false

(* precedence table: higher binds tighter *)
let prec = function
  | "||" -> 1 | "&&" -> 2 | "|" -> 3 | "^" -> 4 | "&" -> 5
  | "==" | "!=" -> 6
  | "<" | "<=" | ">" | ">=" -> 7
  | "<<" | ">>" -> 8
  | "+" | "-" -> 9
  | "*" | "/" | "%" -> 10
  | _ -> -1

let rec parse_expr st = parse_ternary st

and parse_ternary st =
  let c = parse_binary st 1 in
  if accept st "?" then begin
    let a = parse_expr st in
    expect st ":";
    let b = parse_ternary st in
    Eternary (c, a, b)
  end
  else c

and parse_binary st min_prec =
  let lhs = ref (parse_unary st) in
  let continue_ = ref true in
  while !continue_ do
    match peek st with
    | Lexer.TPUNCT p when prec p >= min_prec ->
      ignore (next st);
      let rhs = parse_binary st (prec p + 1) in
      lhs := Ebin (p, !lhs, rhs)
    | _ -> continue_ := false
  done;
  !lhs

and parse_unary st =
  match peek st with
  | Lexer.TPUNCT "-" -> ignore (next st); Eun (Neg, parse_unary st)
  | Lexer.TPUNCT "!" -> ignore (next st); Eun (Not, parse_unary st)
  | Lexer.TPUNCT "~" -> ignore (next st); Eun (Bnot, parse_unary st)
  | Lexer.TPUNCT "*" -> ignore (next st); Ederef (parse_unary st)
  | Lexer.TPUNCT "&" -> ignore (next st); Eaddr (parse_unary st)
  | Lexer.TPUNCT "(" when (match peek2 st with Lexer.TID s -> is_type_kw s | _ -> false) ->
    ignore (next st);
    let ty = parse_ty st in
    expect st ")";
    Ecast (ty, parse_unary st)
  | _ -> parse_postfix st

and parse_postfix st =
  let e = ref (parse_primary st) in
  let continue_ = ref true in
  while !continue_ do
    if accept st "[" then begin
      let idx = parse_expr st in
      expect st "]";
      e := Eidx (!e, idx)
    end
    else if peek st = Lexer.TPUNCT "(" then begin
      ignore (next st);
      let args = ref [] in
      if peek st <> Lexer.TPUNCT ")" then begin
        let rec loop () =
          args := parse_expr st :: !args;
          if accept st "," then loop ()
        in
        loop ()
      end;
      expect st ")";
      (match !e with
      | Evar f -> e := Ecall (f, List.rev !args)
      | other -> e := Ecallptr (other, List.rev !args))
    end
    else continue_ := false
  done;
  !e

and parse_primary st =
  match next st with
  | Lexer.TINT n -> Eint n
  | Lexer.TFLOAT f -> Efloat f
  | Lexer.TID name -> Evar name
  | Lexer.TPUNCT "(" ->
    let e = parse_expr st in
    expect st ")";
    e
  | t -> fail st (Printf.sprintf "unexpected %s in expression" (Lexer.tok_str t))

(** Simple statement without trailing ';': declaration, assignment,
    op-assignment, increment, or bare expression. *)
let rec parse_simple st : stmt =
  if starts_type st then begin
    let ty = parse_ty st in
    let name = expect_id st in
    let arr =
      if accept st "[" then begin
        let n =
          match next st with
          | Lexer.TINT n -> Int64.to_int n
          | t -> fail st (Printf.sprintf "expected array size, got %s" (Lexer.tok_str t))
        in
        expect st "]";
        Some n
      end
      else None
    in
    let init = if accept st "=" then Some (parse_expr st) else None in
    Sdecl (ty, name, arr, init)
  end
  else begin
    let lhs = parse_expr st in
    match peek st with
    | Lexer.TPUNCT "=" -> ignore (next st); Sassign (lhs, parse_expr st)
    | Lexer.TPUNCT ("+=" | "-=" | "*=" | "/=" | "%=" | "&=" | "|=" | "^=" | "<<=" | ">>=") ->
      let p = (match next st with Lexer.TPUNCT p -> p | _ -> assert false) in
      let op = String.sub p 0 (String.length p - 1) in
      Sopassign (op, lhs, parse_expr st)
    | Lexer.TPUNCT "++" -> ignore (next st); Sopassign ("+", lhs, Eint 1L)
    | Lexer.TPUNCT "--" -> ignore (next st); Sopassign ("-", lhs, Eint 1L)
    | _ -> Sexpr lhs
  end

and parse_stmt st : stmt =
  match peek st with
  | Lexer.TPUNCT "{" -> Sblock (parse_block st)
  | Lexer.TPUNCT ";" -> ignore (next st); Sblock []
  | Lexer.TID "if" ->
    ignore (next st);
    expect st "(";
    let c = parse_expr st in
    expect st ")";
    let then_ = parse_stmt_as_list st in
    let else_ =
      if peek st = Lexer.TID "else" then (ignore (next st); parse_stmt_as_list st)
      else []
    in
    Sif (c, then_, else_)
  | Lexer.TID "while" ->
    ignore (next st);
    expect st "(";
    let c = parse_expr st in
    expect st ")";
    Swhile (c, parse_stmt_as_list st)
  | Lexer.TID "do" ->
    ignore (next st);
    let body = parse_stmt_as_list st in
    (match next st with
    | Lexer.TID "while" -> ()
    | t -> fail st (Printf.sprintf "expected while, got %s" (Lexer.tok_str t)));
    expect st "(";
    let c = parse_expr st in
    expect st ")";
    expect st ";";
    Sdo (body, c)
  | Lexer.TID "for" ->
    ignore (next st);
    expect st "(";
    let init = if peek st = Lexer.TPUNCT ";" then None else Some (parse_simple st) in
    expect st ";";
    let cond = if peek st = Lexer.TPUNCT ";" then None else Some (parse_expr st) in
    expect st ";";
    let step = if peek st = Lexer.TPUNCT ")" then None else Some (parse_simple st) in
    expect st ")";
    Sfor (init, cond, step, parse_stmt_as_list st)
  | Lexer.TID "return" ->
    ignore (next st);
    let e = if peek st = Lexer.TPUNCT ";" then None else Some (parse_expr st) in
    expect st ";";
    Sreturn e
  | Lexer.TID "break" -> ignore (next st); expect st ";"; Sbreak
  | Lexer.TID "continue" -> ignore (next st); expect st ";"; Scontinue
  | _ ->
    let s = parse_simple st in
    expect st ";";
    s

and parse_stmt_as_list st : stmt list =
  match parse_stmt st with Sblock ss -> ss | s -> [ s ]

and parse_block st : stmt list =
  expect st "{";
  let stmts = ref [] in
  while peek st <> Lexer.TPUNCT "}" do
    stmts := parse_stmt st :: !stmts
  done;
  expect st "}";
  List.rev !stmts

(** Parse a whole translation unit. *)
let parse_program (src : string) : program =
  let st = { toks = Lexer.tokenize src; pos = 0 } in
  let decls = ref [] in
  while peek st <> Lexer.TEOF do
    let ty = parse_ty st in
    let name = expect_id st in
    if peek st = Lexer.TPUNCT "(" then begin
      (* function *)
      ignore (next st);
      let params = ref [] in
      if peek st <> Lexer.TPUNCT ")" then begin
        let rec loop () =
          let pty = parse_ty st in
          let pname = expect_id st in
          params := (pty, pname) :: !params;
          if accept st "," then loop ()
        in
        loop ()
      end;
      expect st ")";
      if accept st ";" then
        decls := Gproto (ty, name, List.rev !params) :: !decls
      else begin
        let body = parse_block st in
        decls := Gfun (ty, name, List.rev !params, body) :: !decls
      end
    end
    else begin
      (* global variable *)
      let arr =
        if accept st "[" then begin
          let n =
            match next st with
            | Lexer.TINT n -> Int64.to_int n
            | t -> fail st (Printf.sprintf "expected array size, got %s" (Lexer.tok_str t))
          in
          expect st "]";
          Some n
        end
        else None
      in
      let init =
        if accept st "=" then
          if accept st "{" then begin
            let vs = ref [] in
            if peek st <> Lexer.TPUNCT "}" then begin
              let rec loop () =
                vs := parse_expr st :: !vs;
                if accept st "," then loop ()
              in
              loop ()
            end;
            expect st "}";
            Some (List.rev !vs)
          end
          else Some [ parse_expr st ]
        else None
      in
      expect st ";";
      decls := Gvar (ty, name, arr, init) :: !decls
    end
  done;
  List.rev !decls
