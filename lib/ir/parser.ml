(** Parser for the textual IR emitted by {!Printer}.

    Hand-written lexer + recursive-descent parser.  Instruction ids and
    block labels are preserved exactly, so metadata keyed by them (profiles,
    embedded PDGs) survives a print/parse round trip. *)

exception Parse_error of string

type tok =
  | ID of string
  | REG of string
  | GLOB of string
  | INT of int64
  | FLOAT of float
  | STR of string
  | LPAR | RPAR | LBRACE | RBRACE | LBRACK | RBRACK
  | EQ | COMMA | COLON
  | EOF

let tok_str = function
  | ID s -> s
  | REG s -> "%" ^ s
  | GLOB s -> "@" ^ s
  | INT n -> Int64.to_string n
  | FLOAT f -> string_of_float f
  | STR s -> Printf.sprintf "%S" s
  | LPAR -> "(" | RPAR -> ")" | LBRACE -> "{" | RBRACE -> "}"
  | LBRACK -> "[" | RBRACK -> "]" | EQ -> "=" | COMMA -> "," | COLON -> ":"
  | EOF -> "<eof>"

let fail line msg = raise (Parse_error (Printf.sprintf "line %d: %s" line msg))

(* the one reader of numbers in the text: [read s], or a parse error at
   [line] naming [s] *)
let checked line what read s =
  match read s with
  | Some k -> k
  | None -> fail line (Printf.sprintf "malformed or out-of-range %s %s" what s)

(* ------------------------------------------------------------------ *)
(* Lexer                                                              *)
(* ------------------------------------------------------------------ *)

let is_id_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  || c = '_' || c = '.' || c = '-'

let tokenize (src : string) : (tok * int) array =
  let n = String.length src in
  let toks = ref [] in
  let line = ref 1 in
  let i = ref 0 in
  let push t = toks := (t, !line) :: !toks in
  while !i < n do
    let c = src.[!i] in
    if c = '\n' then (incr line; incr i)
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = ';' then begin
      while !i < n && src.[!i] <> '\n' do incr i done
    end
    else if c = '"' then begin
      incr i;
      let b = Buffer.create 16 in
      let fin = ref false in
      while not !fin do
        if !i >= n then fail !line "unterminated string";
        (match src.[!i] with
        | '"' -> fin := true
        | '\\' ->
          incr i;
          if !i >= n then fail !line "bad escape";
          Buffer.add_char b
            (match src.[!i] with 'n' -> '\n' | 't' -> '\t' | c -> c)
        | c -> Buffer.add_char b c);
        incr i
      done;
      push (STR (Buffer.contents b))
    end
    else if c = '%' || c = '@' then begin
      let kind = c in
      incr i;
      let start = !i in
      while !i < n && is_id_char src.[!i] do incr i done;
      let name = String.sub src start (!i - start) in
      if name = "" then fail !line "empty identifier";
      push (if kind = '%' then REG name else GLOB name)
    end
    else if (c >= '0' && c <= '9')
            || (c = '-' && !i + 1 < n && src.[!i + 1] >= '0' && src.[!i + 1] <= '9')
    then begin
      let start = !i in
      if c = '-' then incr i;
      let isfloat = ref false in
      let continue_ = ref true in
      while !continue_ && !i < n do
        let d = src.[!i] in
        if d >= '0' && d <= '9' then incr i
        else if d = '.' && !i + 1 < n && src.[!i + 1] >= '0' && src.[!i + 1] <= '9'
        then (isfloat := true; incr i)
        else if (d = 'e' || d = 'E')
                && !i + 1 < n
                && (src.[!i + 1] = '-' || src.[!i + 1] = '+'
                    || (src.[!i + 1] >= '0' && src.[!i + 1] <= '9'))
        then (isfloat := true; i := !i + 2)
        else continue_ := false
      done;
      let s = String.sub src start (!i - start) in
      push
        (if !isfloat then FLOAT (checked !line "literal" float_of_string_opt s)
         else INT (checked !line "literal" Int64.of_string_opt s))
    end
    else if is_id_char c then begin
      let start = !i in
      while !i < n && is_id_char src.[!i] do incr i done;
      push (ID (String.sub src start (!i - start)))
    end
    else begin
      (match c with
      | '(' -> push LPAR | ')' -> push RPAR
      | '{' -> push LBRACE | '}' -> push RBRACE
      | '[' -> push LBRACK | ']' -> push RBRACK
      | '=' -> push EQ | ',' -> push COMMA | ':' -> push COLON
      | c -> fail !line (Printf.sprintf "unexpected character %C" c));
      incr i
    end
  done;
  push EOF;
  Array.of_list (List.rev !toks)

(* ------------------------------------------------------------------ *)
(* Parser state                                                       *)
(* ------------------------------------------------------------------ *)

type st = { toks : (tok * int) array; mutable pos : int }

(* the token array always ends with EOF; clamp reads so errors at the end
   of input report a position instead of crashing *)
let idx st = min st.pos (Array.length st.toks - 1)
let peek st = fst st.toks.(idx st)
let line st = snd st.toks.(idx st)
let next st = let t = peek st in st.pos <- st.pos + 1; t

let expect st t =
  let l = line st in
  let got = next st in
  if got <> t then
    fail l (Printf.sprintf "expected %s, got %s" (tok_str t) (tok_str got))

let expect_id st =
  let l = line st in
  match next st with
  | ID s -> s
  | t -> fail l (Printf.sprintf "expected identifier, got %s" (tok_str t))

let ty_of_tag l = function
  | "i64" -> Ty.I64
  | "f64" -> Ty.F64
  | "ptr" -> Ty.Ptr
  | "void" -> Ty.Void
  | s -> fail l (Printf.sprintf "unknown type %s" s)

let is_all_digits s =
  s <> "" && String.for_all (fun c -> c >= '0' && c <= '9') s

(* a register id: the digits of an [is_all_digits] name *)
let reg_id line r = checked line "register id" int_of_string_opt r

(* ------------------------------------------------------------------ *)
(* Instruction parsing                                                *)
(* ------------------------------------------------------------------ *)

let bin_of_string = function
  | "add" -> Some Instr.Add | "sub" -> Some Instr.Sub | "mul" -> Some Instr.Mul
  | "sdiv" -> Some Instr.Sdiv | "srem" -> Some Instr.Srem
  | "and" -> Some Instr.And | "or" -> Some Instr.Or | "xor" -> Some Instr.Xor
  | "shl" -> Some Instr.Shl | "ashr" -> Some Instr.Ashr
  | _ -> None

let fbin_of_string = function
  | "fadd" -> Some Instr.Fadd | "fsub" -> Some Instr.Fsub
  | "fmul" -> Some Instr.Fmul | "fdiv" -> Some Instr.Fdiv
  | _ -> None

let cmp_of_string l = function
  | "eq" -> Instr.Eq | "ne" -> Instr.Ne | "slt" -> Instr.Slt
  | "sle" -> Instr.Sle | "sgt" -> Instr.Sgt | "sge" -> Instr.Sge
  | s -> fail l (Printf.sprintf "unknown predicate %s" s)

let cast_of_string = function
  | "sitofp" -> Some Instr.Sitofp | "fptosi" -> Some Instr.Fptosi
  | "ptrtoint" -> Some Instr.Ptrtoint | "inttoptr" -> Some Instr.Inttoptr
  | _ -> None

let split_dot s =
  match String.index_opt s '.' with
  | Some i -> (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
  | None -> (s, "")

(** Parse a whole module from a string. *)
let parse_module ?(name = "module") (src : string) : Irmod.t =
  let st = { toks = tokenize src; pos = 0 } in
  let name =
    (* an initial [module "name"] directive overrides the default *)
    match (fst st.toks.(0), if Array.length st.toks > 1 then fst st.toks.(1) else EOF) with
    | ID "module", STR s -> s
    | _ -> name
  in
  let m = Irmod.create ~name () in
  let parse_const () =
    match next st with
    | INT n -> Instr.Cint n
    | FLOAT f -> Instr.Cfloat f
    | ID "null" -> Instr.Null
    | t -> fail (line st) (Printf.sprintf "expected constant, got %s" (tok_str t))
  in
  let parse_params () =
    expect st LPAR;
    let ps = ref [] in
    if peek st <> RPAR then begin
      let rec loop () =
        let tag = expect_id st in
        let ty = ty_of_tag (line st) tag in
        (match next st with
        | REG n -> ps := (n, ty) :: !ps
        | t -> fail (line st) (Printf.sprintf "expected parameter name, got %s" (tok_str t)));
        if peek st = COMMA then (ignore (next st); loop ())
      in
      loop ()
    end;
    expect st RPAR;
    List.rev !ps
  in
  let rec top () =
    match next st with
    | EOF -> ()
    | ID "module" ->
      (match next st with STR _ -> () | t -> fail (line st) ("bad module name " ^ tok_str t));
      top ()
    | ID "meta" ->
      let k = (match next st with STR s -> s | t -> fail (line st) ("bad meta key " ^ tok_str t)) in
      expect st EQ;
      let v = (match next st with STR s -> s | t -> fail (line st) ("bad meta value " ^ tok_str t)) in
      Meta.set m.Irmod.meta k v;
      top ()
    | ID "global" ->
      let gname = (match next st with GLOB g -> g | t -> fail (line st) ("bad global " ^ tok_str t)) in
      expect st EQ;
      let size =
        match next st with
        | INT n -> Int64.to_int n
        | t -> fail (line st) ("bad global size " ^ tok_str t)
      in
      let init =
        if peek st = LBRACK then begin
          ignore (next st);
          let vs = ref [] in
          if peek st <> RBRACK then begin
            let rec loop () =
              vs := parse_const () :: !vs;
              if peek st = COMMA then (ignore (next st); loop ())
            in
            loop ()
          end;
          expect st RBRACK;
          Some (Array.of_list (List.rev !vs))
        end
        else None
      in
      Irmod.add_global m { Irmod.gname; size; init };
      top ()
    | ID "declare" ->
      let ret = ty_of_tag (line st) (expect_id st) in
      let fname = (match next st with GLOB g -> g | t -> fail (line st) ("bad name " ^ tok_str t)) in
      let params = parse_params () in
      Irmod.add_func m (Func.declare ~name:fname ~params ~ret);
      top ()
    | ID "define" ->
      let ret = ty_of_tag (line st) (expect_id st) in
      let fname = (match next st with GLOB g -> g | t -> fail (line st) ("bad name " ^ tok_str t)) in
      let params = parse_params () in
      expect st LBRACE;
      let f = Func.create ~name:fname ~params ~ret in
      parse_body f;
      Irmod.add_func m f;
      top ()
    | t -> fail (line st) (Printf.sprintf "unexpected %s at top level" (tok_str t))
  and parse_body (f : Func.t) =
    (* Pre-scan the body (up to the matching '}') to find the maximum
       instruction id and the block labels in order. *)
    let start = st.pos in
    let max_id = ref (-1) in
    let labels = ref [] in
    let j = ref st.pos in
    let fin = ref false in
    while not !fin do
      (match fst st.toks.(!j) with
      | RBRACE -> fin := true
      | EOF -> fail (snd st.toks.(!j)) "unterminated function body"
      | REG r when is_all_digits r && !j + 1 < Array.length st.toks
                   && fst st.toks.(!j + 1) = EQ ->
        max_id := max !max_id (reg_id (snd st.toks.(!j)) r)
      | ID l when !j + 1 < Array.length st.toks && fst st.toks.(!j + 1) = COLON
                  && (!j = start || fst st.toks.(!j - 1) <> LBRACK) ->
        labels := l :: !labels
      | _ -> ());
      incr j
    done;
    Builder.reserve_ids f (!max_id + 1);
    let label_tbl = Hashtbl.create 8 in
    List.iter
      (fun l ->
        let b = Builder.add_block f ~label:l in
        Builder.set_label f b.Func.bid l;
        Hashtbl.replace label_tbl l b.Func.bid)
      (List.rev !labels);
    let bid_of_label l =
      match Hashtbl.find_opt label_tbl l with
      | Some b -> b
      | None -> fail (line st) (Printf.sprintf "unknown label %s" l)
    in
    let param_idx n =
      let found = ref (-1) in
      Array.iteri (fun i (pn, _) -> if pn = n then found := i) f.Func.params;
      if !found < 0 then fail (line st) (Printf.sprintf "unknown value %%%s" n);
      !found
    in
    let parse_value () =
      match next st with
      | INT n -> Instr.Cint n
      | FLOAT x -> Instr.Cfloat x
      | ID "null" -> Instr.Null
      | GLOB g -> Instr.Glob g
      | REG r -> if is_all_digits r then Instr.Reg (reg_id (line st) r) else Instr.Arg (param_idx r)
      | t -> fail (line st) (Printf.sprintf "expected value, got %s" (tok_str t))
    in
    let parse_args () =
      expect st LPAR;
      let args = ref [] in
      if peek st <> RPAR then begin
        let rec loop () =
          args := parse_value () :: !args;
          if peek st = COMMA then (ignore (next st); loop ())
        in
        loop ()
      end;
      expect st RPAR;
      List.rev !args
    in
    let comma () = expect st COMMA in
    (* parse an op given its mnemonic; returns (op, result ty) *)
    let parse_op mnem =
      let l = line st in
      let base, suffix = split_dot mnem in
      match bin_of_string base, fbin_of_string base, cast_of_string base with
      | Some b, _, _ when suffix = "" ->
        let a = parse_value () in comma (); let c = parse_value () in
        (Instr.Bin (b, a, c), Ty.I64)
      | _, Some b, _ when suffix = "" ->
        let a = parse_value () in comma (); let c = parse_value () in
        (Instr.Fbin (b, a, c), Ty.F64)
      | _, _, Some k when suffix = "" ->
        let a = parse_value () in
        let ty = match k with
          | Instr.Sitofp -> Ty.F64 | Instr.Fptosi -> Ty.I64
          | Instr.Ptrtoint -> Ty.I64 | Instr.Inttoptr -> Ty.Ptr
        in
        (Instr.Cast (k, a), ty)
      | _ ->
        (match base with
        | "icmp" ->
          let c = cmp_of_string l suffix in
          let a = parse_value () in comma (); let b = parse_value () in
          (Instr.Icmp (c, a, b), Ty.I64)
        | "fcmp" ->
          let c = cmp_of_string l suffix in
          let a = parse_value () in comma (); let b = parse_value () in
          (Instr.Fcmp (c, a, b), Ty.I64)
        | "alloca" -> (Instr.Alloca (parse_value ()), Ty.Ptr)
        | "load" -> (Instr.Load (parse_value ()), ty_of_tag l suffix)
        | "store" ->
          let a = parse_value () in comma (); let p = parse_value () in
          (Instr.Store (a, p), Ty.Void)
        | "gep" ->
          let p = parse_value () in comma (); let idx = parse_value () in
          (Instr.Gep (p, idx), Ty.Ptr)
        | "call" ->
          let callee = parse_value () in
          let args = parse_args () in
          (Instr.Call (callee, args), ty_of_tag l suffix)
        | "phi" ->
          let incs = ref [] in
          while peek st = LBRACK do
            ignore (next st);
            let lbl = expect_id st in
            expect st COLON;
            let v = parse_value () in
            expect st RBRACK;
            incs := (bid_of_label lbl, v) :: !incs
          done;
          (Instr.Phi (List.rev !incs), ty_of_tag l suffix)
        | "select" ->
          let c = parse_value () in comma ();
          let a = parse_value () in comma (); let b = parse_value () in
          (Instr.Select (c, a, b), ty_of_tag l suffix)
        | "br" -> (Instr.Br (bid_of_label (expect_id st)), Ty.Void)
        | "cbr" ->
          let c = parse_value () in comma ();
          let t = bid_of_label (expect_id st) in comma ();
          let e = bid_of_label (expect_id st) in
          (Instr.Cbr (c, t, e), Ty.Void)
        | "ret" ->
          (match peek st with
          | INT _ | FLOAT _ | GLOB _ -> (Instr.Ret (Some (parse_value ())), Ty.Void)
          | ID "null" -> (Instr.Ret (Some (parse_value ())), Ty.Void)
          | REG _ when fst st.toks.(st.pos + 1) <> EQ ->
            (Instr.Ret (Some (parse_value ())), Ty.Void)
          | _ -> (Instr.Ret None, Ty.Void))
        | "unreachable" -> (Instr.Unreachable, Ty.Void)
        | s -> fail l (Printf.sprintf "unknown instruction %s" s))
    in
    let cur_block = ref (-1) in
    (* each block's ids, newest first, laid out once the body is read *)
    let pending = Hashtbl.create 8 in
    let append_inst id op ty =
      Builder.define_with_id f !cur_block ~id op ty;
      match Hashtbl.find_opt pending !cur_block with
      | Some ids -> ids := id :: !ids
      | None -> Hashtbl.add pending !cur_block (ref [ id ])
    in
    let fin = ref false in
    while not !fin do
      match peek st with
      | RBRACE ->
        ignore (next st);
        Hashtbl.iter (fun bid ids -> Builder.fill_block f bid (List.rev !ids)) pending;
        fin := true
      | ID l when fst st.toks.(st.pos + 1) = COLON ->
        ignore (next st); ignore (next st);
        cur_block := bid_of_label l
      | (REG _ | ID _) when !cur_block < 0 -> fail (line st) "instruction before any label"
      | REG r when is_all_digits r && fst st.toks.(st.pos + 1) = EQ ->
        let id = reg_id (line st) r in
        ignore (next st); ignore (next st);
        let mnem = expect_id st in
        let op, ty = parse_op mnem in
        append_inst id op ty
      | ID _ ->
        let mnem = expect_id st in
        let op, ty = parse_op mnem in
        append_inst (Func.fresh_id f) op ty
      | t -> fail (line st) (Printf.sprintf "unexpected %s in function body" (tok_str t))
    done
  in
  top ();
  m

(** Parse a module from a file. *)
let parse_file path =
  let s = In_channel.with_open_bin path In_channel.input_all in
  parse_module ~name:(Filename.remove_extension (Filename.basename path)) s
