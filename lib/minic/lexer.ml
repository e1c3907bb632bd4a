(** Lexer for Mini-C. *)

type tok =
  | TID of string
  | TINT of int64
  | TFLOAT of float
  | TPUNCT of string   (** operators and punctuation, longest match *)
  | TEOF

let tok_str = function
  | TID s -> s
  | TINT n -> Int64.to_string n
  | TFLOAT f -> string_of_float f
  | TPUNCT s -> s
  | TEOF -> "<eof>"

let puncts =
  (* ordered longest-first for maximal munch *)
  [ "<<="; ">>="; "&&"; "||"; "=="; "!="; "<="; ">="; "<<"; ">>"; "+="; "-=";
    "*="; "/="; "%="; "&="; "|="; "^="; "++"; "--"; "->";
    "+"; "-"; "*"; "/"; "%"; "&"; "|"; "^"; "~"; "!"; "<"; ">"; "=";
    "("; ")"; "{"; "}"; "["; "]"; ";"; ","; "?"; ":" ]

let is_id_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_id_char c = is_id_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

(** Tokenize [src]; returns tokens paired with line numbers. *)
let tokenize (src : string) : (tok * int) array =
  let n = String.length src in
  let out = ref [] in
  let line = ref 1 in
  let i = ref 0 in
  let push t = out := (t, !line) :: !out in
  while !i < n do
    let c = src.[!i] in
    if c = '\n' then (incr line; incr i)
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = '/' && !i + 1 < n && src.[!i + 1] = '/' then begin
      while !i < n && src.[!i] <> '\n' do incr i done
    end
    else if c = '/' && !i + 1 < n && src.[!i + 1] = '*' then begin
      i := !i + 2;
      let fin = ref false in
      while not !fin do
        if !i + 1 >= n then Ast.fail !line "unterminated comment";
        if src.[!i] = '\n' then incr line;
        if src.[!i] = '*' && src.[!i + 1] = '/' then (fin := true; i := !i + 2)
        else incr i
      done
    end
    else if is_digit c then begin
      let start = !i in
      while !i < n && is_digit src.[!i] do incr i done;
      let isfloat = ref false in
      if !i < n && src.[!i] = '.' && !i + 1 < n && is_digit src.[!i + 1] then begin
        isfloat := true;
        incr i;
        while !i < n && is_digit src.[!i] do incr i done
      end;
      if !i < n && (src.[!i] = 'e' || src.[!i] = 'E') then begin
        isfloat := true;
        incr i;
        if !i < n && (src.[!i] = '+' || src.[!i] = '-') then incr i;
        while !i < n && is_digit src.[!i] do incr i done
      end;
      let s = String.sub src start (!i - start) in
      match
        if !isfloat then Option.map (fun f -> TFLOAT f) (float_of_string_opt s)
        else Option.map (fun k -> TINT k) (Int64.of_string_opt s)
      with
      | Some t -> push t
      | None -> Ast.fail !line "malformed or out-of-range literal %s" s
    end
    else if is_id_start c then begin
      let start = !i in
      while !i < n && is_id_char src.[!i] do incr i done;
      push (TID (String.sub src start (!i - start)))
    end
    else begin
      let matched =
        List.find_opt
          (fun p ->
            let lp = String.length p in
            !i + lp <= n && String.sub src !i lp = p)
          puncts
      in
      match matched with
      | Some p ->
        push (TPUNCT p);
        i := !i + String.length p
      | None ->
        Ast.fail !line "unexpected character %C" c
    end
  done;
  push TEOF;
  Array.of_list (List.rev !out)
