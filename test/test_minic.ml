(** Frontend tests: lexer, parser, lowering, and a differential qcheck
    property comparing compiled expression evaluation against a direct
    OCaml evaluator. *)

open Helpers

let test_lexer () =
  let toks = Minic.Lexer.tokenize "x+=1; /* c */ y <<= 2 // eol" in
  checki "token count" 8 (Array.length toks) (* x += 1 ; y <<= 2 EOF *)

let test_comments_and_ws () =
  checks "comments ignored" "5"
    (run_src "int main() { /* a */ int x = 5; // b\n print(x); return 0; }")

let test_precedence () =
  checks "mul before add" "7" (run_src "int main() { print(1 + 2 * 3); return 0; }");
  checks "parens" "9" (run_src "int main() { print((1 + 2) * 3); return 0; }");
  checks "cmp binds looser" "1" (run_src "int main() { print(1 + 1 == 2); return 0; }");
  checks "bitand vs eq" "1" (run_src "int main() { print(3 & 1 == 1); return 0; }");
  checks "unary minus" "-6" (run_src "int main() { print(-2 * 3); return 0; }");
  checks "not" "1" (run_src "int main() { print(!0); return 0; }");
  checks "bnot" "-8" (run_src "int main() { print(~7); return 0; }")

let test_control_flow () =
  checks "else-if chains" "2"
    (run_src
       {| int main() { int x = 15; if (x < 10) print(1); else if (x < 20) print(2); else print(3); return 0; } |});
  checks "do-while runs once" "1"
    (run_src {| int main() { int n = 0; do { n++; } while (n < 1); print(n); return 0; } |});
  checks "break" "5"
    (run_src
       {| int main() { int i = 0; while (1) { if (i == 5) break; i++; } print(i); return 0; } |});
  checks "continue" "25"
    (run_src
       {| int main() { int s = 0; for (int i = 0; i < 10; i++) { if (i % 2 == 0) continue; s += i; } print(s); return 0; } |});
  checks "nested breaks bind innermost" "8"
    (run_src
       {| int main() { int c = 0; for (int i = 0; i < 2; i++) { for (int j = 0; j < 10; j++) { if (j == 3) break; c++; } c++; } print(c); return 0; } |})

let test_scoping () =
  checks "block shadows" "1 2 1"
    (let out =
       run_src
         {| int main() { int x = 1; print(x); { int x = 2; print(x); } print(x); return 0; } |}
     in
     String.concat " " (String.split_on_char '\n' out))

let test_functions () =
  checks "multiple args" "11"
    (run_src {| int add3(int a, int b, int c) { return a + b + c; } int main() { print(add3(1, 3, 7)); return 0; } |});
  checks "void function" "4"
    (run_src
       {| int g[1]; void set(int v) { g[0] = v; } int main() { set(4); print(g[0]); return 0; } |});
  checks "float params" "5"
    (run_src
       {| float half(float x) { return x / 2.0; } int main() { print((int)half(10.5)); return 0; } |});
  checks "prototype then definition elsewhere" "13"
    (run_src {| int f(int x); int main() { print(f(6)); return 0; } int f(int x) { return 2*x+1; } |})

let test_pointers () =
  checks "pointer arithmetic" "30"
    (run_src
       {| int a[10]; int main() { for (int i = 0; i < 10; i++) a[i] = i; int *p = a; p = p + 4; print(*p + p[1] + *(p+2) + a[9] + 6); return 0; } |});
  checks "swap via pointers" "2 1"
    (let out =
       run_src
         {| void swap(int *x, int *y) { int t = *x; *x = *y; *y = t; } int main() { int a = 1; int b = 2; swap(&a, &b); print(a); print(b); return 0; } |}
     in
     String.concat " " (String.split_on_char '\n' out))

let test_float_int_mixing () =
  checks "promotion in arith" "7" (run_src "int main() { print((int)(3.5 * 2)); return 0; }");
  checks "int div stays int" "2" (run_src "int main() { print(5 / 2); return 0; }");
  checks "float div" "2" (run_src "int main() { print((int)(5.0 / 2.0)); return 0; }")

let test_frontend_errors () =
  (* every stage raises the one error; the lowering's carries line 0 *)
  let expect_err ?(line = 0) src =
    match Minic.Lower.compile ~name:"e" src with
    | exception Minic.Ast.Error e -> checki ("error line of " ^ src) line e.line
    | _ -> Alcotest.failf "expected frontend error: %s" src
  in
  expect_err "int main() { return x; }";
  expect_err "int main() { unknown_fn(); return 0; }";
  expect_err "int main() { break; }";
  expect_err "int main() { int x = 1; x[0] = 2; return 0; }";
  expect_err "int main() { float f = 0.0; print(~f); return 0; }";
  expect_err ~line:1 "int main() { if (1) { return 0; }";
  expect_err "void x; int main() { return 0; }";
  expect_err ~line:2 "int main() {\n  return 1 @ 2;\n}";
  expect_err ~line:3 "int main() {\n\n  return 99999999999999999999;\n}";
  expect_err ~line:2 "int main() {\n  float f = 1e;\n  return 0;\n}";
  expect_err ~line:2 "int main() {\n  float f = 2.5e+;\n  return 0;\n}";
  expect_err ~line:2 "int main() { return 0; }\n/* unterminated"

(* ------------------------------------------------------------------ *)
(* Differential testing: random expressions                            *)
(* ------------------------------------------------------------------ *)

type exp =
  | L of int64
  | V of int            (* one of 3 pre-seeded variables *)
  | Bin of string * exp * exp
  | Neg of exp
  | Tern of exp * exp * exp

let rec to_c = function
  | L n -> if n < 0L then Printf.sprintf "(0 - %Ld)" (Int64.neg n) else Int64.to_string n
  | V i -> Printf.sprintf "v%d" i
  | Bin (op, a, b) -> Printf.sprintf "(%s %s %s)" (to_c a) op (to_c b)
  | Neg a -> Printf.sprintf "(-%s)" (to_c a)
  | Tern (c, a, b) -> Printf.sprintf "(%s ? %s : %s)" (to_c c) (to_c a) (to_c b)

let vars = [| 3L; -7L; 100L |]

let rec eval = function
  | L n -> n
  | V i -> vars.(i)
  | Neg a -> Int64.neg (eval a)
  | Tern (c, a, b) -> if not (Int64.equal (eval c) 0L) then eval a else eval b
  | Bin (op, a, b) -> (
    let x = eval a and y = eval b in
    let nz v = if Int64.equal v 0L then 1L else v in
    match op with
    | "+" -> Int64.add x y
    | "-" -> Int64.sub x y
    | "*" -> Int64.mul x y
    | "/" -> Int64.div x (nz y)
    | "%" -> Int64.rem x (nz y)
    | "&" -> Int64.logand x y
    | "|" -> Int64.logor x y
    | "^" -> Int64.logxor x y
    | "<" -> if x < y then 1L else 0L
    | "<=" -> if x <= y then 1L else 0L
    | ">" -> if x > y then 1L else 0L
    | ">=" -> if x >= y then 1L else 0L
    | "==" -> if Int64.equal x y then 1L else 0L
    | "!=" -> if Int64.equal x y then 0L else 1L
    | _ -> assert false)

(* division guarded the same way in the generated program *)
let rec guard_divs = function
  | Bin (("/" | "%") as op, a, b) ->
    Bin (op, guard_divs a, Tern (guard_divs b, guard_divs b, L 1L))
  | Bin (op, a, b) -> Bin (op, guard_divs a, guard_divs b)
  | Neg a -> Neg (guard_divs a)
  | Tern (c, a, b) -> Tern (guard_divs c, guard_divs a, guard_divs b)
  | e -> e

let exp_gen =
  let open QCheck.Gen in
  let ops = [ "+"; "-"; "*"; "/"; "%"; "&"; "|"; "^"; "<"; "<="; ">"; ">="; "=="; "!=" ] in
  sized (fun n ->
      fix
        (fun self n ->
          if n <= 0 then
            oneof [ map (fun i -> L (Int64.of_int i)) (int_range (-50) 50);
                    map (fun i -> V i) (int_range 0 2) ]
          else
            frequency
              [ (3, map3 (fun op a b -> Bin (op, a, b))
                   (oneofl ops) (self (n / 2)) (self (n / 2)));
                (1, map (fun a -> Neg a) (self (n - 1)));
                (1, map3 (fun c a b -> Tern (c, a, b)) (self (n / 3)) (self (n / 3)) (self (n / 3)));
                (1, map (fun i -> V i) (int_range 0 2)) ])
        (min n 8))

let test_differential_exprs () =
  let prop e =
    let e = guard_divs e in
    let src =
      Printf.sprintf
        "int main() { int v0 = 3; int v1 = -7; int v2 = 100; print(%s); return 0; }"
        (to_c e)
    in
    let expected = Int64.to_string (eval e) in
    match Minic.Lower.compile ~name:"diff" src with
    | m -> String.equal expected (output m)
    | exception _ -> false
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:300
       ~name:"compiled expressions = reference evaluator" (QCheck.make exp_gen)
       prop)

let suite =
  [
    tc "lexer" test_lexer;
    tc "comments" test_comments_and_ws;
    tc "precedence" test_precedence;
    tc "control flow" test_control_flow;
    tc "scoping" test_scoping;
    tc "functions" test_functions;
    tc "pointers" test_pointers;
    tc "float/int mixing" test_float_int_mixing;
    tc "frontend errors" test_frontend_errors;
    tc "differential expressions" test_differential_exprs;
  ]
