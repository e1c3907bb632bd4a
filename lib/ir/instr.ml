include Raw.Instr

let is_terminator_op = function
  | Br _ | Cbr _ | Ret _ | Unreachable -> true
  | _ -> false

let is_terminator i = is_terminator_op i.op

let operands = function
  | Bin (_, a, b) | Fbin (_, a, b) | Icmp (_, a, b) | Fcmp (_, a, b)
  | Store (a, b) | Gep (a, b) -> [ a; b ]
  | Cast (_, a) | Alloca a | Load a -> [ a ]
  | Call (f, args) -> f :: args
  | Phi incs -> List.map snd incs
  | Select (a, b, c) -> [ a; b; c ]
  | Cbr (v, _, _) -> [ v ]
  | Ret (Some v) -> [ v ]
  | Br _ | Ret None | Unreachable -> []

let map_operands f = function
  | Bin (o, a, b) -> Bin (o, f a, f b)
  | Fbin (o, a, b) -> Fbin (o, f a, f b)
  | Icmp (o, a, b) -> Icmp (o, f a, f b)
  | Fcmp (o, a, b) -> Fcmp (o, f a, f b)
  | Cast (k, a) -> Cast (k, f a)
  | Alloca a -> Alloca (f a)
  | Load a -> Load (f a)
  | Store (a, b) -> Store (f a, f b)
  | Gep (a, b) -> Gep (f a, f b)
  | Call (c, args) -> Call (f c, List.map f args)
  | Phi incs -> Phi (List.map (fun (b, v) -> (b, f v)) incs)
  | Select (a, b, c) -> Select (f a, f b, f c)
  | Cbr (v, t, e) -> Cbr (f v, t, e)
  | Ret (Some v) -> Ret (Some (f v))
  | (Br _ | Ret None | Unreachable) as t -> t

let successors = function
  | Br b -> [ b ]
  | Cbr (_, t, e) -> if t = e then [ t ] else [ t; e ]
  | _ -> []

let uses_reg op r = List.exists (function Reg x -> x = r | _ -> false) (operands op)

let is_memory_op = function Load _ | Store _ | Call _ -> true | _ -> false

let value_equal (a : value) (b : value) =
  match (a, b) with
  | Cint x, Cint y -> Int64.equal x y
  | Cfloat x, Cfloat y -> Float.equal x y
  | Null, Null -> true
  | Arg x, Arg y -> x = y
  | Reg x, Reg y -> x = y
  | Glob x, Glob y -> String.equal x y
  | _ -> false

let bin_to_string = function
  | Add -> "add" | Sub -> "sub" | Mul -> "mul" | Sdiv -> "sdiv" | Srem -> "srem"
  | And -> "and" | Or -> "or" | Xor -> "xor" | Shl -> "shl" | Ashr -> "ashr"

let fbin_to_string = function
  | Fadd -> "fadd" | Fsub -> "fsub" | Fmul -> "fmul" | Fdiv -> "fdiv"

let negate_cmp = function
  | Eq -> Ne | Ne -> Eq | Slt -> Sge | Sge -> Slt | Sle -> Sgt | Sgt -> Sle

let swap_cmp = function
  | Slt -> Sgt | Sgt -> Slt | Sle -> Sge | Sge -> Sle | (Eq | Ne) as p -> p

let cmp_to_string = function
  | Eq -> "eq" | Ne -> "ne" | Slt -> "slt" | Sle -> "sle" | Sgt -> "sgt" | Sge -> "sge"

let cast_to_string = function
  | Sitofp -> "sitofp" | Fptosi -> "fptosi"
  | Ptrtoint -> "ptrtoint" | Inttoptr -> "inttoptr"
