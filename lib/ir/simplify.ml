(** Peephole simplifications (instcombine-lite).

    Cleans the patterns the Mini-C frontend emits so analyses see canonical
    code: double boolean tests ([icmp ne (icmp ...), 0]), trivial selects,
    constant-foldable arithmetic, and additive identities. *)

open Instr

let is_boolean (f : Func.t) = function
  | Reg r -> (
    match Func.inst_opt f r with
    | Some { op = Icmp _ | Fcmp _; _ } -> true
    | _ -> false)
  | Cint (0L | 1L) -> true
  | _ -> false

(** Run over one function; returns the number of rewrites.  A sweep
    records each rewrite in a substitution table instead of rewriting the
    function's uses on the spot: later candidates resolve their operands
    through the table before matching, and the table is applied once at
    the end of the sweep. *)
let run (f : Func.t) =
  if f.Func.is_declaration then 0
  else begin
    let rewrites = ref 0 in
    let changed = ref true in
    while !changed do
      changed := false;
      let subst : (int, value) Hashtbl.t = Hashtbl.create 16 in
      let replace id by =
        Hashtbl.replace subst id by;
        incr rewrites;
        changed := true
      in
      Func.iter_insts
        (fun (i : inst) ->
          match Instr.map_operands (Builder.resolve subst) i.op with
          (* icmp ne (bool), 0  ->  bool *)
          | Icmp (Ne, b, Cint 0L) when is_boolean f b -> replace i.id b
          (* icmp eq (bool), 1  ->  bool *)
          | Icmp (Eq, b, Cint 1L) when is_boolean f b -> replace i.id b
          (* select c, 1, 0 over a boolean  ->  c *)
          | Select (c, Cint 1L, Cint 0L) when is_boolean f c -> replace i.id c
          (* constant folding for integer arithmetic *)
          | Bin (op, Cint a, Cint b) -> (
            let fold v = replace i.id (Cint v) in
            match op with
            | Add -> fold (Int64.add a b)
            | Sub -> fold (Int64.sub a b)
            | Mul -> fold (Int64.mul a b)
            | And -> fold (Int64.logand a b)
            | Or -> fold (Int64.logor a b)
            | Xor -> fold (Int64.logxor a b)
            | Sdiv when not (Int64.equal b 0L) -> fold (Int64.div a b)
            | Srem when not (Int64.equal b 0L) -> fold (Int64.rem a b)
            | Shl -> fold (Int64.shift_left a (Int64.to_int (Int64.logand b 63L)))
            | Ashr -> fold (Int64.shift_right a (Int64.to_int (Int64.logand b 63L)))
            | _ -> ())
          (* additive/multiplicative identities *)
          | Bin (Add, v, Cint 0L) | Bin (Add, Cint 0L, v) -> replace i.id v
          | Bin (Sub, v, Cint 0L) -> replace i.id v
          | Bin (Mul, v, Cint 1L) | Bin (Mul, Cint 1L, v) -> replace i.id v
          | Gep (p, Cint 0L) -> replace i.id p
          | _ -> ())
        f;
      Builder.remove_all f (Hashtbl.mem subst);
      Builder.apply_subst f subst
    done;
    !rewrites
  end

let run_module (m : Irmod.t) =
  List.fold_left
    (fun n f ->
      let k = run f in
      (* folding can leave self-referencing trivial phis behind *)
      let p = Builder.simplify_phis f in
      n + k + p)
    0 (Irmod.defined_functions m)
