(** Differential oracle for SSA construction.

    The per-alloca mem2reg and the eager-rewrite Simplify that
    {!Ir.Mem2reg} and {!Ir.Simplify} replaced with a use census and
    batched operand substitution, kept as a test oracle: every promoted
    load and every peephole rewrite calls {!Ir.Builder.replace_uses} over
    the whole function, and each alloca is found, typed and placed by its
    own whole-function scans.  {!compile} is {!Minic.Lower.compile} with
    both passes swapped for these, so a test can require byte-identical
    printed IR from the two frontends. *)

open Ir

module Mem2reg = struct
  open Instr

  let promotable (f : Func.t) (a : inst) =
    match a.op with
    | Alloca (Cint 1L) ->
      let ok = ref true in
      Func.iter_insts
        (fun i ->
          match i.op with
          | Load (Reg r) when r = a.id -> ()
          | Store (v, Reg r) when r = a.id ->
            (* storing the alloca's own address somewhere else is an escape *)
            (match v with Reg r2 when r2 = a.id -> ok := false | _ -> ())
          | op -> if Instr.uses_reg op a.id then ok := false)
        f;
      !ok
    | _ -> false

  (** Element type of a promotable alloca, inferred from its loads/stores. *)
  let alloca_ty (f : Func.t) (a : inst) =
    let ty = ref Ty.I64 in
    Func.iter_insts
      (fun i ->
        match i.op with
        | Load (Reg r) when r = a.id && not (Ty.equal i.ty Ty.I64) -> ty := i.ty
        | _ -> ())
      f;
    !ty

  let zero_of = function
    | Ty.F64 -> Cfloat 0.0
    | Ty.Ptr -> Null
    | _ -> Cint 0L

  (** Run SSA promotion on [f].  Returns the number of allocas promoted. *)
  let run (f : Func.t) =
    if f.Func.is_declaration then 0
    else begin
      ignore (Cfg.prune_unreachable f);
      let allocas =
        Func.fold_insts
          (fun acc i -> if promotable f i then i :: acc else acc)
          [] f
        |> List.rev
      in
      if allocas = [] then 0
      else begin
        let dt = Dom.compute f in
        let df = Dom.frontiers f dt in
        let preds = Func.preds f in
        (* phi placement *)
        let phi_owner : (int, int) Hashtbl.t = Hashtbl.create 16 in
        (* phi inst id -> alloca id *)
        List.iter
          (fun (a : inst) ->
            let ty = alloca_ty f a in
            let def_blocks =
              Func.fold_insts
                (fun acc i ->
                  match i.op with
                  | Store (_, Reg r) when r = a.id -> i.parent :: acc
                  | _ -> acc)
                [] f
              |> List.sort_uniq compare
            in
            let has_phi = Hashtbl.create 8 in
            let work = Queue.create () in
            List.iter (fun b -> Queue.add b work) def_blocks;
            while not (Queue.is_empty work) do
              let b = Queue.pop work in
              List.iter
                (fun fb ->
                  if not (Hashtbl.mem has_phi fb) then begin
                    Hashtbl.replace has_phi fb ();
                    let phi = Builder.insert_front f fb (Phi []) ty in
                    Hashtbl.replace phi_owner phi.id a.id;
                    Queue.add fb work
                  end)
                (try Hashtbl.find df b with Not_found -> [])
            done)
          allocas;
        (* renaming over the dominator tree *)
        let alloca_tys = Hashtbl.create 8 in
        List.iter (fun a -> Hashtbl.replace alloca_tys a.id (alloca_ty f a)) allocas;
        let dom_children = Hashtbl.create 16 in
        List.iter
          (fun b ->
            match Dom.idom_of dt b with
            | Some p ->
              let cur = try Hashtbl.find dom_children p with Not_found -> [] in
              Hashtbl.replace dom_children p (cur @ [ b ])
            | None -> ())
          (Func.blocks f);
        let cur : (int, Instr.value) Hashtbl.t = Hashtbl.create 8 in
        let value_of aid =
          match Hashtbl.find_opt cur aid with
          | Some v -> v
          | None -> zero_of (Hashtbl.find alloca_tys aid)
        in
        let to_delete = ref [] in
        let rec rename bid =
          let snapshot =
            List.map (fun a -> (a.id, Hashtbl.find_opt cur a.id)) allocas
          in
          List.iter
            (fun (i : inst) ->
              match i.op with
              | Phi _ when Hashtbl.mem phi_owner i.id ->
                Hashtbl.replace cur (Hashtbl.find phi_owner i.id) (Reg i.id)
              | Load (Reg r) when Hashtbl.mem alloca_tys r ->
                Builder.replace_uses f ~old:i.id ~by:(value_of r);
                to_delete := i.id :: !to_delete
              | Store (v, Reg r) when Hashtbl.mem alloca_tys r ->
                Hashtbl.replace cur r v;
                to_delete := i.id :: !to_delete
              | _ -> ())
            (Func.insts_of_block f bid);
          (* fill phi operands in successors *)
          List.iter
            (fun s ->
              List.iter
                (fun (i : inst) ->
                  match i.op with
                  | Phi incs when Hashtbl.mem phi_owner i.id ->
                    let aid = Hashtbl.find phi_owner i.id in
                    Builder.set_op f i (Phi (incs @ [ (bid, value_of aid) ]))
                  | _ -> ())
                (Func.insts_of_block f s))
            (Func.successors f bid);
          List.iter
            rename
            (try Hashtbl.find dom_children bid with Not_found -> []);
          (* restore *)
          List.iter
            (fun (aid, v) ->
              match v with
              | Some v -> Hashtbl.replace cur aid v
              | None -> Hashtbl.remove cur aid)
            snapshot
        in
        rename (Func.entry f);
        (* deduplicate phi incoming entries from identical preds (can happen
           with cbr to the same target) *)
        Func.iter_insts
          (fun i ->
            match i.op with
            | Phi incs when Hashtbl.mem phi_owner i.id ->
              let seen = Hashtbl.create 4 in
              Builder.set_op f i
                (Phi
                  (List.filter
                     (fun (p, _) ->
                       if Hashtbl.mem seen p then false
                       else (Hashtbl.replace seen p (); true))
                     incs))
            | _ -> ())
          f;
        List.iter (fun id -> Builder.remove f id) !to_delete;
        List.iter (fun (a : inst) -> Builder.remove f a.id) allocas;
        (* phis in unreachable-from-def paths may reference preds missing
           entries; verifier-level fix: ensure each owned phi has one entry per
           pred *)
        List.iter
          (fun bid ->
            let ps = try Hashtbl.find preds bid with Not_found -> [] in
            List.iter
              (fun (i : inst) ->
                match i.op with
                | Phi incs when Hashtbl.mem phi_owner i.id ->
                  let missing =
                    List.filter (fun p -> not (List.mem_assoc p incs)) ps
                  in
                  let aid = Hashtbl.find phi_owner i.id in
                  let z = zero_of (Hashtbl.find alloca_tys aid) in
                  if missing <> [] then
                    Builder.set_op f i (Phi (incs @ List.map (fun p -> (p, z)) missing))
                | _ -> ())
              (Func.insts_of_block f bid))
          (Func.blocks f);
        ignore (Builder.simplify_phis f);
        List.length allocas
      end
    end

  (** Promote allocas in every defined function of [m]. *)
  let run_module (m : Irmod.t) =
    List.fold_left (fun n f -> n + run f) 0 (Irmod.defined_functions m)
end

module Simplify = struct
  open Instr

  let is_boolean (f : Func.t) = function
    | Reg r -> (
      match Func.inst_opt f r with
      | Some { op = Icmp _ | Fcmp _; _ } -> true
      | _ -> false)
    | Cint (0L | 1L) -> true
    | _ -> false

  (** Run over one function; returns the number of rewrites. *)
  let run (f : Func.t) =
    if f.Func.is_declaration then 0
    else begin
      let rewrites = ref 0 in
      let changed = ref true in
      while !changed do
        changed := false;
        let replace id by =
          Builder.replace_uses f ~old:id ~by;
          Builder.remove f id;
          incr rewrites;
          changed := true
        in
        let candidates =
          Func.fold_insts (fun acc i -> i :: acc) [] f |> List.rev
        in
        List.iter
          (fun (i : inst) ->
            if Func.mem_inst f i.id then
              match i.op with
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
          candidates
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
end

(** {!Minic.Lower.compile} over the oracle passes. *)
let compile ?(name = "module") (src : string) : Irmod.t =
  let prog = Minic.Parser.parse_program src in
  let m = Minic.Lower.lower_program ~name prog in
  ignore (Mem2reg.run_module m);
  ignore (Simplify.run_module m);
  List.iter
    (fun f ->
      ignore (Builder.dce_phis f);
      ignore (Builder.dce f))
    (Irmod.defined_functions m);
  Verify.verify_module m;
  m
