(** SSA construction: promote allocas to registers.

    The Mini-C frontend lowers every local variable to an [Alloca] plus
    loads/stores; this pass rewrites promotable allocas into SSA form with
    phi nodes placed at iterated dominance frontiers (Cytron et al.),
    mirroring LLVM's mem2reg.  An alloca is promotable when its address is
    only ever used directly as the pointer of a [Load] or the pointer
    operand of a [Store] (never stored itself, indexed, or passed away).

    The work is linear in the function, like the [AllocaInfo] use census
    of LLVM's PromoteMemToReg: one pass over the instructions finds the
    escaping registers, each alloca's element type and its store blocks;
    renaming records each promoted load's value in a substitution table
    that is applied to the whole function once at the end. *)

open Instr

(** Per-function use census of the registers used as load/store
    pointers. *)
type census = {
  escaped : (int, unit) Hashtbl.t;
      (** registers used other than as a load/store pointer *)
  elt_ty : (int, Ty.t) Hashtbl.t;
      (** pointer register -> type of its last non-i64 load *)
  stores : (int, int list) Hashtbl.t;
      (** pointer register -> blocks storing through it (reversed, with
          repeats) *)
}

let census (f : Func.t) =
  let c =
    { escaped = Hashtbl.create 16; elt_ty = Hashtbl.create 16; stores = Hashtbl.create 16 }
  in
  let escape = function Reg r -> Hashtbl.replace c.escaped r () | _ -> () in
  Func.iter_insts
    (fun i ->
      match i.op with
      | Load (Reg r) -> if not (Ty.equal i.ty Ty.I64) then Hashtbl.replace c.elt_ty r i.ty
      | Load _ -> ()
      | Store (v, p) ->
        (* storing an address anywhere, even through itself, escapes it *)
        escape v;
        (match p with
        | Reg r ->
          Hashtbl.replace c.stores r
            (i.parent :: Option.value ~default:[] (Hashtbl.find_opt c.stores r))
        | _ -> ())
      | op -> List.iter escape (Instr.operands op))
    f;
  c

let zero_of = function
  | Ty.F64 -> Cfloat 0.0
  | Ty.Ptr -> Null
  | _ -> Cint 0L

(** Run SSA promotion on [f].  Returns the number of allocas promoted. *)
let run (f : Func.t) =
  if f.Func.is_declaration then 0
  else begin
    ignore (Cfg.prune_unreachable f);
    let c = census f in
    let allocas =
      Func.fold_insts
        (fun acc i ->
          match i.op with
          | Alloca (Cint 1L) when not (Hashtbl.mem c.escaped i.id) -> i :: acc
          | _ -> acc)
        [] f
      |> List.rev
    in
    if allocas = [] then 0
    else begin
      let dt = Dom.compute f in
      let df = Dom.frontiers f dt in
      let preds = Func.preds f in
      let alloca_tys = Hashtbl.create 8 in
      List.iter
        (fun (a : inst) ->
          Hashtbl.replace alloca_tys a.id
            (Option.value ~default:Ty.I64 (Hashtbl.find_opt c.elt_ty a.id)))
        allocas;
      (* phi placement *)
      let phi_owner : (int, int) Hashtbl.t = Hashtbl.create 16 in
      (* phi inst id -> alloca id *)
      List.iter
        (fun (a : inst) ->
          let ty = Hashtbl.find alloca_tys a.id in
          let def_blocks =
            List.sort_uniq compare
              (Option.value ~default:[] (Hashtbl.find_opt c.stores a.id))
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
      let dom_children = Hashtbl.create 16 in
      List.iter
        (fun b ->
          match Dom.idom_of dt b with
          | Some p ->
            let cur = try Hashtbl.find dom_children p with Not_found -> [] in
            Hashtbl.replace dom_children p (b :: cur)
          | None -> ())
        (List.rev (Func.blocks f));
      let cur : (int, Instr.value) Hashtbl.t = Hashtbl.create 8 in
      let value_of aid =
        match Hashtbl.find_opt cur aid with
        | Some v -> v
        | None -> zero_of (Hashtbl.find alloca_tys aid)
      in
      (* promoted load -> the value it reads; allocas and their loads and
         stores are deleted at the end *)
      let subst : (int, Instr.value) Hashtbl.t = Hashtbl.create 64 in
      let dead : (int, unit) Hashtbl.t = Hashtbl.create 64 in
      let rec rename bid =
        (* undo log: the value each alloca had before this block set it *)
        let undo = ref [] in
        let set aid v =
          undo := (aid, Hashtbl.find_opt cur aid) :: !undo;
          Hashtbl.replace cur aid v
        in
        List.iter
          (fun (i : inst) ->
            match i.op with
            | Phi _ when Hashtbl.mem phi_owner i.id ->
              set (Hashtbl.find phi_owner i.id) (Reg i.id)
            | Load (Reg r) when Hashtbl.mem alloca_tys r ->
              Hashtbl.replace subst i.id (value_of r);
              Hashtbl.replace dead i.id ()
            | Store (v, Reg r) when Hashtbl.mem alloca_tys r ->
              set r (Builder.resolve subst v);
              Hashtbl.replace dead i.id ()
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
        List.iter rename (try Hashtbl.find dom_children bid with Not_found -> []);
        List.iter
          (fun (aid, v) ->
            match v with
            | Some v -> Hashtbl.replace cur aid v
            | None -> Hashtbl.remove cur aid)
          !undo
      in
      rename (Func.entry f);
      List.iter (fun (a : inst) -> Hashtbl.replace dead a.id ()) allocas;
      Builder.remove_all f (Hashtbl.mem dead);
      Builder.apply_subst f subst;
      (* deduplicate phi incoming entries from identical preds (can happen
         with cbr to the same target) *)
      Hashtbl.iter
        (fun pid _ ->
          let i = Func.inst f pid in
          match i.op with
          | Phi incs ->
            let seen = Hashtbl.create 4 in
            Builder.set_op f i
              (Phi
                (List.filter
                   (fun (p, _) ->
                     if Hashtbl.mem seen p then false
                     else (Hashtbl.replace seen p (); true))
                   incs))
          | _ -> ())
        phi_owner;
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
