(** IR verifier.

    Checks structural well-formedness of functions and modules; analyses
    and transformations assume a verified module, and the test-suite runs
    the verifier after every transformation. *)

exception Invalid of string

let failv fmt = Printf.ksprintf (fun s -> raise (Invalid s)) fmt

let verify_func ?(m : Irmod.t option) (f : Func.t) =
  if f.Func.is_declaration then ()
  else begin
    if Func.blocks f = [] then failv "%s: no blocks" f.Func.fname;
    (* block structure; labels are unique, so the printed text names every
       branch target unambiguously *)
    let labels = Hashtbl.create 16 in
    List.iter
      (fun bid ->
        let b = Func.block f bid in
        if Hashtbl.mem labels b.Func.label then
          failv "%s: duplicate block label %s" f.Func.fname b.Func.label;
        Hashtbl.replace labels b.Func.label ();
        (match List.rev b.Func.insts with
        | [] -> failv "%s/%s: empty block" f.Func.fname b.Func.label
        | last :: _ ->
          if not (Instr.is_terminator (Func.inst f last)) then
            failv "%s/%s: missing terminator" f.Func.fname b.Func.label);
        let rec check_mid = function
          | [] | [ _ ] -> ()
          | i :: rest ->
            if Instr.is_terminator (Func.inst f i) then
              failv "%s/%s: terminator %d in the middle of a block" f.Func.fname
                b.Func.label i;
            check_mid rest
        in
        check_mid b.Func.insts;
        (* phis grouped at the front *)
        let seen_nonphi = ref false in
        List.iter
          (fun id ->
            match (Func.inst f id).Instr.op with
            | Instr.Phi _ ->
              if !seen_nonphi then
                failv "%s/%s: phi %d after non-phi instruction" f.Func.fname
                  b.Func.label id
            | _ -> seen_nonphi := true)
          b.Func.insts;
        List.iter
          (fun id ->
            let i = Func.inst f id in
            if i.Instr.parent <> bid then
              failv "%s/%s: inst %d has wrong parent %d" f.Func.fname b.Func.label
                id i.Instr.parent)
          b.Func.insts)
      (Func.blocks f);
    (* operand sanity *)
    let nparams = Array.length f.Func.params in
    Func.iter_insts
      (fun i ->
        List.iter
          (function
            | Instr.Reg r ->
              if Func.inst_opt f r = None then
                failv "%s: inst %d uses undefined register %%%d" f.Func.fname
                  i.Instr.id r
            | Instr.Arg a ->
              if a < 0 || a >= nparams then
                failv "%s: inst %d uses invalid argument %d" f.Func.fname
                  i.Instr.id a
            | Instr.Glob g -> (
              match m with
              | None -> ()
              | Some m ->
                if Irmod.global_opt m g = None && Irmod.func_opt m g = None then
                  failv "%s: inst %d references unknown global @%s" f.Func.fname
                    i.Instr.id g)
            | _ -> ())
          (Instr.operands i.Instr.op);
        List.iter
          (fun s ->
            if Func.block_opt f s = None then
              failv "%s: inst %d branches to unknown block %d" f.Func.fname
                i.Instr.id s)
          (Instr.successors i.Instr.op))
      f;
    (* phi incoming lists match CFG predecessors (for reachable blocks) *)
    let preds = Func.preds f in
    let reach = Cfg.reachable f in
    List.iter
      (fun bid ->
        if Hashtbl.mem reach bid then
          let ps = List.sort compare (try Hashtbl.find preds bid with Not_found -> []) in
          List.iter
            (fun i ->
              match i.Instr.op with
              | Instr.Phi incs ->
                let inc = List.sort compare (List.map fst incs) in
                let inc_reach = List.filter (fun p -> Hashtbl.mem reach p) inc in
                let ps_reach = List.filter (fun p -> Hashtbl.mem reach p) ps in
                if inc_reach <> ps_reach then
                  failv "%s/%s: phi %d incoming blocks do not match predecessors"
                    f.Func.fname (Func.block f bid).Func.label i.Instr.id
              | _ -> ())
            (Func.insts_of_block f bid))
      (Func.blocks f);
    (* SSA: definitions dominate uses *)
    let dt = Dom.compute f in
    let block_pos = Hashtbl.create 64 in
    List.iter
      (fun bid ->
        List.iteri (fun k id -> Hashtbl.replace block_pos id (bid, k))
          (Func.block f bid).Func.insts)
      (Func.blocks f);
    Func.iter_insts
      (fun user ->
        if Hashtbl.mem reach user.Instr.parent then
          match user.Instr.op with
          | Instr.Phi incs ->
            List.iter
              (fun (pred, v) ->
                match v with
                | Instr.Reg r ->
                  let db, _ = Hashtbl.find block_pos r in
                  if Hashtbl.mem reach pred && not (Dom.dominates dt db pred) then
                    failv "%s: phi %d operand %%%d does not dominate predecessor"
                      f.Func.fname user.Instr.id r
                | _ -> ())
              incs
          | op ->
            List.iter
              (function
                | Instr.Reg r ->
                  let db, dk = Hashtbl.find block_pos r in
                  let ub, uk = Hashtbl.find block_pos user.Instr.id in
                  let ok =
                    if db = ub then dk < uk else Dom.strictly_dominates dt db ub
                  in
                  if not ok then
                    failv "%s: use of %%%d in inst %d is not dominated by its def"
                      f.Func.fname r user.Instr.id
                | _ -> ())
              (Instr.operands op))
      f
  end

(** Verify every defined function of [m]. *)
let verify_module (m : Irmod.t) =
  List.iter (verify_func ~m) (Irmod.defined_functions m)

(** [check m] returns [Ok ()] or [Error message]. *)
let check (m : Irmod.t) =
  match verify_module m with
  | () -> Ok ()
  | exception Invalid msg -> Error msg
