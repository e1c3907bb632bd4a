(** Control-flow graph utilities over {!Func}. *)

(** Blocks reachable from the entry, in reverse postorder. *)
let reverse_postorder (f : Func.t) =
  let visited = Hashtbl.create 16 in
  let order = ref [] in
  let rec dfs b =
    if not (Hashtbl.mem visited b) then begin
      Hashtbl.replace visited b ();
      List.iter dfs (Func.successors f b);
      order := b :: !order
    end
  in
  if Func.blocks f <> [] then dfs (Func.entry f);
  !order

(** Set of blocks reachable from entry. *)
let reachable (f : Func.t) =
  let tbl = Hashtbl.create 16 in
  List.iter (fun b -> Hashtbl.replace tbl b ()) (reverse_postorder f);
  tbl

(** Remove blocks not reachable from the entry (fixing up phis).  Returns
    the number of blocks removed. *)
let prune_unreachable (f : Func.t) =
  let live = reachable f in
  let dead = List.filter (fun b -> not (Hashtbl.mem live b)) (Func.blocks f) in
  List.iter (Builder.erase_block f) dead;
  List.length dead

(** Exit blocks: blocks whose terminator is [Ret] or [Unreachable]. *)
let exit_blocks (f : Func.t) =
  List.filter
    (fun b ->
      match Func.terminator f b with
      | Some { Instr.op = Instr.Ret _ | Instr.Unreachable; _ } -> true
      | _ -> false)
    (Func.blocks f)
