(** Dominator and postdominator trees (Cooper-Harvey-Kennedy).

    NOELLE re-implements LLVM's dominator abstraction with caller-controlled
    lifetime (LLVM function-pass results are invalidated behind a module
    pass's back, §2.2 "Other abstractions").  Our trees are plain immutable
    values, so that property holds by construction. *)

type t = {
  idom : (int, int) Hashtbl.t;  (** node -> immediate dominator; root maps to itself *)
  rpo : int list;               (** reverse postorder used for the computation *)
  root : int;
}

(** Generic CHK fixpoint over an arbitrary graph. *)
let compute_generic ~(succs : int -> int list) ~(entry : int) ~(nodes : int list) =
  ignore nodes;
  (* reverse postorder over succs *)
  let visited = Hashtbl.create 16 in
  let order = ref [] in
  let rec dfs b =
    if not (Hashtbl.mem visited b) then begin
      Hashtbl.replace visited b ();
      List.iter dfs (succs b);
      order := b :: !order
    end
  in
  dfs entry;
  let rpo = !order in
  let num = Hashtbl.create 16 in
  List.iteri (fun i b -> Hashtbl.replace num b i) rpo;
  let preds = Hashtbl.create 16 in
  List.iter
    (fun b ->
      List.iter
        (fun s ->
          let cur = try Hashtbl.find preds s with Not_found -> [] in
          Hashtbl.replace preds s (b :: cur))
        (succs b))
    rpo;
  let idom = Hashtbl.create 16 in
  Hashtbl.replace idom entry entry;
  let intersect a b =
    let rec walk a b =
      if a = b then a
      else if Hashtbl.find num a > Hashtbl.find num b then walk (Hashtbl.find idom a) b
      else walk a (Hashtbl.find idom b)
    in
    walk a b
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun b ->
        if b <> entry then begin
          let ps =
            (try Hashtbl.find preds b with Not_found -> [])
            |> List.filter (fun p -> Hashtbl.mem idom p)
          in
          match ps with
          | [] -> ()
          | p0 :: rest ->
            let ni = List.fold_left intersect p0 rest in
            if Hashtbl.find_opt idom b <> Some ni then begin
              Hashtbl.replace idom b ni;
              changed := true
            end
        end)
      rpo
  done;
  { idom; rpo; root = entry }

(** Dominator tree of [f]. *)
let compute (f : Func.t) =
  compute_generic
    ~succs:(fun b -> Func.successors f b)
    ~entry:(Func.entry f) ~nodes:(Func.blocks f)

(** Virtual exit node used by the postdominator tree when the function has
    multiple (or zero) exits. *)
let virtual_exit = -1

(** Postdominator tree of [f]: dominators of the reverse CFG rooted at a
    virtual exit that all [Ret]/[Unreachable] blocks flow to. *)
let compute_post (f : Func.t) =
  let exits = Cfg.exit_blocks f in
  let preds = Func.preds f in
  let rsuccs b =
    if b = virtual_exit then exits
    else try Hashtbl.find preds b with Not_found -> []
  in
  compute_generic ~succs:rsuccs ~entry:virtual_exit ~nodes:(virtual_exit :: Func.blocks f)

(** [dominates t a b]: does node [a] dominate node [b]?  Reflexive. *)
let dominates (t : t) a b =
  let rec walk x =
    if x = a then true
    else
      match Hashtbl.find_opt t.idom x with
      | None -> false
      | Some p when p = x -> false
      | Some p -> walk p
  in
  if a = b then Hashtbl.mem t.idom a || a = t.root else (Hashtbl.mem t.idom b && walk b)

let strictly_dominates t a b = a <> b && dominates t a b

let idom_of (t : t) b =
  match Hashtbl.find_opt t.idom b with
  | Some p when p <> b -> Some p
  | _ -> None

(** Dominance frontiers (Cytron et al.), used by SSA construction and
    control-dependence. *)
let frontiers (f : Func.t) (t : t) =
  let df = Hashtbl.create 16 in
  List.iter (fun b -> Hashtbl.replace df b []) (Func.blocks f);
  let preds = Func.preds f in
  List.iter
    (fun b ->
      let ps =
        (try Hashtbl.find preds b with Not_found -> [])
        |> List.filter (fun p -> Hashtbl.mem t.idom p)
      in
      match Hashtbl.find_opt t.idom b with
      | Some idom_b when List.length ps >= 2 ->
        List.iter
          (fun p ->
            let runner = ref p in
            let stop = ref false in
            while (not !stop) && !runner <> idom_b do
              let cur = try Hashtbl.find df !runner with Not_found -> [] in
              if not (List.mem b cur) then Hashtbl.replace df !runner (b :: cur);
              match Hashtbl.find_opt t.idom !runner with
              | Some up when up <> !runner -> runner := up
              | _ -> stop := true
            done)
          ps
      | _ -> ())
    (Func.blocks f);
  df
