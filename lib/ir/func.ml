include Raw.Func

let make ~name ~params ~ret ~is_declaration =
  {
    fname = name;
    params = Array.of_list params;
    ret;
    layout = [];
    appended = [];
    labels = Hashtbl.create 16;
    body = Hashtbl.create 64;
    blks = Hashtbl.create 16;
    next_id = 0;
    is_declaration;
    version = next_version ();
  }

let create = make ~is_declaration:false
let declare = make ~is_declaration:true

let blocks (f : t) =
  match f.appended with
  | [] -> f.layout
  | pending ->
    f.layout <- f.layout @ List.rev pending;
    f.appended <- [];
    f.layout

let version (f : t) = f.version

let copy ?name (f : t) =
  let g = make ~name:(Option.value name ~default:f.fname)
      ~params:(Array.to_list f.params) ~ret:f.ret ~is_declaration:f.is_declaration in
  (* same name, same content: the copy carries the stamp *)
  if String.equal g.fname f.fname then g.version <- f.version;
  g.next_id <- f.next_id;
  g.layout <- blocks f;
  Hashtbl.iter (fun l n -> Hashtbl.replace g.labels l n) f.labels;
  Hashtbl.iter (fun id (i : Instr.inst) -> Hashtbl.replace g.body id { i with Raw.Instr.op = i.op }) f.body;
  Hashtbl.iter (fun id b -> Hashtbl.replace g.blks id { b with insts = b.insts }) f.blks;
  g

let fresh_id (f : t) =
  let id = f.next_id in
  f.next_id <- id + 1;
  id

let entry (f : t) =
  match blocks f with
  | b :: _ -> b
  | [] -> invalid_arg (Printf.sprintf "Func.entry: %s has no blocks" f.fname)

let block (f : t) bid =
  match Hashtbl.find_opt f.blks bid with
  | Some b -> b
  | None -> invalid_arg (Printf.sprintf "Func.block: no block %d in %s" bid f.fname)

let inst (f : t) id =
  match Hashtbl.find_opt f.body id with
  | Some i -> i
  | None -> invalid_arg (Printf.sprintf "Func.inst: no inst %d in %s" id f.fname)

let inst_opt (f : t) id = Hashtbl.find_opt f.body id
let block_opt (f : t) bid = Hashtbl.find_opt f.blks bid
let mem_inst (f : t) id = Hashtbl.mem f.body id

let block_ids (f : t) =
  List.sort compare (Hashtbl.fold (fun bid _ acc -> bid :: acc) f.blks [])

let terminator (f : t) bid =
  let b = block f bid in
  match List.rev b.insts with
  | last :: _ ->
    let i = inst f last in
    if Instr.is_terminator i then Some i else None
  | [] -> None

let successors (f : t) bid =
  match terminator f bid with
  | Some i -> Instr.successors i.op
  | None -> []

let iter_blocks fn (f : t) = List.iter (fun bid -> fn (block f bid)) (blocks f)

let iter_insts fn (f : t) =
  iter_blocks (fun b -> List.iter (fun id -> fn (inst f id)) b.insts) f

let fold_insts fn acc (f : t) =
  let r = ref acc in
  iter_insts (fun i -> r := fn !r i) f;
  !r

let insts (f : t) = List.rev (fold_insts (fun acc i -> i :: acc) [] f)

let num_insts (f : t) = fold_insts (fun n _ -> n + 1) 0 f

let insts_of_block (f : t) bid = List.map (inst f) (block f bid).insts

let users (f : t) r =
  fold_insts (fun acc i -> if Instr.uses_reg i.op r then i :: acc else acc) [] f
  |> List.rev

let preds (f : t) =
  let tbl = Hashtbl.create 16 in
  let layout = blocks f in
  List.iter (fun bid -> Hashtbl.replace tbl bid []) layout;
  List.iter
    (fun bid ->
      List.iter
        (fun s ->
          let cur = try Hashtbl.find tbl s with Not_found -> [] in
          if not (List.mem bid cur) then Hashtbl.replace tbl s (cur @ [ bid ]))
        (successors f bid))
    layout;
  tbl
