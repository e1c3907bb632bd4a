(** Differential oracle for IR version stamps.

    Noelle's in-memory caches and the pipeline's behaviour reuse key on
    {!Ir.Func.version} and {!Ir.Irmod.version} instead of printed text.
    That is sound only if an unchanged version means unchanged text.  A
    checker remembers the printed text of every version it has seen and
    fails when a version comes back with other text: for a function, its
    {!Ir.Printer.func_str}; for a module, its {!Ir.Printer.module_str},
    keyed by the module version plus its metadata (the pipeline's reuse
    key).  The printed text is the key the pipeline used before versions,
    kept here as the oracle.

    It also counts the opposite direction, which is harmless to
    soundness: a new version whose text equals the text of the version it
    replaced.  Such a write costs a cache entry (and a differential run)
    that printed text would have kept, and moves the cache counters. *)

open Ir

type t = {
  funcs : (string * int, string) Hashtbl.t;        (** (name, version) -> text *)
  mods : (Irmod.version * (string * string) list, string) Hashtbl.t;
  last : (string, int * string) Hashtbl.t;         (** name -> last (version, text) *)
  mutable checked : int;                           (** versions seen again *)
  mutable redrawn : int;                           (** new version, same text *)
}

let create () =
  {
    funcs = Hashtbl.create 64;
    mods = Hashtbl.create 16;
    last = Hashtbl.create 64;
    checked = 0;
    redrawn = 0;
  }

let meta_list (m : Irmod.t) =
  let kvs = ref [] in
  Meta.iter_sorted (fun k v -> kvs := (k, v) :: !kvs) m.Irmod.meta;
  List.rev !kvs

(* the first line where [a] and [b] differ, for the failure message *)
let first_difference a b =
  let rec go i = function
    | x :: xs, y :: ys -> if String.equal x y then go (i + 1) (xs, ys) else (i, x, y)
    | x :: _, [] -> (i, x, "<end>")
    | [], y :: _ -> (i, "<end>", y)
    | [], [] -> (i, "", "")
  in
  go 1 (String.split_on_char '\n' a, String.split_on_char '\n' b)

let mismatch what ~was ~now =
  let line, a, b = first_difference was now in
  Alcotest.failf "%s: same version, other text (line %d: %S became %S)" what line a b

(** Check every function of [m] and [m] itself against what earlier
    calls saw; [where] names the checkpoint in a failure. *)
let check (o : t) ~where (m : Irmod.t) =
  List.iter
    (fun (f : Func.t) ->
      let name = f.Func.fname and version = Func.version f in
      let text = Printer.func_str f in
      (match Hashtbl.find_opt o.funcs (name, version) with
      | Some was ->
        o.checked <- o.checked + 1;
        if not (String.equal was text) then
          mismatch (Printf.sprintf "%s: function @%s" where name) ~was ~now:text
      | None -> Hashtbl.replace o.funcs (name, version) text);
      (match Hashtbl.find_opt o.last name with
      | Some (v, was) when v <> version && String.equal was text ->
        o.redrawn <- o.redrawn + 1
      | _ -> ());
      Hashtbl.replace o.last name (version, text))
    (Irmod.functions m);
  (* a function that is gone and comes back is new content, not a redraw *)
  Hashtbl.filter_map_inplace
    (fun name last -> if Irmod.func_opt m name = None then None else Some last)
    o.last;
  let key = (Irmod.version m, meta_list m) in
  let text = Printer.module_str m in
  match Hashtbl.find_opt o.mods key with
  | Some was ->
    o.checked <- o.checked + 1;
    if not (String.equal was text) then mismatch (where ^ ": module") ~was ~now:text
  | None -> Hashtbl.replace o.mods key text
