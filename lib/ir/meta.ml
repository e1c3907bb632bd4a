(** Module-level metadata.

    NOELLE's tools communicate by embedding analysis results (profiles, the
    PDG, compilation options) as metadata in the IR file.  We reproduce this
    with a string key/value table attached to each module; keys are
    namespaced ("prof.block.<fn>.<bid>", "pdg.edge.<n>", "option.<name>",
    ...) and survive printing/parsing round trips. *)

type t = (string, string) Hashtbl.t

let create () : t = Hashtbl.create 64

(** A fresh table with the same bindings. *)
let copy (t : t) : t = Hashtbl.copy t

(** Same keys, same values. *)
let equal (a : t) (b : t) =
  Hashtbl.length a = Hashtbl.length b
  && Hashtbl.fold
       (fun k v ok ->
         ok && match Hashtbl.find_opt b k with Some w -> String.equal v w | None -> false)
       a true

let set (t : t) k v = Hashtbl.replace t k v
let get (t : t) k = Hashtbl.find_opt t k
let get_int (t : t) k = Option.bind (get t k) int_of_string_opt
let set_int (t : t) k v = set t k (string_of_int v)
let remove (t : t) k = Hashtbl.remove t k
let mem (t : t) k = Hashtbl.mem t k

let has_prefix ~prefix k =
  String.length k >= String.length prefix
  && String.sub k 0 (String.length prefix) = prefix

(** All keys with the given prefix, sorted for determinism. *)
let keys_with_prefix (t : t) prefix =
  Hashtbl.fold (fun k _ acc -> if has_prefix ~prefix k then k :: acc else acc) t []
  |> List.sort String.compare

(** Fold over key/value pairs with the given prefix, in hash-table order
    (unspecified) — for order-independent consumers that must not pay
    the sort of {!keys_with_prefix} on large payloads. *)
let fold_prefix (t : t) prefix fn acc =
  Hashtbl.fold (fun k v acc -> if has_prefix ~prefix k then fn k v acc else acc) t acc

(** Remove every key with the given prefix (e.g. "prof." for
    noelle-meta-clean). *)
let clear_prefix (t : t) prefix =
  List.iter (Hashtbl.remove t) (keys_with_prefix t prefix)

(** Move every key with [prefix] under [target ^ prefix] (quarantine:
    the payload is preserved for forensics but no longer discoverable
    under its live namespace). *)
let rename_prefix (t : t) ~prefix ~target =
  List.iter
    (fun k ->
      match Hashtbl.find_opt t k with
      | None -> ()
      | Some v ->
        Hashtbl.remove t k;
        Hashtbl.replace t (target ^ k) v)
    (keys_with_prefix t prefix)

let iter_sorted fn (t : t) =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.iter (fun (k, v) -> fn k v)
