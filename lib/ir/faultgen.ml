(** Deterministic fault injection for the transactional pipeline.

    Seeded mutations of a module that model the characteristic bugs of a
    broken transformation: a dropped store, swapped operands of a
    non-commutative operation, a corrupted phi edge, a reference to an
    undefined register, a terminator spliced into the middle of a block.
    The first two classes are semantic (only a differential gate can catch
    them); the last three are structural (the verifier must reject them).
    Injection is a pure function of the seed and the module shape, so a
    failing pipeline run is replayable from its seed alone. *)

type kind =
  | Drop_store        (** delete a store instruction *)
  | Swap_operands     (** [a - b] becomes [b - a] (likewise sdiv/srem/shl/ashr) *)
  | Corrupt_phi_value (** one incoming value replaced by a junk constant *)
  | Corrupt_phi_edge  (** one incoming edge retargeted to a bogus block *)
  | Undef_operand     (** one operand replaced by an undefined register *)
  | Mid_terminator    (** a [ret] spliced into the middle of a block *)
  | Uninit_load       (** a load from a fresh, never-stored alloca *)
  | Wild_store        (** a store through a freed or out-of-bounds pointer *)
  | Stale_stamp       (** an artifact stamp's fingerprint garbled *)
  | Drop_meta_edge    (** one embedded PDG edge key deleted *)
  | Flip_meta_edge    (** one embedded PDG edge retargeted to a ghost id *)
  | Garble_prof       (** one embedded profile count multiplied away *)
  | Effect_reorder    (** one observable effect migrated past another;
                          final memory and text output unchanged, so only
                          a trace-equivalence gate ({!Obs}) can catch it *)

let kind_to_string = function
  | Drop_store -> "drop-store"
  | Swap_operands -> "swap-operands"
  | Corrupt_phi_value -> "corrupt-phi-value"
  | Corrupt_phi_edge -> "corrupt-phi-edge"
  | Undef_operand -> "undef-operand"
  | Mid_terminator -> "mid-terminator"
  | Uninit_load -> "uninit-load"
  | Wild_store -> "wild-store"
  | Stale_stamp -> "stale-stamp"
  | Drop_meta_edge -> "drop-meta-edge"
  | Flip_meta_edge -> "flip-meta-edge"
  | Garble_prof -> "garble-prof"
  | Effect_reorder -> "effect-reorder"

(** The fault classes a broken transformation produces; the default draw of
    {!inject} (deliberately excludes the sanitizer plants below, whose
    corruptions are invisible to a differential run). *)
let transform_kinds =
  [ Drop_store; Swap_operands; Corrupt_phi_value; Corrupt_phi_edge;
    Undef_operand; Mid_terminator ]

(** Corruptions of {e embedded analysis metadata} rather than code: the
    program's behaviour is untouched, so neither the verifier nor a
    differential run can see them — only the metadata trust layer
    (stamp verification) can.  They model an embedder racing a
    transformation (stale stamp), truncated metadata (dropped edge), and
    bit rot (flipped edge endpoint, garbled counts). *)
let metadata_kinds = [ Stale_stamp; Drop_meta_edge; Flip_meta_edge; Garble_prof ]

(** The effect-order bug class only the observable-event oracle can
    catch: final values and the flat output buffer are untouched, so the
    legacy output-compare gate sails straight past it. *)
let observable_kinds = [ Effect_reorder ]

let is_meta_kind k = List.mem k metadata_kinds

(* ------------------------------------------------------------------ *)
(* Serve faults                                                        *)
(* ------------------------------------------------------------------ *)

(** Fault classes of the serve layer's persistent artifact store
    (DESIGN.md §14).  Unlike the kinds above these corrupt {e files and
    processes}, not IR, so they carry their own type: a serve process
    killed between the temp-file write and the journal commit, an
    artifact file chopped mid-payload (torn write), a bit flipped inside
    a shard file (disk rot), and a shard whose reads stall past the
    request deadline.  [Serve.Store] applies them; the soak gate asserts
    that recovery after any of them yields answers identical to a
    from-scratch run. *)
type serve_kind =
  | Kill_mid_write      (** process killed inside the store commit protocol *)
  | Truncate_artifact   (** an artifact file truncated (possibly to zero bytes) *)
  | Bitflip_artifact    (** one byte of a shard file flipped *)
  | Stall_shard         (** one shard's reads stall past the deadline *)

let serve_kinds = [ Kill_mid_write; Truncate_artifact; Bitflip_artifact; Stall_shard ]

(* deterministic 64-bit LCG (MMIX constants) *)
type rng = { mutable s : int64 }

let next (r : rng) bound =
  r.s <- Int64.add (Int64.mul r.s 6364136223846793005L) 1442695040888963407L;
  Int64.to_int (Int64.rem (Int64.shift_right_logical r.s 33) (Int64.of_int (max 1 bound)))

(** Deterministic fault plan for a serve soak run: which requests of a
    [requests]-long workload get which store fault armed before they are
    handled.  Roughly one fault per eight requests, always at least one
    kill (the class the recovery journal exists for); pure function of
    [seed] so a failing soak is replayable. *)
let serve_plan ~seed ~requests : (int * serve_kind) list =
  let r = { s = Int64.add 0x5851f42d4c957f2dL (Int64.of_int seed) } in
  ignore (next r 1);
  let n = List.length serve_kinds in
  let faults = max 1 (requests / 8) in
  let plan =
    List.init faults (fun i ->
        let idx = next r (max 1 requests) in
        let k =
          (* the first planned fault is always a kill: every seed must
             exercise the recovery protocol, not only file corruption *)
          if i = 0 then Kill_mid_write else List.nth serve_kinds (next r n)
        in
        (idx, k))
  in
  List.sort_uniq compare plan

(** The function the interpreter will actually enter: sanitizer plants go
    at the top of its entry block so a planted fault is guaranteed to
    execute (the differential harness relies on this). *)
let entry_function (m : Irmod.t) : Func.t option =
  match Irmod.func_opt m "main" with
  | Some f when not f.Func.is_declaration -> Some f
  | _ -> (match Irmod.defined_functions m with f :: _ -> Some f | [] -> None)

(* candidate metadata keys for the metadata fault classes, in sorted
   order (Meta.keys_with_prefix) so injection stays a pure function of
   the seed *)
let meta_sites_of (m : Irmod.t) (k : kind) : string list =
  let meta = m.Irmod.meta in
  let under p s =
    String.length s >= String.length p && String.sub s 0 (String.length p) = p
  in
  let ends_with suf s =
    let n = String.length s and ns = String.length suf in
    n >= ns && String.sub s (n - ns) ns = suf
  in
  let int_last_segment s =
    match String.rindex_opt s '.' with
    | Some i ->
      int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) <> None
    | None -> false
  in
  let keys = Meta.keys_with_prefix meta "" in
  match k with
  | Stale_stamp ->
    List.filter
      (fun s ->
        (under "pdg." s || under "prof." s || under "arch." s)
        && ends_with ".stamp" s)
      keys
  | Drop_meta_edge | Flip_meta_edge ->
    List.filter (fun s -> under "pdg." s && int_last_segment s) keys
  | Garble_prof ->
    List.filter
      (fun s ->
        under "prof." s
        && (not (ends_with ".stamp" s))
        && s <> "prof.stamp"
        && (match Meta.get meta s with
           | Some v -> Int64.of_string_opt v <> None
           | None -> false))
      keys
  | _ -> []

(* Effect_reorder helpers: an "observable effect" is a store to a global
   or a call to a print builtin; a migratable pair is two observable
   effects in one block separated only by transparent (pure, memory-free)
   register computations, at least one of the pair a store (so the output
   buffer cannot see the migration) and never two stores to the same
   global (so final memory is unchanged). *)
let obs_effect (f : Func.t) (op : Instr.op) =
  match op with
  | Instr.Store (_, p) -> (
    match Alias.base_of f p with
    | Alias.Bglobal g -> Some (`St g)
    | _ -> None)
  | Instr.Call (Instr.Glob c, _) when c = "print" || c = "print_float" ->
    Some `Pr
  | _ -> None

let reorder_partner (f : Func.t) (i : Instr.inst) : Instr.inst option =
  match obs_effect f i.Instr.op with
  | None -> None
  | Some e1 ->
    let b = Func.block f i.Instr.parent in
    let rec after = function
      | x :: tl when x = i.Instr.id -> tl
      | _ :: tl -> after tl
      | [] -> []
    in
    (* pure register computations may sit between the two effects:
       migrating the first effect past them (and past the partner) leaves
       every register value and the final memory image intact *)
    let transparent = function
      | Instr.Bin _ | Instr.Fbin _ | Instr.Icmp _ | Instr.Fcmp _
      | Instr.Cast _ | Instr.Gep _ | Instr.Select _ -> true
      | _ -> false
    in
    let uses_i op =
      List.exists
        (function Instr.Reg r -> r = i.Instr.id | _ -> false)
        (Instr.operands op)
    in
    let rec scan = function
      | [] -> None
      | jid :: tl -> (
        let j = Func.inst f jid in
        if uses_i j.Instr.op then None
        else
          match obs_effect f j.Instr.op with
          | Some e2 ->
            let ok =
              match (e1, e2) with
              | `Pr, `Pr -> false (* output order would change *)
              | `St a, `St b' -> a <> b' (* same cell: final memory would change *)
              | _ -> true
            in
            if ok then Some j else None
          | None -> if transparent j.Instr.op then scan tl else None)
    in
    scan (after b.Func.insts)

(* candidate sites, enumerated in deterministic layout order *)
let sites_of (m : Irmod.t) (k : kind) : (Func.t * Instr.inst) list =
  match k with
  | Uninit_load | Wild_store -> (
    (* one site: the first instruction of the entry function's entry block *)
    match entry_function m with
    | Some f -> (
      match (Func.block f (Func.entry f)).Func.insts with
      | id :: _ -> [ (f, Func.inst f id) ]
      | [] -> [])
    | None -> [])
  | _ ->
  let out = ref [] in
  List.iter
    (fun (f : Func.t) ->
      Func.iter_insts
        (fun (i : Instr.inst) ->
          let ok =
            match (k, i.Instr.op) with
            | Drop_store, Instr.Store _ -> true
            | ( Swap_operands,
                Instr.Bin
                  ((Instr.Sub | Instr.Sdiv | Instr.Srem | Instr.Shl | Instr.Ashr), a, b) ) ->
              not (Instr.value_equal a b)
            | (Corrupt_phi_value | Corrupt_phi_edge), Instr.Phi (_ :: _) -> true
            | Undef_operand, op ->
              (not (Instr.is_terminator_op op))
              && List.exists (function Instr.Reg _ -> true | _ -> false) (Instr.operands op)
            | Mid_terminator, _ ->
              (* site = first instruction of a block with >= 3 instructions *)
              let b = Func.block f i.Instr.parent in
              (match b.Func.insts with x :: _ -> x = i.Instr.id | [] -> false)
              && List.length b.Func.insts >= 3
            | Effect_reorder, _ -> reorder_partner f i <> None
            | _ -> false
          in
          if ok then out := (f, i) :: !out)
        f)
    (Irmod.defined_functions m);
  List.rev !out

(** Structured description of an injected fault: which class, where, and —
    for sanitizer plants — the id of the planted faulty memory instruction
    (the one a checker must point at). *)
type info = {
  idesc : string;
  ikind : kind;
  ifunc : string;
  iinst : int;
  imeta : string option;
      (** for metadata faults: the corrupted artifact's key prefix
          (["pdg.<fn>."], ["prof."], ["arch."]); [None] for code faults *)
}

let declare_alloc_builtins (m : Irmod.t) =
  let dec name params ret =
    if Irmod.func_opt m name = None then
      Irmod.add_func m (Func.declare ~name ~params ~ret)
  in
  dec "malloc" [ ("n", Ty.I64) ] Ty.Ptr;
  dec "free" [ ("p", Ty.Ptr) ] Ty.Void

let apply_info (r : rng) (m : Irmod.t) (k : kind) (f : Func.t) (i : Instr.inst) : info =
  let before = i.Instr.id in
  let faulty =
    match k with
    | Uninit_load ->
      let a =
        Builder.insert_before f ~before (Instr.Alloca (Instr.Cint 1L)) Ty.Ptr
      in
      let ld =
        Builder.insert_before f ~before (Instr.Load (Instr.Reg a.Instr.id)) Ty.I64
      in
      Some ld
    | Wild_store ->
      declare_alloc_builtins m;
      let p =
        Builder.insert_before f ~before
          (Instr.Call (Instr.Glob "malloc", [ Instr.Cint 2L ]))
          Ty.Ptr
      in
      if next r 2 = 0 then begin
        (* use-after-free: free the block, then store through the stale ptr *)
        ignore
          (Builder.insert_before f ~before
             (Instr.Call (Instr.Glob "free", [ Instr.Reg p.Instr.id ]))
             Ty.Void);
        Some
          (Builder.insert_before f ~before
             (Instr.Store (Instr.Cint 7L, Instr.Reg p.Instr.id))
             Ty.Void)
      end
      else begin
        (* out-of-bounds: index far past the 2-word allocation *)
        let g =
          Builder.insert_before f ~before
            (Instr.Gep (Instr.Reg p.Instr.id, Instr.Cint 1073741824L))
            Ty.Ptr
        in
        Some
          (Builder.insert_before f ~before
             (Instr.Store (Instr.Cint 7L, Instr.Reg g.Instr.id))
             Ty.Void)
      end
    | _ -> None
  in
  let target = match faulty with Some t -> t | None -> i in
  let where = Printf.sprintf "%s/inst %d" f.Func.fname target.Instr.id in
  (match (k, i.Instr.op) with
  | (Uninit_load | Wild_store), _ -> () (* planted above *)
  | Drop_store, Instr.Store _ -> Builder.remove f i.Instr.id
  | Swap_operands, Instr.Bin (op, a, b) -> Builder.set_op f i (Instr.Bin (op, b, a))
  | Corrupt_phi_value, Instr.Phi incs ->
    let k' = next r (List.length incs) in
    Builder.set_op f i
      (Instr.Phi (List.mapi (fun j (p, v) -> if j = k' then (p, Instr.Cint 1234567L) else (p, v)) incs))
  | Corrupt_phi_edge, Instr.Phi incs ->
    let k' = next r (List.length incs) in
    Builder.set_op f i
      (Instr.Phi (List.mapi (fun j (p, v) -> if j = k' then (-7, v) else (p, v)) incs))
  | Undef_operand, op ->
    let undef = Instr.Reg (f.Func.next_id + 9999) in
    let hit = ref false in
    Builder.set_op f i
      (Instr.map_operands
        (fun v ->
          match v with
          | Instr.Reg _ when not !hit ->
            hit := true;
            undef
          | v -> v)
        op)
  | Mid_terminator, _ ->
    let bid = i.Instr.parent in
    let order = (Func.block f bid).Func.insts in
    let t = Builder.add f bid (Instr.Ret None) Ty.Void in
    (* splice after the first instruction: never last, so always mid-block *)
    Builder.set_order f bid (List.hd order :: t.Instr.id :: List.tl order)
  | Effect_reorder, _ -> (
    match reorder_partner f i with
    | Some j ->
      (* migrate the first effect to just after its partner; the
         instructions in between are pure, so their operands stay defined *)
      let bid = i.Instr.parent in
      let without = List.filter (fun x -> x <> i.Instr.id) (Func.block f bid).Func.insts in
      Builder.set_order f bid
        (List.concat_map
           (fun x -> if x = j.Instr.id then [ x; i.Instr.id ] else [ x ])
           without)
    | None -> ())
  | _ -> ());
  {
    idesc = Printf.sprintf "%s at %s" (kind_to_string k) where;
    ikind = k;
    ifunc = f.Func.fname;
    iinst = target.Instr.id;
    imeta = None;
  }

(* mutate one metadata key per the fault class; the artifact prefix in
   [imeta] is what a detector must point at *)
let apply_meta_info (r : rng) (m : Irmod.t) (k : kind) (key : string) : info =
  let meta = m.Irmod.meta in
  let under p s =
    String.length s >= String.length p && String.sub s 0 (String.length p) = p
  in
  let artifact =
    match k with
    | Garble_prof -> "prof."
    | _ ->
      (* the key's last segment (stamp index / edge index) is not part of
         the artifact prefix *)
      String.sub key 0 (String.rindex key '.' + 1)
  in
  let ifunc =
    if under "pdg." artifact then String.sub artifact 4 (String.length artifact - 5)
    else "<module>"
  in
  (match (k, Meta.get meta key) with
  | Drop_meta_edge, _ -> Meta.remove meta key
  | Stale_stamp, Some line ->
    (* garble the fp= field: the stamp still parses, but vouches for
       code that never existed *)
    let fields =
      List.map
        (fun kv -> if under "fp=" kv then "fp=deadbeefdeadbeef" else kv)
        (String.split_on_char ' ' line)
    in
    Meta.set meta key (String.concat " " fields)
  | Flip_meta_edge, Some line -> (
    match String.split_on_char ' ' line with
    | [ s; _; kind; must ] ->
      let ghost = 999983 + next r 17 in
      Meta.set meta key (Printf.sprintf "%s %d %s %s" s ghost kind must)
    | _ -> Meta.remove meta key)
  | Garble_prof, Some v -> (
    match Int64.of_string_opt v with
    | Some n ->
      Meta.set meta key (Int64.to_string (Int64.add (Int64.mul n 1000L) 7L))
    | None -> ())
  | _ -> ());
  {
    idesc = Printf.sprintf "%s at %s" (kind_to_string k) key;
    ikind = k;
    ifunc;
    iinst = -1;
    imeta = Some artifact;
  }

(** Inject one seeded fault into [m] and describe it.  Returns [None] when
    the module offers no opportunity.  When [kinds] is given only those
    fault classes are drawn from; the default draw is {!transform_kinds}
    (sanitizer plants must be requested explicitly). *)
let inject_info ?kinds ~seed (m : Irmod.t) : info option =
  let all = match kinds with Some ks -> ks | None -> transform_kinds in
  let r = { s = Int64.add 0x9e3779b97f4a7c15L (Int64.of_int seed) } in
  ignore (next r 1);
  (* try fault classes starting from a seeded offset until one has a site *)
  let nk = List.length all in
  let start = next r nk in
  let rec go tries =
    if tries >= nk then None
    else
      let k = List.nth all ((start + tries) mod nk) in
      if is_meta_kind k then
        match meta_sites_of m k with
        | [] -> go (tries + 1)
        | sites ->
          let key = List.nth sites (next r (List.length sites)) in
          Some (apply_meta_info r m k key)
      else
        match sites_of m k with
        | [] -> go (tries + 1)
        | sites ->
          let f, i = List.nth sites (next r (List.length sites)) in
          Some (apply_info r m k f i)
  in
  go 0

let inject ?kinds ~seed (m : Irmod.t) : string option =
  Option.map (fun x -> x.idesc) (inject_info ?kinds ~seed m)
