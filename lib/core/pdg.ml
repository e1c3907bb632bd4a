(** The Program Dependence Graph abstraction (§2.2 "PDG").

    Nodes are instruction ids of a function; edges carry control/data
    attributes per {!Depgraph}.  The PDG is powered by the modular alias
    stack ({!Ir.Alias}, {!Ir.Andersen}): building with the baseline stack
    reproduces LLVM-precision dependences, building with the NOELLE stack
    adds the state-of-the-art disprovals measured in Figure 3.

    From a function PDG a pass can request a {e loop dependence graph}
    ({!loop_dg}): the subgraph for one loop with external live-in/live-out
    nodes, refined with loop-centric analyses (SCEV-based address
    disambiguation and loop-carried classification). *)

open Ir

type t = {
  fdg : Depgraph.t;            (** whole-function dependence graph *)
  f : Func.t;
  m : Irmod.t;
  stack : Alias.stack;
  (* statistics for the Figure 3 experiment *)
  mem_pairs_total : int;       (** candidate memory-dependence pairs *)
  mem_pairs_disproved : int;   (** pairs answered "no dependence" *)
  mem_queries : int;
      (** alias-stack queries actually issued: candidate pairs minus those
          skipped by points-to bucketing or answered from the memo table *)
  degraded : bool;
  (** the alias-query budget was exhausted: the remaining memory
      dependences were emitted conservatively (may-dep) without consulting
      the alias stack.  The graph is sound but less precise. *)
}

(** Build the dependence graph of function [f] using alias stack [stack].

    [pts], when given (and not degraded), turns on alias-class bucketing:
    memory instructions are partitioned by Andersen points-to class —
    two instructions whose pointer operands reach disjoint object sets can
    never depend, so cross-class pairs are disproved without consulting
    the alias stack at all.  Load/store answers that *are* queried get
    memoized per pointer-value pair, so phi-congruent operand pairs hit
    the stack once.  Both shortcuts must agree with the stack (the
    differential suite checks edge sets against the unbucketed builder).

    [budget], when given, bounds the number of alias-stack queries
    actually issued (skipped pairs and memo hits are free): past the
    budget every remaining candidate pair is treated as a may dependence
    and the result is marked {!field-degraded}. *)
let build ?budget ?(stack : Alias.stack = [ Alias.baseline ]) ?pts (m : Irmod.t) (f : Func.t) : t =
  let g = Depgraph.create ~size:f.Func.next_id () in
  Func.iter_insts (fun i -> Depgraph.add_node g i.Instr.id) f;
  (* register dependences (SSA def-use): always must, RAW *)
  Func.iter_insts
    (fun i ->
      List.iter
        (function
          | Instr.Reg r ->
            ignore (Depgraph.add_edge g ~must:true ~kind:(Depgraph.Register Depgraph.RAW) r i.Instr.id)
          | _ -> ())
        (Instr.operands i.Instr.op))
    f;
  (* control dependences via the postdominator tree: for each CFG edge
     (a,b), every block on the postdom-tree path from b (inclusive) to
     ipostdom(a) (exclusive) is control-dependent on a's terminator *)
  let pdt = Dom.compute_post f in
  let dep_blocks = Hashtbl.create 16 in
  (* membership of the growing per-terminator block lists is a
     Hashtbl-backed set, not [List.mem] over the accumulator (quadratic on
     CFGs where many edges share a postdominator path).  A block already
     recorded for [a] also has all its ancestors up to [idom a] recorded
     (same stop block), so the walk can cut off there entirely. *)
  let dep_seen : (int * int, unit) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let stop = Hashtbl.find_opt pdt.Dom.idom a in
          let x = ref b in
          let continue_ = ref true in
          while !continue_ do
            if Some !x = stop then continue_ := false
            else if Hashtbl.mem dep_seen (a, !x) then continue_ := false
            else begin
              Hashtbl.replace dep_seen (a, !x) ();
              let cur = try Hashtbl.find dep_blocks a with Not_found -> [] in
              Hashtbl.replace dep_blocks a (!x :: cur);
              match Hashtbl.find_opt pdt.Dom.idom !x with
              | Some up when up <> !x -> x := up
              | _ -> continue_ := false
            end
          done)
        (Func.successors f a))
    (Func.blocks f);
  Hashtbl.iter
    (fun a xs ->
      match Func.terminator f a with
      | None -> ()
      | Some t ->
        List.iter
          (fun x ->
            if x >= 0 && Func.block_opt f x <> None then
              List.iter
                (fun (i : Instr.inst) ->
                  ignore
                    (Depgraph.add_edge g ~must:true ~kind:Depgraph.Control t.Instr.id
                       i.Instr.id))
                (Func.insts_of_block f x))
          xs)
    dep_blocks;
  (* memory dependences: pairwise over memory instructions *)
  let mems =
    Func.fold_insts
      (fun acc i -> if Instr.is_memory_op i.Instr.op then i :: acc else acc)
      [] f
    |> List.rev
  in
  let writes (i : Instr.inst) =
    match i.Instr.op with
    | Instr.Store _ -> true
    | Instr.Call _ -> true (* conservatively both reads and writes *)
    | _ -> false
  in
  let reads (i : Instr.inst) =
    match i.Instr.op with
    | Instr.Load _ -> true
    | Instr.Call _ -> true
    | _ -> false
  in
  let total = ref 0 and disproved = ref 0 in
  let queries = ref 0 and memo_hits = ref 0 and skipped = ref 0 in
  let degraded = ref false in
  (* --- alias-class bucketing (sparse engine, DESIGN.md §11) ---
     The points-to class of a memory instruction is the union-find class
     of the abstract objects its pointer (for loads/stores) or its
     mod/ref summary (for calls) reaches.  Disjoint classes cannot
     depend: the alias stack would disprove every such pair anyway
     (Andersen answers [No_alias] on disjoint object sets, and the
     baseline's must/no answers — same-address, same-base offsets,
     escaping allocas — all imply overlapping sets), so the pair is
     counted as disproved without issuing a query. *)
  let classify =
    match pts with
    | Some (r : Andersen.t) when not r.Andersen.degraded ->
      let uf : (Andersen.obj, Andersen.obj) Hashtbl.t = Hashtbl.create 64 in
      let rec ufind o =
        match Hashtbl.find_opt uf o with
        | None -> o
        | Some p when p = o -> o
        | Some p ->
          let root = ufind p in
          Hashtbl.replace uf o root;
          root
      in
      let union a b =
        let ra = ufind a and rb = ufind b in
        if ra <> rb then Hashtbl.replace uf ra rb
      in
      let objs_for (i : Instr.inst) =
        match i.Instr.op with
        | Instr.Load p | Instr.Store (_, p) ->
          let s = Andersen.objs_of r f p in
          if Andersen.ObjSet.is_empty s || Andersen.ObjSet.mem Andersen.Oextern s
          then None (* no information: must be queried against everything *)
          else Some s
        | Instr.Call _ -> (
          match Andersen.call_touched r f i with
          | None -> None
          | Some (rd, wr) ->
            let s = Andersen.ObjSet.union rd wr in
            if Andersen.ObjSet.mem Andersen.Oextern s then None else Some s)
        | _ -> None
      in
      let sets =
        List.filter_map
          (fun (i : Instr.inst) ->
            Option.map (fun s -> (i.Instr.id, s)) (objs_for i))
          mems
      in
      List.iter
        (fun (_, s) ->
          match Andersen.ObjSet.min_elt_opt s with
          | None -> ()
          | Some o0 -> Andersen.ObjSet.iter (fun o -> union o0 o) s)
        sets;
      let cls : (int, [ `Class of Andersen.obj | `Silent ]) Hashtbl.t =
        Hashtbl.create 64
      in
      List.iter
        (fun (id, s) ->
          match Andersen.ObjSet.min_elt_opt s with
          | None ->
            (* touches no object at all (pure/alloc builtins): conflicts
               with nothing, and the stack agrees *)
            Hashtbl.replace cls id `Silent
          | Some o0 -> Hashtbl.replace cls id (`Class (ufind o0)))
        sets;
      fun (i : Instr.inst) ->
        (match Hashtbl.find_opt cls i.Instr.id with
        | Some (`Class o) -> `Class (ufind o)
        | Some `Silent -> `Silent
        | None -> `Unknown)
    | _ -> fun _ -> `Unknown
  in
  let bucket_skip a b =
    match (classify a, classify b) with
    | `Silent, _ | _, `Silent -> true
    | `Class ra, `Class rb -> ra <> rb
    | _ -> false
  in
  (* memoized alias-stack answers for load/store pairs, keyed on the
     normalized pointer-value pair: phi-congruent operand pairs (and the
     symmetric orientation) hit the stack once per build *)
  let memo : (Instr.value * Instr.value, bool) Hashtbl.t = Hashtbl.create 64 in
  let raw_query a b =
    incr queries;
    match budget with
    | Some bmax when !queries > bmax ->
      degraded := true;
      true (* budget exhausted: conservative may-dep, no alias query *)
    | _ -> Alias.may_conflict stack m f a b
  in
  let conflict (a : Instr.inst) (b : Instr.inst) =
    incr total;
    if !degraded then true
    else if bucket_skip a b then begin
      incr skipped;
      false
    end
    else
      match (a.Instr.op, b.Instr.op, Alias.pointer_operand a, Alias.pointer_operand b) with
      | (Instr.Load _ | Instr.Store _), (Instr.Load _ | Instr.Store _), Some p1, Some p2 -> (
        let key = if compare p1 p2 <= 0 then (p1, p2) else (p2, p1) in
        match Hashtbl.find_opt memo key with
        | Some ans ->
          incr memo_hits;
          ans
        | None ->
          let ans = raw_query a b in
          (* a budget-exhausted conservative answer is not a stack fact:
             do not memoize it *)
          if not !degraded then Hashtbl.replace memo key ans;
          ans)
      | _ -> raw_query a b
  in
  (* self dependences: a writing instruction may conflict with its own
     dynamic instances across iterations (e.g. a store whose address is
     not analyzable); the loop refinement later drops the self edge when
     SCEV proves per-iteration addresses distinct *)
  List.iter
    (fun (a : Instr.inst) ->
      if writes a then begin
        if not (conflict a a) then incr disproved
        else
          ignore
            (Depgraph.add_edge g ~kind:(Depgraph.Memory Depgraph.WAW) a.Instr.id
               a.Instr.id)
      end)
    mems;
  let rec pairs = function
    | [] -> ()
    | a :: rest ->
      List.iter
        (fun b ->
          if writes a || writes b then begin
            if not (conflict a b) then incr disproved
            else begin
              (* direction: program order is not tracked flow-sensitively;
                 emit both directions with the appropriate sorts, which is
                 what a flow-insensitive PDG needs for SCC reasoning *)
              let emit src dst sort =
                ignore (Depgraph.add_edge g ~kind:(Depgraph.Memory sort) src dst)
              in
              match (writes a, writes b) with
              | true, true ->
                emit a.Instr.id b.Instr.id Depgraph.WAW;
                emit b.Instr.id a.Instr.id Depgraph.WAW;
                if reads a || reads b then begin
                  emit a.Instr.id b.Instr.id Depgraph.RAW;
                  emit b.Instr.id a.Instr.id Depgraph.RAW
                end
              | true, false ->
                emit a.Instr.id b.Instr.id Depgraph.RAW;
                emit b.Instr.id a.Instr.id Depgraph.WAR
              | false, true ->
                emit b.Instr.id a.Instr.id Depgraph.RAW;
                emit a.Instr.id b.Instr.id Depgraph.WAR
              | false, false -> ()
            end
          end)
        rest;
      pairs rest
  in
  pairs mems;
  Trace.touch "pdg.pairs_skipped_bucketing";
  Trace.touch "pdg.alias_memo_hits";
  Trace.touch "pdg.alias_queries";
  Trace.add "pdg.mem_pairs" !total;
  Trace.add "pdg.alias_queries" !queries;
  Trace.add "pdg.pairs_skipped_bucketing" !skipped;
  Trace.add "pdg.alias_memo_hits" !memo_hits;
  if !degraded then Trace.incr_m "pdg.degraded";
  {
    fdg = g;
    f;
    m;
    stack;
    mem_pairs_total = !total;
    mem_pairs_disproved = !disproved;
    mem_queries = !queries;
    degraded = !degraded;
  }

(** Fraction of candidate memory dependences disproved (Figure 3 metric). *)
let disproval_rate (t : t) =
  if t.mem_pairs_total = 0 then 1.0
  else float_of_int t.mem_pairs_disproved /. float_of_int t.mem_pairs_total

(* ------------------------------------------------------------------ *)
(* Loop dependence graphs                                              *)
(* ------------------------------------------------------------------ *)

type loop_dg = {
  ldg : Depgraph.t;            (** loop graph: internal = loop instructions *)
  loop : Loopnest.loop;
  pdg : t;
}

(** Find the phi of the loop header that looks like the primary induction
    sequence for SCEV refinement (first header phi with an add/sub update
    inside the loop). *)
let refinement_phi (f : Func.t) (l : Loopnest.loop) =
  List.find_opt
    (fun (p : Instr.inst) ->
      match p.Instr.op with
      | Instr.Phi incs ->
        List.exists
          (fun (_, v) ->
            match v with
            | Instr.Reg r -> (
              match Func.inst_opt f r with
              | Some { Instr.op = Instr.Bin ((Instr.Add | Instr.Sub), _, _); parent; _ } ->
                Loopnest.contains l parent
              | _ -> false)
            | _ -> false)
          incs
      | _ -> false)
    (Bounds.header_phis f l)

(** The edge refinement of loop [l]'s graph: the loop-carried flag of an
    edge of the function graph, [None] when the loop's address symbols
    disprove it.  [in_loop] tells the loop's nodes.

    Inner-loop phis with exact ranges ({!Bounds.phi_range}) become extra
    address symbols, so the outer loops of nested kernels (c[i*N+j]) can
    be disambiguated.  A phi's span holds only at an access inside its
    loop and outside that loop's header: the header also sees the exit
    value, and code after the loop sees only that. *)
let refinement (f : Func.t) (nest : Loopnest.t) (l : Loopnest.loop)
    ~(in_loop : int -> bool) : Depgraph.edge -> bool option =
  let iv_phi = refinement_phi f l in
  let inner_syms =
    List.concat_map
      (fun (sl : Loopnest.loop) ->
        if sl.Loopnest.header <> l.Loopnest.header
           && Loopnest.contains l sl.Loopnest.header
        then
          List.filter_map
            (fun (i : Instr.inst) ->
              Option.map
                (fun (lo, hi) -> (i.Instr.id, Int64.sub hi lo, sl))
                (Bounds.phi_range f sl i))
            (Bounds.header_phis f sl)
        else [])
      nest.Loopnest.loops
  in
  let symbols =
    (match iv_phi with Some p -> [ p.Instr.id ] | None -> [])
    @ List.map (fun (id, _, _) -> id) inner_syms
  in
  (* the spans that hold at accesses in blocks [b1] and [b2] *)
  let spans_at b1 b2 =
    List.filter_map
      (fun (id, span, (sl : Loopnest.loop)) ->
        let holds b = b <> sl.Loopnest.header && Loopnest.contains sl b in
        if holds b1 && holds b2 then Some (id, span) else None)
      inner_syms
  in
  let polys = Hashtbl.create 16 in
  let poly_of p =
    match Hashtbl.find_opt polys p with
    | Some a -> a
    | None ->
      let a = Scev.poly_of f l ~symbols p in
      Hashtbl.replace polys p a;
      a
  in
  let access id =
    Option.bind (Func.inst_opt f id) (fun (i : Instr.inst) ->
        Option.map (fun p -> (i.Instr.parent, p)) (Alias.pointer_operand i))
  in
  fun (e : Depgraph.edge) ->
    match e.Depgraph.kind with
    | Depgraph.Control -> Some false
    | Depgraph.Register _ ->
      (* a register dep is loop-carried iff it feeds a header phi from
         inside the loop (the back-edge value) *)
      Some
        (in_loop e.Depgraph.esrc
        &&
        match Func.inst_opt f e.Depgraph.edst with
        | Some { Instr.op = Instr.Phi _; parent; _ } -> parent = l.Loopnest.header
        | _ -> false)
    | Depgraph.Memory _ -> (
      if not (in_loop e.Depgraph.esrc && in_loop e.Depgraph.edst) then Some false
      else
        match (iv_phi, access e.Depgraph.esrc, access e.Depgraph.edst) with
        | Some phi, Some (b1, p1), Some (b2, p2) -> (
          match (poly_of p1, poly_of p2) with
          | Some a1, Some a2 -> (
            match
              Scev.classify_pair ~outer:phi.Instr.id ~spans:(spans_at b1 b2) a1 a2
            with
            | `No_dep -> None
            | `Intra -> Some false
            | `Unknown -> Some true)
          | _ -> Some true)
        | _ -> Some true)

(** Build the dependence graph of loop [l] of the loop nest [nest],
    refining memory dependences with loop-centric analyses exactly when
    the graph is requested (the demand-driven refinement of §2.2).

    The cost is proportional to the loop: only the successor lists of the
    loop's nodes and of the outside nodes feeding them are walked, and each
    edge is refined as it is added, so a disproved dependence never is.
    An edge whose refined flags equal the function graph's shares its
    record; only loop-carried edges get a new one. *)
let loop_dg (t : t) (nest : Loopnest.t) (l : Loopnest.loop) : loop_dg =
  let f = t.f in
  let fdg = t.fdg in
  let g = Depgraph.create ~size:f.Func.next_id () in
  List.iter
    (fun n ->
      match Func.inst_opt f n with
      | Some i when Loopnest.contains l i.Instr.parent -> Depgraph.add_node g n
      | _ -> ())
    fdg.Depgraph.nodes;
  let in_loop = Depgraph.is_internal g in
  let refine = refinement f nest l ~in_loop in
  let copy (e : Depgraph.edge) =
    match refine e with
    | Some loop_carried when loop_carried = e.Depgraph.loop_carried -> Depgraph.add g e
    | Some loop_carried -> Depgraph.add g { e with Depgraph.loop_carried }
    | None -> ()
  in
  (* the outside nodes with an edge into the loop *)
  let feeders = Bytes.make (Depgraph.bound fdg) '\000' in
  List.iter
    (fun n ->
      List.iter
        (fun (e : Depgraph.edge) ->
          if not (in_loop e.Depgraph.esrc) then Bytes.set feeders e.Depgraph.esrc '\001')
        (Depgraph.preds fdg n))
    g.Depgraph.nodes;
  (* copy in the node and edge order of the oracle's slice of [fdg]
     (test/ldg_oracle.ml) *)
  List.iter
    (fun n ->
      if in_loop n then
        List.iter
          (fun (e : Depgraph.edge) ->
            if not (in_loop e.Depgraph.edst) then
              Depgraph.add_node g ~internal:false e.Depgraph.edst;
            copy e)
          (Depgraph.succs fdg n)
      else if Bytes.get feeders n = '\001' then
        List.iter
          (fun (e : Depgraph.edge) ->
            if in_loop e.Depgraph.edst then begin
              Depgraph.add_node g ~internal:false n;
              copy e
            end)
          (Depgraph.succs fdg n))
    fdg.Depgraph.nodes;
  { ldg = g; loop = l; pdg = t }

(** Live-in values of loop [l]: values defined outside (or arguments /
    globals / constants are excluded — only SSA registers and arguments
    count) used inside. *)
let live_ins (t : t) (l : Loopnest.loop) : Instr.value list =
  let f = t.f in
  let seen = Hashtbl.create 16 in
  let out = ref [] in
  List.iter
    (fun (i : Instr.inst) ->
      List.iter
        (fun v ->
          let key =
            match v with
            | Instr.Reg r -> (
              match Func.inst_opt f r with
              | Some d when not (Loopnest.contains l d.Instr.parent) -> Some v
              | _ -> None)
            | Instr.Arg _ -> Some v
            | _ -> None
          in
          match key with
          | Some v when not (Hashtbl.mem seen v) ->
            Hashtbl.replace seen v ();
            out := v :: !out
          | _ -> ())
        (Instr.operands i.Instr.op))
    (Loopnest.insts f l);
  List.rev !out

(** Live-out registers of loop [l]: instructions defined inside the loop
    and used outside it. *)
let live_outs (t : t) (l : Loopnest.loop) : int list =
  let f = t.f in
  let out = ref [] in
  Func.iter_insts
    (fun (user : Instr.inst) ->
      if not (Loopnest.contains l user.Instr.parent) then
        List.iter
          (function
            | Instr.Reg r -> (
              match Func.inst_opt f r with
              | Some d when Loopnest.contains l d.Instr.parent ->
                if not (List.mem r !out) then out := r :: !out
              | _ -> ())
            | _ -> ())
          (Instr.operands user.Instr.op))
    f;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Metadata embedding (noelle-meta-pdg-embed)                          *)
(* ------------------------------------------------------------------ *)

(** Embed the dependence edges of [t] as module metadata so they can be
    reloaded without re-running the alias analyses.  The payload is
    stamped ({!Trust.stamp}) with a fingerprint of the function as it
    stands now, so consumers can tell when it goes stale. *)
let embed ?(tool = "noelle-meta-pdg-embed") (t : t) =
  let meta = t.m.Irmod.meta in
  let prefix = Printf.sprintf "pdg.%s." t.f.Func.fname in
  Meta.clear_prefix meta prefix;
  let n = ref 0 in
  List.iter
    (fun (e : Depgraph.edge) ->
      Meta.set meta
        (Printf.sprintf "pdg.%s.%d" t.f.Func.fname !n)
        (Printf.sprintf "%d %d %s %b" e.Depgraph.esrc e.Depgraph.edst
           (Depgraph.kind_to_string e.Depgraph.kind)
           e.Depgraph.must);
      incr n)
    (Depgraph.edges t.fdg);
  Meta.set meta
    (Printf.sprintf "pdg.%s.count" t.f.Func.fname)
    (string_of_int !n);
  Meta.set meta
    (Printf.sprintf "pdg.%s.stats" t.f.Func.fname)
    (Printf.sprintf "%d %d" t.mem_pairs_total t.mem_pairs_disproved);
  Trust.stamp meta ~prefix ~tool ~fp:(Fingerprint.func_fp t.f)

(** Reconstruct a PDG from embedded metadata; [None] if absent. *)
let of_embedded (m : Irmod.t) (f : Func.t) : t option =
  let meta = m.Irmod.meta in
  match Meta.get_int meta (Printf.sprintf "pdg.%s.count" f.Func.fname) with
  | None -> None
  | Some n ->
    let g = Depgraph.create ~size:f.Func.next_id () in
    Func.iter_insts (fun i -> Depgraph.add_node g i.Instr.id) f;
    let ok = ref true in
    (* plain concatenation: this loop is the verified-reload hot path and
       a large function can embed tens of thousands of edge keys *)
    let key_base = "pdg." ^ f.Func.fname ^ "." in
    for k = 0 to n - 1 do
      match Meta.get meta (key_base ^ string_of_int k) with
      | None -> ok := false
      | Some line -> (
        match String.split_on_char ' ' line with
        | [ s; d; kind; must ] -> (
          match
            (int_of_string_opt s, int_of_string_opt d, Depgraph.kind_of_string kind,
             bool_of_string_opt must)
          with
          | Some s, Some d, Some kind, Some must ->
            (* an edge endpoint that is not an instruction of the current
               body is a ghost: the artifact describes different code, so
               reject it rather than silently wiring dangling edges *)
            if Func.mem_inst f s && Func.mem_inst f d then
              ignore (Depgraph.add_edge g ~must ~kind s d)
            else ok := false
          | _ -> ok := false)
        | _ -> ok := false)
    done;
    if not !ok then None
    else
      let total, disproved =
        match Meta.get meta (Printf.sprintf "pdg.%s.stats" f.Func.fname) with
        | Some s -> (
          match String.split_on_char ' ' s with
          | [ a; b ] -> (
            match (int_of_string_opt a, int_of_string_opt b) with
            | Some a, Some b -> (a, b)
            | _ -> (0, 0))
          | _ -> (0, 0))
        | None -> (0, 0)
      in
      Some
        {
          fdg = g;
          f;
          m;
          stack = [ Alias.baseline ];
          mem_pairs_total = total;
          mem_pairs_disproved = disproved;
          mem_queries = 0;
          degraded = false;
        }

(** Canonical textual payload of the dependence edges — the serialization
    the serve layer's on-disk artifact store persists (DESIGN.md §14) and
    the one the demand manager's artifact sink hands out.  One line per
    edge, sorted, so two PDGs with equal edge sets render byte-identically
    regardless of build order. *)
let payload (t : t) : string =
  Depgraph.edges t.fdg
  |> List.map (fun (e : Depgraph.edge) ->
         Printf.sprintf "%d %d %s %b %b" e.Depgraph.esrc e.Depgraph.edst
           (Depgraph.kind_to_string e.Depgraph.kind)
           e.Depgraph.must e.Depgraph.loop_carried)
  |> List.sort String.compare
  |> String.concat "\n"

(** The (src, dst, kind) dependence triples of a rendered {!payload}
    (must/loop-carried flags projected away): the quantity on which a
    degraded answer must over-approximate an exact one — shedding may
    weaken a proved dependence to a may-dep, never drop one. *)
let payload_deps (payload : string) : (int * int * string) list =
  String.split_on_char '\n' payload
  |> List.filter_map (fun line ->
         match String.split_on_char ' ' line with
         | s :: d :: kind :: _ -> (
           match (int_of_string_opt s, int_of_string_opt d) with
           | Some s, Some d -> Some (s, d, kind)
           | _ -> None)
         | _ -> None)
  |> List.sort_uniq compare
