(** noelle-check: structured diagnostics composed from NOELLE abstractions.

    The paper's thesis (§1, Table 3) is that PDG + DFE + alias stack + loop
    abstractions make sophisticated custom tools cheap; this engine is the
    diagnostics incarnation of that claim.  Every checker is a thin client
    of an existing analysis — the race detector reads loop-carried memory
    edges off {!Pdg.loop_dg}, the sanitizers are {!Dfe} problems refined by
    {!Andersen} points-to and {!Scev} bound queries — and none of them
    walks the CFG itself.

    Diagnostics carry a stable check id, a severity, and an exact
    function/block/instruction location, and can be suppressed through
    module metadata ([check.suppress.<id>[.<function>[.<inst>]]]), which
    round-trips through the printer/parser like any other metadata. *)

open Ir

type severity = Error | Warning | Info

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

type loc = {
  lfunc : string;
  lblock : string;
  linst : int;
}

type diag = {
  did : string;            (** stable check id, e.g. ["san.uninit-load"] *)
  dsev : severity;
  dloc : loc;
  dmsg : string;
  dnotes : string list;    (** supporting evidence, e.g. the alias chain *)
  dsuppressed : bool;
}

(** Per-checker cost accounting, surfaced by [noelle-check --stats]. *)
type checker_stats = {
  sname : string;
  sdiags : int;
  siters : int;        (** DFE fixpoint iterations (block transfers) *)
  stime_ms : float;
}

type report = {
  diags : diag list;
  rstats : checker_stats list;
}

(** Shared analysis context: one Andersen result and one alias stack per
    run, handed to every checker. *)
type ctx = {
  cm : Irmod.t;
  cstack : Alias.stack;
  canders : Andersen.t;
  mutable citers : int;    (** DFE iterations charged to the running checker *)
}

type checker = {
  cid : string;
  cdoc : string;
  crun : ctx -> diag list;
}

(* ------------------------------------------------------------------ *)
(* Suppression via metadata                                            *)
(* ------------------------------------------------------------------ *)

let suppressed (m : Irmod.t) ~did ~fname ~inst =
  let meta = m.Irmod.meta in
  Meta.mem meta (Printf.sprintf "check.suppress.%s.%s.%d" did fname inst)
  || Meta.mem meta (Printf.sprintf "check.suppress.%s.%s" did fname)
  || Meta.mem meta (Printf.sprintf "check.suppress.%s" did)

let loc_of (f : Func.t) (i : Instr.inst) =
  let lblock =
    match Func.block_opt f i.Instr.parent with
    | Some b -> b.Func.label
    | None -> "?"
  in
  { lfunc = f.Func.fname; lblock; linst = i.Instr.id }

let mk ~did ~sev (f : Func.t) (i : Instr.inst) msg notes =
  { did; dsev = sev; dloc = loc_of f i; dmsg = msg; dnotes = notes; dsuppressed = false }

(* ------------------------------------------------------------------ *)
(* Shared helpers                                                      *)
(* ------------------------------------------------------------------ *)

let base_to_string = function
  | Alias.Balloca r -> Printf.sprintf "alloca %%%d" r
  | Alias.Bglobal g -> "@" ^ g
  | Alias.Bmalloc r -> Printf.sprintf "malloc %%%d" r
  | Alias.Barg k -> Printf.sprintf "arg %d" k
  | Alias.Bnull -> "null"
  | Alias.Bunknown -> "unknown"

(** Words in the allocation behind base [b], when statically known. *)
let alloc_size (m : Irmod.t) (f : Func.t) (b : Alias.base) : int64 option =
  match b with
  | Alias.Balloca r -> (
    match Func.inst_opt f r with
    | Some { Instr.op = Instr.Alloca (Instr.Cint n); _ } -> Some n
    | _ -> None)
  | Alias.Bmalloc r -> (
    match Func.inst_opt f r with
    | Some { Instr.op = Instr.Call (_, [ Instr.Cint n ]); _ } -> Some n
    | _ -> None)
  | Alias.Bglobal g -> (
    match Irmod.global_opt m g with
    | Some gl -> Some (Int64.of_int gl.Irmod.size)
    | None -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* race.loop-carried: the static race detector                         *)
(* ------------------------------------------------------------------ *)

let sort_to_string = function
  | Depgraph.RAW -> "RAW"
  | Depgraph.WAW -> "WAW"
  | Depgraph.WAR -> "WAR"

(** The alias chain behind a memory dependence: which base objects the two
    pointers resolve to, what Andersen knows about them, and the verdict
    the stack returned.  This is the evidence the paper's Figure 3 ablation
    is about — it shows exactly which analysis failed to disprove the
    dependence. *)
let alias_chain (ctx : ctx) (f : Func.t) (i1 : Instr.inst) (i2 : Instr.inst) =
  match (Alias.pointer_operand i1, Alias.pointer_operand i2) with
  | Some p1, Some p2 ->
    let verdict =
      match Alias.alias ctx.cstack ctx.cm f p1 p2 with
      | Alias.No_alias -> "no-alias"
      | Alias.May_alias -> "may-alias"
      | Alias.Must_alias -> "must-alias"
    in
    let side (i : Instr.inst) p =
      Printf.sprintf "%%%d [base %s, pts %s]" i.Instr.id
        (base_to_string (Alias.base_of f p))
        (Andersen.objset_to_string (Andersen.objs_of ctx.canders f p))
    in
    [ Printf.sprintf "alias chain: %s vs %s -> %s" (side i1 p1) (side i2 p2) verdict ]
  | _ ->
    [ "dependence involves a call with ordered or unknown side effects" ]

(** Loop-carried memory dependences of one loop, deduplicated to unordered
    instruction pairs. *)
let loop_races (ctx : ctx) (f : Func.t) (pdg : Pdg.t) (nest : Loopnest.t)
    (l : Loopnest.loop) : diag list =
  let ldg = Pdg.loop_dg pdg nest l in
  let g = ldg.Pdg.ldg in
  let lkey = Ids.loop_key f l in
  let seen = Hashtbl.create 8 in
  List.filter_map
    (fun (e : Depgraph.edge) ->
      match e.Depgraph.kind with
      | Depgraph.Memory sort
        when e.Depgraph.loop_carried
             && Depgraph.is_internal g e.Depgraph.esrc
             && Depgraph.is_internal g e.Depgraph.edst ->
        let a = min e.Depgraph.esrc e.Depgraph.edst
        and b = max e.Depgraph.esrc e.Depgraph.edst in
        if Hashtbl.mem seen (a, b, sort) then None
        else begin
          Hashtbl.replace seen (a, b, sort) ();
          let i1 = Func.inst f e.Depgraph.esrc and i2 = Func.inst f e.Depgraph.edst in
          Some
            (mk ~did:"race.loop-carried" ~sev:Warning f i1
               (Printf.sprintf
                  "loop %s: loop-carried %s memory dependence %%%d -> %%%d \
                   blocks DOALL/HELIX iteration distribution"
                  lkey (sort_to_string sort) i1.Instr.id i2.Instr.id)
               (alias_chain ctx f i1 i2))
        end
      | _ -> None)
    (Depgraph.edges g)

let race : checker =
  {
    cid = "race.loop-carried";
    cdoc =
      "loop-carried memory dependences (with their alias chain) in every \
       loop a parallelizer would target";
    crun =
      (fun ctx ->
        List.concat_map
          (fun (f : Func.t) ->
            let nest = Loopnest.compute f in
            if nest.Loopnest.loops = [] then []
            else
              let pdg = Pdg.build ~stack:ctx.cstack ctx.cm f in
              List.concat_map (loop_races ctx f pdg nest) nest.Loopnest.loops)
          (Irmod.defined_functions ctx.cm));
  }

(* ------------------------------------------------------------------ *)
(* san.uninit-load: reaching-stores says no store reaches the load     *)
(* ------------------------------------------------------------------ *)

let uninit : checker =
  {
    cid = "san.uninit-load";
    cdoc = "loads from non-escaping locals no store can reach (DFE reaching-stores)";
    crun =
      (fun ctx ->
        let m = ctx.cm in
        List.concat_map
          (fun (f : Func.t) ->
            let res = Dfe.reaching_stores ~stack:ctx.cstack m f in
            ctx.citers <- ctx.citers + res.Dfe.iterations;
            let diags = ref [] in
            Func.iter_blocks
              (fun (b : Func.block) ->
                let reaching =
                  ref
                    (match Hashtbl.find_opt res.Dfe.in_ b.Func.bid with
                    | Some s -> s
                    | None -> Dfe.IntSet.empty)
                in
                List.iter
                  (fun (i : Instr.inst) ->
                    (match i.Instr.op with
                    | Instr.Load p -> (
                      match Alias.base_of f p with
                      | Alias.Balloca r when not (Alias.alloca_escapes f r) ->
                        let fed =
                          Dfe.IntSet.exists
                            (fun sid ->
                              match Func.inst_opt f sid with
                              | Some { Instr.op = Instr.Store (_, q); _ } ->
                                Alias.alias ctx.cstack m f p q <> Alias.No_alias
                              | _ -> false)
                            !reaching
                        in
                        if not fed then
                          diags :=
                            mk ~did:"san.uninit-load" ~sev:Error f i
                              (Printf.sprintf
                                 "load of uninitialized memory: no store to \
                                  non-escaping alloca %%%d reaches this load"
                                 r)
                              []
                            :: !diags
                      | _ -> ())
                    | _ -> ());
                    match i.Instr.op with
                    | Instr.Store _ -> reaching := Dfe.IntSet.add i.Instr.id !reaching
                    | _ -> ())
                  (Func.insts_of_block f b.Func.bid))
              f;
            List.rev !diags)
          (Irmod.defined_functions m));
  }

(* ------------------------------------------------------------------ *)
(* san.dead-store: the new backward live-memory problem                *)
(* ------------------------------------------------------------------ *)

let dead_store : checker =
  {
    cid = "san.dead-store";
    cdoc = "stores to non-escaping locals no read can observe (DFE live-memory)";
    crun =
      (fun ctx ->
        let m = ctx.cm in
        List.concat_map
          (fun (f : Func.t) ->
            let res = Dfe.live_memory ~stack:ctx.cstack m f in
            ctx.citers <- ctx.citers + res.Dfe.iterations;
            let may_observe p (j : Instr.inst) =
              match j.Instr.op with
              | Instr.Load q -> Alias.alias ctx.cstack m f p q <> Alias.No_alias
              | Instr.Call _ -> Alias.call_may_touch ctx.cstack m f j p
              | _ -> false
            in
            let diags = ref [] in
            Func.iter_blocks
              (fun (b : Func.block) ->
                let out_reads =
                  match Hashtbl.find_opt res.Dfe.out b.Func.bid with
                  | Some s -> s
                  | None -> Dfe.IntSet.empty
                in
                let insts = Func.insts_of_block f b.Func.bid in
                let rec scan = function
                  | [] -> ()
                  | (i : Instr.inst) :: rest ->
                    (match i.Instr.op with
                    | Instr.Store (_, p) -> (
                      match Alias.base_of f p with
                      | Alias.Balloca r when not (Alias.alloca_escapes f r) ->
                        (* walk forward in the block: first observer wins *)
                        let rec verdict = function
                          | [] ->
                            if
                              Dfe.IntSet.exists
                                (fun rid ->
                                  match Func.inst_opt f rid with
                                  | Some j -> may_observe p j
                                  | None -> false)
                                out_reads
                            then `Live
                            else `Dead "never read afterwards"
                          | (j : Instr.inst) :: more -> (
                            if may_observe p j then `Live
                            else
                              match j.Instr.op with
                              | Instr.Store (_, q)
                                when Alias.alias ctx.cstack m f p q
                                     = Alias.Must_alias ->
                                `Dead
                                  (Printf.sprintf "overwritten by %%%d before any read"
                                     j.Instr.id)
                              | _ -> verdict more)
                        in
                        (match verdict rest with
                        | `Live -> ()
                        | `Dead why ->
                          diags :=
                            mk ~did:"san.dead-store" ~sev:Warning f i
                              (Printf.sprintf
                                 "dead store to non-escaping alloca %%%d: %s" r why)
                              []
                            :: !diags)
                      | _ -> ())
                    | _ -> ());
                    scan rest
                in
                scan insts)
              f;
            List.rev !diags)
          (Irmod.defined_functions m));
  }

(* ------------------------------------------------------------------ *)
(* san.use-after-free / san.double-free: forward allocation state      *)
(* ------------------------------------------------------------------ *)

(** The heap checker threads a forward "must-freed" allocation-state
    problem through the DFE: facts are malloc call-site ids, a [free] whose
    points-to set is exactly one local malloc site generates it, a
    re-execution of the site kills it, and the meet is intersection (a site
    is must-freed only when freed on every path).  Andersen supplies the
    points-to sets; exclusivity requirements keep the verdict
    false-positive-free. *)
let heap : checker =
  {
    cid = "san.heap";
    cdoc = "use-after-free / double-free over Andersen + forward allocation state";
    crun =
      (fun ctx ->
        let m = ctx.cm in
        List.concat_map
          (fun (f : Func.t) ->
            let fn = f.Func.fname in
            (* local malloc sites, as DFE facts *)
            let sites =
              Func.fold_insts
                (fun acc (i : Instr.inst) ->
                  match i.Instr.op with
                  | Instr.Call (Instr.Glob "malloc", _) ->
                    Dfe.IntSet.add i.Instr.id acc
                  | _ -> acc)
                Dfe.IntSet.empty f
            in
            if Dfe.IntSet.is_empty sites then []
            else begin
              (* points-to of [v], restricted to this function's malloc
                 sites; [exclusive] = nothing else could be pointed at *)
              let targets v =
                let objs = Andersen.objs_of ctx.canders f v in
                let ids =
                  Andersen.ObjSet.fold
                    (fun o acc ->
                      match o with
                      | Andersen.Omalloc (ofn, oid) when ofn = fn ->
                        Dfe.IntSet.add oid acc
                      | _ -> acc)
                    objs Dfe.IntSet.empty
                in
                let exclusive =
                  (not (Andersen.ObjSet.is_empty objs))
                  && Andersen.ObjSet.for_all
                       (function
                         | Andersen.Omalloc (ofn, _) -> ofn = fn
                         | _ -> false)
                       objs
                in
                (ids, exclusive)
              in
              (* exact per-block transfer, composed in instruction order *)
              let transfer b =
                List.fold_left
                  (fun (g, k) (i : Instr.inst) ->
                    match i.Instr.op with
                    | Instr.Call (Instr.Glob "malloc", _) ->
                      (Dfe.IntSet.remove i.Instr.id g, Dfe.IntSet.add i.Instr.id k)
                    | Instr.Call (Instr.Glob "free", [ p ]) ->
                      let tgts, exclusive = targets p in
                      if exclusive && Dfe.IntSet.cardinal tgts = 1 then
                        (Dfe.IntSet.union g tgts, Dfe.IntSet.diff k tgts)
                      else (g, k)
                    | _ -> (g, k))
                  (Dfe.IntSet.empty, Dfe.IntSet.empty)
                  (Func.insts_of_block f b)
              in
              let res =
                Dfe.solve f
                  {
                    Dfe.direction = Dfe.Forward;
                    gen = (fun b -> fst (transfer b));
                    kill = (fun b -> snd (transfer b));
                    boundary = Dfe.IntSet.empty;
                    init = sites;
                    combine = Dfe.IntSet.inter;
                  }
              in
              ctx.citers <- ctx.citers + res.Dfe.iterations;
              let diags = ref [] in
              Func.iter_blocks
                (fun (b : Func.block) ->
                  let freed =
                    ref
                      (match Hashtbl.find_opt res.Dfe.in_ b.Func.bid with
                      | Some s -> s
                      | None -> Dfe.IntSet.empty)
                  in
                  List.iter
                    (fun (i : Instr.inst) ->
                      match i.Instr.op with
                      | Instr.Call (Instr.Glob "malloc", _) ->
                        freed := Dfe.IntSet.remove i.Instr.id !freed
                      | Instr.Call (Instr.Glob "free", [ p ]) ->
                        let tgts, exclusive = targets p in
                        if
                          exclusive
                          && (not (Dfe.IntSet.is_empty tgts))
                          && Dfe.IntSet.subset tgts !freed
                        then
                          diags :=
                            mk ~did:"san.double-free" ~sev:Error f i
                              (Printf.sprintf
                                 "double free: allocation %s is already freed \
                                  on every path to this call"
                                 (Dfe.IntSet.elements tgts
                                 |> List.map (Printf.sprintf "%%%d")
                                 |> String.concat ", "))
                              []
                            :: !diags;
                        if exclusive && Dfe.IntSet.cardinal tgts = 1 then
                          freed := Dfe.IntSet.union !freed tgts
                      | Instr.Load p | Instr.Store (_, p) ->
                        let tgts, exclusive = targets p in
                        if
                          exclusive
                          && (not (Dfe.IntSet.is_empty tgts))
                          && Dfe.IntSet.subset tgts !freed
                        then
                          diags :=
                            mk ~did:"san.use-after-free" ~sev:Error f i
                              (Printf.sprintf
                                 "use after free: %s through %s freed on every \
                                  path to this access"
                                 (match i.Instr.op with
                                 | Instr.Load _ -> "load"
                                 | _ -> "store")
                                 (Dfe.IntSet.elements tgts
                                 |> List.map (Printf.sprintf "allocation %%%d")
                                 |> String.concat ", "))
                              []
                            :: !diags
                      | _ -> ())
                    (Func.insts_of_block f b.Func.bid))
                f;
              List.rev !diags
            end)
          (Irmod.defined_functions m));
  }

(* ------------------------------------------------------------------ *)
(* san.oob-gep: SCEV bounds against known allocation sizes             *)
(* ------------------------------------------------------------------ *)

let oob : checker =
  {
    cid = "san.oob-gep";
    cdoc = "affine or constant accesses provably outside their allocation (SCEV bounds)";
    crun =
      (fun ctx ->
        let m = ctx.cm in
        List.concat_map
          (fun (f : Func.t) ->
            let nest = lazy (Loopnest.compute f) in
            let diags = ref [] in
            Func.iter_insts
              (fun (i : Instr.inst) ->
                match Alias.pointer_operand i with
                | None -> ()
                | Some p -> (
                  let base = Alias.base_of f p in
                  match alloc_size m f base with
                  | None -> ()
                  | Some size -> (
                    let report why =
                      diags :=
                        mk ~did:"san.oob-gep" ~sev:Error f i
                          (Printf.sprintf
                             "out-of-bounds %s: %s of %s [%Ld words]"
                             (match i.Instr.op with
                             | Instr.Load _ -> "load"
                             | _ -> "store")
                             why (base_to_string base) size)
                          []
                        :: !diags
                    in
                    match Alias.const_offset f p with
                    | Some off ->
                      if off < 0L || off >= size then
                        report (Printf.sprintf "constant offset %Ld" off)
                    | None -> (
                      (* affine path: index range over the innermost loop *)
                      let nest = Lazy.force nest in
                      match Loopnest.innermost nest i.Instr.parent with
                      | None -> ()
                      | Some l -> (
                        let bound =
                          List.find_map
                            (fun (phi : Instr.inst) ->
                              match
                                Scev.affine_of f l ~iv_phi:phi.Instr.id p
                              with
                              | Some { Scev.base = Some bv; scale; offset }
                                when (not (Int64.equal scale 0L))
                                     && Alias.base_of f bv = base
                                     && Alias.const_offset f bv = Some 0L -> (
                                match Bounds.phi_range f l phi with
                                | Some (lo, hi) ->
                                  let a = Int64.add offset (Int64.mul scale lo)
                                  and b = Int64.add offset (Int64.mul scale hi) in
                                  Some (phi, scale, min a b, max a b)
                                | None -> None)
                              | _ -> None)
                            (Bounds.header_phis f l)
                        in
                        match bound with
                        | Some (phi, scale, lo, hi) ->
                          if lo < 0L || hi >= size then
                            report
                              (Printf.sprintf
                                 "affine access %Ld*%%%d spanning [%Ld, %Ld]"
                                 scale phi.Instr.id lo hi)
                        | None -> ())))))
              f;
            List.rev !diags)
          (Irmod.defined_functions m));
  }

(* ------------------------------------------------------------------ *)
(* complexity: static loop bounds against a budget                      *)
(* ------------------------------------------------------------------ *)

(** Flag loops whose {!Bounds} static trip bound exceeds a configurable
    budget ([check.complexity.budget] metadata, default 1,000,000), and —
    on request via [check.complexity.flag-unbounded] — loops that are
    structurally unable to terminate.  Symbolic and [Unknown] bounds are
    never flagged: the checker reports only what the analysis proved, so
    it stays clean on code it cannot bound rather than guessing. *)
let complexity : checker =
  {
    cid = "complexity";
    cdoc =
      "loops whose static trip bound (Ir.Bounds, profile-free) exceeds the \
       complexity budget, plus provably unbounded loops on request";
    crun =
      (fun ctx ->
        let m = ctx.cm in
        let budget =
          match Meta.get_int m.Irmod.meta "check.complexity.budget" with
          | Some b -> Int64.of_int b
          | None -> 1_000_000L
        in
        let flag_unbounded =
          Meta.mem m.Irmod.meta "check.complexity.flag-unbounded"
        in
        List.concat_map
          (fun (f : Func.t) ->
            let s = Bounds.analyze f in
            List.filter_map
              (fun (lb : Bounds.loop_bound) ->
                let anchor =
                  match Func.terminator f lb.Bounds.lheader with
                  | Some i -> i
                  | None -> Func.inst f (List.hd (Func.block f lb.Bounds.lheader).Func.insts)
                in
                match lb.Bounds.lheadx with
                | Bounds.Unbounded when flag_unbounded ->
                  Some
                    (mk ~did:"complexity.unbounded" ~sev:Warning f anchor
                       (Printf.sprintf
                          "loop %s: no exit edge — the loop cannot terminate"
                          lb.Bounds.lkey)
                       [])
                | (Bounds.Exact _ | Bounds.Upper _) as trip -> (
                  match Bounds.trip_const trip with
                  | Some n when Int64.compare n budget > 0 ->
                    Some
                      (mk ~did:"complexity.budget" ~sev:Warning f anchor
                         (Printf.sprintf
                            "loop %s: static trip bound %s exceeds the \
                             complexity budget %Ld"
                            lb.Bounds.lkey
                            (Bounds.trip_to_string trip) budget)
                         [ Printf.sprintf "cost estimate: %s instructions \
                                           per invocation"
                             (Bounds.cost_to_string lb.Bounds.lcost) ])
                  | _ -> None)
                | _ -> None)
              s.Bounds.floops)
          (Irmod.defined_functions m));
  }

(* ------------------------------------------------------------------ *)
(* meta.verify: trust audit of embedded analysis artifacts             *)
(* ------------------------------------------------------------------ *)

(** Audit every embedded analysis artifact (PDG, profile, arch) against
    the current IR via {!Trust}: diagnostics are [meta.stale] /
    [meta.corrupt] / [meta.unstamped], located at the artifact's subject
    (the function for a PDG, the module otherwise).  Severity follows
    {!Trust.is_error}: a questionable PDG is an error (consuming it
    miscompiles), a stale profile only a warning. *)
let meta_verify : checker =
  {
    cid = "meta.verify";
    cdoc = "embedded analysis artifacts whose stamp is stale, corrupt or missing";
    crun =
      (fun ctx ->
        List.filter_map
          (fun (e : Trust.event) ->
            match e.Trust.averdict with
            | Trust.Trusted _ -> None
            | v ->
              let lfunc =
                match e.Trust.akind with
                | Trust.Pdg_artifact fn -> fn
                | Trust.Prof_artifact | Trust.Arch_artifact -> "<module>"
              in
              Some
                {
                  did = Trust.check_id v;
                  dsev = (if Trust.is_error e then Error else Warning);
                  dloc = { lfunc; lblock = Trust.kind_to_string e.Trust.akind; linst = -1 };
                  dmsg = Trust.event_to_string e;
                  dnotes = [ Printf.sprintf "artifact keys: %s*" e.Trust.aprefix ];
                  dsuppressed = false;
                })
          (Trust.audit ctx.cm));
  }

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)
(* ------------------------------------------------------------------ *)

let all : checker list = [ race; uninit; dead_store; heap; oob; complexity; meta_verify ]

(** Run the selected checkers (all by default) over [m].  Each checker is
    timed and its DFE iterations are accounted; suppressions are resolved
    against the module metadata at report time. *)
let run ?checks (m : Irmod.t) : report =
  let sel =
    match checks with
    | None -> all
    | Some ids ->
      List.filter
        (fun c ->
          List.exists
            (fun id -> c.cid = id || String.length id > 0 && c.cid = "san." ^ id)
            ids)
        all
  in
  let anders = Andersen.analyze m in
  let ctx =
    {
      cm = m;
      cstack = [ Alias.baseline; Andersen.analysis anders ];
      canders = anders;
      citers = 0;
    }
  in
  let diags = ref [] and stats = ref [] in
  List.iter
    (fun c ->
      ctx.citers <- 0;
      (* one timing mechanism: the telemetry clock measures the checker and
         (when tracing is installed) records the interval as a span *)
      let ds, ms =
        Trace.timed_span ~cat:"check" ("check:" ^ c.cid) (fun () -> c.crun ctx)
      in
      Trace.add (Printf.sprintf "check.%s.diags" c.cid) (List.length ds);
      Trace.add (Printf.sprintf "check.%s.dfe_iters" c.cid) ctx.citers;
      let ds =
        List.map
          (fun d ->
            {
              d with
              dsuppressed =
                suppressed m ~did:d.did ~fname:d.dloc.lfunc ~inst:d.dloc.linst;
            })
          ds
      in
      diags := !diags @ ds;
      stats :=
        { sname = c.cid; sdiags = List.length ds; siters = ctx.citers; stime_ms = ms }
        :: !stats)
    sel;
  { diags = !diags; rstats = List.rev !stats }

(** Unsuppressed errors: the gate condition. *)
let errors (r : report) =
  List.filter (fun d -> d.dsev = Error && not d.dsuppressed) r.diags

let warnings (r : report) =
  List.filter (fun d -> d.dsev = Warning && not d.dsuppressed) r.diags

(** Loop ids (as {!Ids.loop_key}) the race detector flags: the skip set the
    [--check-races] pipeline gate feeds to DOALL/HELIX/DSWP. *)
let race_flagged_loops (m : Irmod.t) : (string, unit) Hashtbl.t =
  let r = run ~checks:[ "race.loop-carried" ] m in
  let flagged = Hashtbl.create 8 in
  List.iter
    (fun d ->
      if d.did = "race.loop-carried" && not d.dsuppressed then
        (* the loop key is the first token after "loop " in the message *)
        match String.index_opt d.dmsg ':' with
        | Some j when String.length d.dmsg > 5 && String.sub d.dmsg 0 5 = "loop " ->
          Hashtbl.replace flagged (String.sub d.dmsg 5 (j - 5)) ()
        | _ -> ())
    r.diags;
  flagged

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let diag_to_string (d : diag) =
  Printf.sprintf "%s[%s]%s %s/%s: inst %d: %s%s"
    (severity_to_string d.dsev) d.did
    (if d.dsuppressed then " (suppressed)" else "")
    d.dloc.lfunc d.dloc.lblock d.dloc.linst d.dmsg
    (String.concat "" (List.map (fun n -> "\n    note: " ^ n) d.dnotes))

let report_to_text ?(stats = false) (r : report) =
  let buf = Buffer.create 256 in
  List.iter (fun d -> Buffer.add_string buf (diag_to_string d ^ "\n")) r.diags;
  if stats then
    List.iter
      (fun s ->
        Buffer.add_string buf
          (Printf.sprintf "stats %-20s %3d diagnostics, %4d DFE iterations, %.2f ms\n"
             s.sname s.sdiags s.siters s.stime_ms))
      r.rstats;
  let nsup = List.length (List.filter (fun d -> d.dsuppressed) r.diags) in
  Buffer.add_string buf
    (Printf.sprintf "noelle-check: %d errors, %d warnings (%d suppressed)\n"
       (List.length (errors r)) (List.length (warnings r)) nsup);
  Buffer.contents buf

(** JSON rendering of a report (schema documented in the README). *)
let report_to_json ~mname (r : report) =
  let diag d =
    Printf.sprintf
      "{\"check\":\"%s\",\"severity\":\"%s\",\"function\":\"%s\",\"block\":\"%s\",\
       \"inst\":%d,\"message\":\"%s\",\"notes\":[%s],\"suppressed\":%b}"
      (Trace.json_escape d.did)
      (severity_to_string d.dsev)
      (Trace.json_escape d.dloc.lfunc) (Trace.json_escape d.dloc.lblock) d.dloc.linst
      (Trace.json_escape d.dmsg)
      (String.concat ","
         (List.map (fun n -> "\"" ^ Trace.json_escape n ^ "\"") d.dnotes))
      d.dsuppressed
  in
  let stat s =
    Printf.sprintf
      "{\"checker\":\"%s\",\"diagnostics\":%d,\"iterations\":%d,\"ms\":%.3f}"
      (Trace.json_escape s.sname) s.sdiags s.siters s.stime_ms
  in
  Printf.sprintf
    "{\"module\":\"%s\",\"errors\":%d,\"warnings\":%d,\"diagnostics\":[%s],\"stats\":[%s]}"
    (Trace.json_escape mname)
    (List.length (errors r))
    (List.length (warnings r))
    (String.concat "," (List.map diag r.diags))
    (String.concat "," (List.map stat r.rstats))
