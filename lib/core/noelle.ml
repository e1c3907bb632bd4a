(** The demand-driven abstraction manager (§2.1, §2.2).

    [Noelle.t] is what [noelle-load] places in memory: a handle through
    which custom tools request abstractions.  Each abstraction is computed
    on first request and cached ("users only pay for the abstractions they
    need"), and every request is logged per tool — the logs regenerate the
    paper's Table 4 usage matrix from measurements instead of hand
    bookkeeping.

    Tools set their identity with {!set_tool}; every accessor records
    (tool, abstraction) into {!usage}. *)

(* Re-export every abstraction so that [Noelle.X] is the public path
   (this file doubles as the library's root module). *)
module Depgraph = Depgraph
module Pdg = Pdg
module Sccdag = Sccdag
module Ascc = Ascc
module Callgraph = Callgraph
module Env = Env
module Task = Task
module Dfe = Dfe
module Check = Check
module Loopstructure = Loopstructure
module Invariants = Invariants
module Invariants_llvm = Invariants_llvm
module Indvars = Indvars
module Indvars_llvm = Indvars_llvm
module Ivstepper = Ivstepper
module Reduction = Reduction
module Loop = Loop
module Forest = Forest
module Loopbuilder = Loopbuilder
module Scheduler = Scheduler
module Islands = Islands
module Arch = Arch
module Profiler = Profiler
module Pipeline = Pipeline
module Trust = Trust
module Telemetry = Telemetry

open Ir

(** A cached per-function artifact, stamped for fingerprint-keyed
    incremental invalidation (DESIGN.md §11): [pfp] is the function's
    structural fingerprint at compute time, [pafp] the Andersen solution
    fingerprint it was built under ([""] when it has no points-to
    dependency: baseline-stack builds and verified metadata reloads).
    {!invalidate} keeps entries whose function fingerprint still matches,
    marking them [psuspect] when the points-to facts were dropped; the
    next access revalidates [pafp] against the recomputed solution and
    rebuilds on mismatch — so a kept entry is always bit-identical to a
    from-scratch recompute. *)
type cached_pdg = {
  pfp : string;
  pafp : string;
  mutable psuspect : bool;
  pval : Pdg.t;
}

type t = {
  m : Irmod.t;
  mutable tool : string;
  usage : (string * string, unit) Hashtbl.t;    (** (tool, abstraction) *)
  mutable use_noelle_aa : bool;                 (** full stack vs baseline *)
  mutable analysis_budget : int option;
      (** step budget for demand-driven analyses: past it Andersen degrades
          to a conservative points-to result and the PDG stops issuing
          alias queries, emitting may-deps instead (sound, less precise) *)
  mutable andersen : (string * string * Andersen.t) option;
      (** (module fingerprint, solution fingerprint, result) *)
  pdgs : (string, cached_pdg) Hashtbl.t;
  nests : (string, string * Loopnest.t) Hashtbl.t;
      (** function fingerprint at compute time, nest *)
  bounds_ : (string, string * Bounds.summary) Hashtbl.t;
      (** function fingerprint at compute time, symbolic loop bounds *)
  mutable cg : (string * Callgraph.t) option;
      (** module fingerprint at compute time, graph *)
  mutable arch_ : Arch.t option;
  mutable trust_mode : Trust.mode;
      (** what a failed metadata verification does: [Degrade] quarantines
          the artifact and recomputes on demand; [Strict] raises
          {!Trust.Tainted} *)
  mutable trust_log : Trust.event list;  (** newest first *)
  mutable fast_reloads : int;
      (** embedded artifacts reloaded through a verified stamp *)
  mutable artifact_sink :
    (kind:string -> fn:string -> fp:string -> payload:string -> unit) option;
      (** store hook (DESIGN.md §14): called once for every exact artifact
          this manager computes from scratch (PDGs that are neither
          degraded nor metadata reloads, loop-bound summaries), with the
          canonical payload rendering — [Serve.Store] installs one to
          persist artifacts as they are produced *)
}

let create ?(use_noelle_aa = true) ?analysis_budget ?(trust_mode = Trust.Degrade)
    (m : Irmod.t) : t =
  {
    m;
    tool = "?";
    usage = Hashtbl.create 64;
    use_noelle_aa;
    analysis_budget;
    andersen = None;
    pdgs = Hashtbl.create 16;
    nests = Hashtbl.create 16;
    bounds_ = Hashtbl.create 16;
    cg = None;
    arch_ = None;
    trust_mode;
    trust_log = [];
    fast_reloads = 0;
    artifact_sink = None;
  }

(** Install (or clear) the artifact store hook; see {!field-artifact_sink}. *)
let set_artifact_sink (t : t) sink = t.artifact_sink <- sink

(* [payload] renders the artifact only when a sink is installed *)
let sink_artifact (t : t) ~kind ~fn ~fp ~payload =
  match t.artifact_sink with
  | Some sink -> sink ~kind ~fn ~fp ~payload:(payload ())
  | None -> ()

(** Set the name of the tool issuing subsequent requests (Table 4 rows). *)
let set_tool (t : t) name = t.tool <- name

(** Bound (or unbound, with [None]) the analysis step budget; takes effect
    on the next demand-driven computation. *)
let set_analysis_budget (t : t) b = t.analysis_budget <- b

(** Did any cached analysis hit its budget and degrade to a conservative
    result? *)
let degraded (t : t) =
  (match t.andersen with Some (_, _, a) -> a.Andersen.degraded | None -> false)
  || Hashtbl.fold (fun _ (c : cached_pdg) acc -> acc || c.pval.Pdg.degraded) t.pdgs false

let record (t : t) abstraction = Hashtbl.replace t.usage (t.tool, abstraction) ()

(* telemetry: every demand-driven request is counted, and every cache
   decision is attributed (hit / miss / verified fast reload); the compute
   path of a miss runs inside a span so the Chrome trace shows where the
   abstraction layer's time goes *)
let hit abstraction =
  Trace.incr_m "noelle.cache.hit";
  Trace.incr_m (Printf.sprintf "noelle.%s.hit" abstraction)

let miss abstraction =
  Trace.incr_m "noelle.cache.miss";
  Trace.incr_m (Printf.sprintf "noelle.%s.miss" abstraction)

(** All (tool, abstraction) pairs observed so far, sorted. *)
let usage_pairs (t : t) =
  Hashtbl.fold (fun k () acc -> k :: acc) t.usage []
  |> List.sort compare

(** Trust events observed so far (oldest first). *)
let trust_events (t : t) = List.rev t.trust_log

(** Embedded artifacts reloaded through a verified stamp so far. *)
let fast_reloads (t : t) = t.fast_reloads

(** React to a failed verification: log it, then quarantine ([Degrade])
    or trap ([Strict]). *)
let distrust (t : t) (e : Trust.event) =
  t.trust_log <- e :: t.trust_log;
  match t.trust_mode with
  | Trust.Strict -> raise (Trust.Tainted (Trust.event_to_string e))
  | Trust.Degrade -> Trust.quarantine t.m.Irmod.meta ~prefix:e.Trust.aprefix

(** The single audited keep/quarantine decision for a fingerprint-stamped
    artifact, shared by {!invalidate}'s per-function cache tables (PDGs,
    loop nests, bounds) and the serve layer's on-disk store: an artifact
    may be served only while the fingerprint of the code it was computed
    from still matches the code as it stands now.  [current = None] means
    the subject is gone (function removed, or demoted to a declaration) —
    never keep. *)
let reconcile_artifact ~(current : string option) ~(stamped : string) :
    [ `Keep | `Drop ] =
  match current with Some fp when fp = stamped -> `Keep | _ -> `Drop

(* Sweep one per-function cache table through {!reconcile_artifact}:
   entries whose function fingerprint no longer matches are removed.
   [entry_fp] projects the stamped fingerprint out of an entry; [on_keep]
   runs for survivors (PDGs use it to mark points-to-suspect entries).
   Returns (kept, dropped). *)
let reconcile_tbl (type v) ~(fp_of : string -> string option)
    ~(entry_fp : v -> string) ?(on_keep = fun (_ : v) -> ())
    (tbl : (string, v) Hashtbl.t) : int * int =
  let kept = ref 0 and stale = ref [] in
  Hashtbl.iter
    (fun fn entry ->
      match reconcile_artifact ~current:(fp_of fn) ~stamped:(entry_fp entry) with
      | `Keep ->
        incr kept;
        on_keep entry
      | `Drop -> stale := fn :: !stale)
    tbl;
  List.iter (Hashtbl.remove tbl) !stale;
  (!kept, List.length !stale)

(** Invalidate cached analyses after a transformation mutated the module.

    Fingerprint-keyed and incremental (DESIGN.md §11): instead of
    resetting every cache, each cached artifact's stamp is compared
    against the code as it stands now.  Module-keyed artifacts (Andersen,
    call graph) are dropped only when the module fingerprint changed;
    per-function artifacts (PDGs, loop nests) only when their function's
    fingerprint changed — so a transform touching one function no longer
    forces whole-module reanalysis.  PDGs kept across a points-to drop
    are marked suspect and revalidated against the recomputed Andersen
    solution fingerprint on next access, which keeps incremental results
    bit-identical to from-scratch recomputation even when a one-function
    edit shifts interprocedural aliasing.

    Embedded PDG artifacts are reconciled too: any whose stamp no longer
    matches the transformed code is quarantined, so a re-request cannot
    resurrect the stale pre-transform graph.  (Quarantine here is
    legitimate bookkeeping, not a trust violation — strict mode does not
    trap on it.) *)
let invalidate (t : t) =
  let mfp = Fingerprint.module_fp t.m in
  let andersen_stale =
    match t.andersen with Some (amfp, _, _) -> amfp <> mfp | None -> false
  in
  if andersen_stale then t.andersen <- None;
  (match t.cg with
  | Some (cmfp, _) when cmfp <> mfp -> t.cg <- None
  | _ -> ());
  let fp_cache : (string, string option) Hashtbl.t = Hashtbl.create 16 in
  let fp_of fn =
    match Hashtbl.find_opt fp_cache fn with
    | Some v -> v
    | None ->
      let v =
        match Irmod.func_opt t.m fn with
        | Some f when not f.Func.is_declaration -> Some (Fingerprint.func_fp f)
        | _ -> None
      in
      Hashtbl.replace fp_cache fn v;
      v
  in
  let k1, d1 =
    reconcile_tbl ~fp_of
      ~entry_fp:(fun (c : cached_pdg) -> c.pfp)
      ~on_keep:(fun c -> if andersen_stale && c.pafp <> "" then c.psuspect <- true)
      t.pdgs
  in
  let k2, d2 = reconcile_tbl ~fp_of ~entry_fp:fst t.nests in
  let k3, d3 = reconcile_tbl ~fp_of ~entry_fp:fst t.bounds_ in
  Trace.touch "noelle.invalidate.kept";
  Trace.add "noelle.invalidate.kept" (k1 + k2 + k3);
  Trace.add "noelle.invalidate.dropped" (d1 + d2 + d3);
  let evs =
    Trust.reconcile
      ~kinds:(function Trust.Pdg_artifact _ -> true | _ -> false)
      t.m
  in
  t.trust_log <- List.rev_append evs t.trust_log

let andersen (t : t) =
  match t.andersen with
  | Some (_, _, a) ->
    hit "andersen";
    a
  | None ->
    miss "andersen";
    let a =
      Trace.span ~cat:"analysis" "noelle.andersen" (fun () ->
          Andersen.analyze ?budget:t.analysis_budget t.m)
    in
    t.andersen <- Some (Fingerprint.module_fp t.m, Andersen.solution_fp a, a);
    a

(** Solution fingerprint PDGs are stamped with: the current Andersen
    solution's when the full stack is in use (computing it on demand),
    [""] when only the baseline stack powers the PDG. *)
let andersen_fp (t : t) =
  if not t.use_noelle_aa then ""
  else begin
    ignore (andersen t);
    match t.andersen with Some (_, afp, _) -> afp | None -> ""
  end

(** The alias stack powering the PDG (modular: baseline, then Andersen). *)
let alias_stack (t : t) : Alias.stack =
  if t.use_noelle_aa then [ Alias.baseline; Andersen.analysis (andersen t) ]
  else [ Alias.baseline ]

(** The PDG of function [f] (demand-driven, cached).  If the module
    carries an embedded PDG (noelle-meta-pdg-embed) whose stamp verifies
    against the current code, it is reloaded instead of recomputed;
    stale/corrupt/unstamped artifacts are distrusted (quarantined in
    [Degrade] mode, {!Trust.Tainted} in [Strict]). *)
let pdg (t : t) (f : Func.t) : Pdg.t =
  record t "PDG";
  Trace.incr_m "noelle.pdg.queries";
  let cached =
    match Hashtbl.find_opt t.pdgs f.Func.fname with
    | Some c when c.psuspect ->
      (* kept across an invalidate that dropped the points-to facts: the
         entry is exact iff the recomputed solution fingerprint matches
         the one it was built under *)
      if andersen_fp t = c.pafp then begin
        c.psuspect <- false;
        Some c.pval
      end
      else begin
        Hashtbl.remove t.pdgs f.Func.fname;
        None
      end
    | Some c -> Some c.pval
    | None -> None
  in
  match cached with
  | Some p ->
    hit "pdg";
    p
  | None ->
    miss "pdg";
    let sp = Trace.begin_span ~cat:"analysis" ("noelle.pdg:" ^ f.Func.fname) in
    let kind = Trust.Pdg_artifact f.Func.fname in
    let prefix = Trust.prefix_of_kind kind in
    let reloaded = ref false in
    let build () =
      Trace.tag sp "source" "computed";
      let pts = if t.use_noelle_aa then Some (andersen t) else None in
      Pdg.build ?budget:t.analysis_budget ~stack:(alias_stack t) ?pts t.m f
    in
    let p =
      (* [distrust] may raise in Strict mode: close the span either way *)
      Fun.protect ~finally:(fun () -> Trace.end_span sp) @@ fun () ->
      if not (Trust.has_artifact t.m.Irmod.meta ~prefix) then build ()
      else
        match Trust.verify_artifact t.m kind with
        | Trust.Trusted _ -> (
          match Pdg.of_embedded t.m f with
          | Some p ->
            t.fast_reloads <- t.fast_reloads + 1;
            Trace.incr_m "noelle.cache.fast_reload";
            Trace.tag sp "source" "verified-reload";
            reloaded := true;
            p
          | None ->
            (* checksum verified but the payload would not decode (ghost
               edges, truncation): treat as corrupt *)
            distrust t
              {
                Trust.akind = kind;
                aprefix = prefix;
                averdict = Trust.Corrupt "payload decode failed";
              };
            build ())
        | (Trust.Unstamped | Trust.Stale _ | Trust.Corrupt _) as v ->
          distrust t { Trust.akind = kind; aprefix = prefix; averdict = v };
          build ()
    in
    (* verified reloads carry no alias-stack dependency: their validity is
       keyed on the function fingerprint alone, exactly like a
       from-scratch manager would reload them *)
    let pafp = if !reloaded then "" else andersen_fp t in
    let pfp = Fingerprint.func_fp f in
    Hashtbl.replace t.pdgs f.Func.fname { pfp; pafp; psuspect = false; pval = p };
    (* store hook: only exact from-scratch results may be persisted — a
       degraded graph would poison the store with a coarser answer, and a
       metadata reload is already persisted where it came from *)
    if (not p.Pdg.degraded) && not !reloaded then
      sink_artifact t ~kind:"pdg" ~fn:f.Func.fname ~fp:pfp ~payload:(fun () ->
          Pdg.payload p);
    p

(** Raw natural-loop information of [f] (cached). *)
let loopnest (t : t) (f : Func.t) : Loopnest.t =
  match Hashtbl.find_opt t.nests f.Func.fname with
  | Some (_, n) ->
    hit "loopnest";
    n
  | None ->
    miss "loopnest";
    let n =
      Trace.span ~cat:"analysis" ("noelle.loopnest:" ^ f.Func.fname) (fun () ->
          Loopnest.compute f)
    in
    Hashtbl.replace t.nests f.Func.fname (Fingerprint.func_fp f, n);
    n

(** Symbolic loop-bound and cost summary of [f] (BND; demand-driven,
    cached, fingerprint-keyed like PDGs so stale bounds cannot steer
    chunking after an edit). *)
let bounds (t : t) (f : Func.t) : Bounds.summary =
  record t "BND";
  match Hashtbl.find_opt t.bounds_ f.Func.fname with
  | Some (_, s) ->
    hit "bounds";
    s
  | None ->
    miss "bounds";
    let s = Bounds.analyze f in
    let fp = Fingerprint.func_fp f in
    Hashtbl.replace t.bounds_ f.Func.fname (fp, s);
    sink_artifact t ~kind:"bounds" ~fn:f.Func.fname ~fp ~payload:(fun () ->
        Bounds.summary_payload s);
    s

(* the loop nest of [f] and the loop structure of each of its loops *)
let nest_structures (t : t) (f : Func.t) =
  record t "LS";
  let nest = loopnest t f in
  (nest, List.map (Loopstructure.of_loop f) nest.Loopnest.loops)

(** Loop structures (LS) of every loop in [f]. *)
let loop_structures (t : t) (f : Func.t) : Loopstructure.t list =
  snd (nest_structures t f)

(** Canonical loops (L) of [f], everything beyond LS computed lazily. *)
let loops (t : t) (f : Func.t) : Loop.t list =
  record t "L";
  let p = pdg t f in
  let nest, structures = nest_structures t f in
  List.map (Loop.make p nest) structures

(** The loop-nesting forest of [f] (FR). *)
let loop_forest (t : t) (f : Func.t) =
  record t "FR";
  Forest.of_loopnest (loopnest t f)

(** The complete program call graph (CG). *)
let callgraph (t : t) : Callgraph.t =
  record t "CG";
  match t.cg with
  | Some (_, cg) ->
    hit "callgraph";
    cg
  | None ->
    miss "callgraph";
    let cg =
      Trace.span ~cat:"analysis" "noelle.callgraph" (fun () ->
          Callgraph.build ~pts:(andersen t) t.m)
    in
    t.cg <- Some (Fingerprint.module_fp t.m, cg);
    cg

(** The architecture description (AR), from embedded metadata when the
    noelle-arch tool ran (and its stamp verifies), else measured. *)
let arch (t : t) : Arch.t =
  record t "AR";
  match t.arch_ with
  | Some a ->
    hit "arch";
    a
  | None ->
    miss "arch";
    let meta = t.m.Irmod.meta in
    let a =
      Trace.span ~cat:"analysis" "noelle.arch" @@ fun () ->
      if not (Trust.has_artifact meta ~prefix:"arch.") then Arch.measure ()
      else
        match Trust.verify_artifact t.m Trust.Arch_artifact with
        | Trust.Trusted _ -> (
          match Arch.of_meta meta with
          | Some a ->
            t.fast_reloads <- t.fast_reloads + 1;
            Trace.incr_m "noelle.cache.fast_reload";
            a
          | None ->
            distrust t
              {
                Trust.akind = Trust.Arch_artifact;
                aprefix = "arch.";
                averdict = Trust.Corrupt "payload decode failed";
              };
            Arch.measure ())
        | (Trust.Unstamped | Trust.Stale _ | Trust.Corrupt _) as v ->
          distrust t
            { Trust.akind = Trust.Arch_artifact; aprefix = "arch."; averdict = v };
          Arch.measure ()
    in
    t.arch_ <- Some a;
    a

(* thin logged handles for the abstractions that are pure modules *)

let aSCCDAG (t : t) (l : Loop.t) =
  record t "aSCCDAG";
  Loop.ascc l

let scc_dag (t : t) (l : Loop.t) =
  record t "aSCCDAG";
  Loop.sccdag l

let invariants (t : t) (l : Loop.t) =
  record t "INV";
  Loop.invariants l

let induction_variables (t : t) (l : Loop.t) =
  record t "IV";
  Loop.induction_variables l

let reductions (t : t) (l : Loop.t) =
  record t "RD";
  Loop.reductions l

let scheduler (t : t) (f : Func.t) =
  record t "SCD";
  Scheduler.create (pdg t f)

(** Access to the data-flow engine (logged); returns the module functions
    through a unit handle — call {!Dfe.solve} etc. after this. *)
let dfe (t : t) =
  record t "DFE";
  ()

let loop_builder (t : t) =
  record t "LB";
  ()

let iv_stepper (t : t) =
  record t "IVS";
  ()

let environment (t : t) =
  record t "ENV";
  ()

let task (t : t) =
  record t "T";
  ()

let islands (t : t) =
  record t "ISL";
  ()

let profiler (t : t) =
  record t "PRO";
  ()
