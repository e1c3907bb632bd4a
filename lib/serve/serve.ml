(** Noelle.Serve — analysis-as-a-service over a multi-module corpus.

    The serve loop consumes a stream of module-edit / analysis-query
    requests ({!Workload}), answering queries from per-module {!Noelle}
    managers backed by the crash-consistent on-disk artifact {!Store}
    (sharded by call-graph SCC, keyed by {!Ir.Fingerprint}).  Robustness
    properties (DESIGN.md §14):

    - every store write is journaled + atomically renamed, so a kill at
      any point recovers to byte-equivalent-or-recomputed, never stale;
    - store reads hitting a stalled shard are retried with exponential
      backoff under a per-request deadline, then the store is bypassed
      (fresh compute) — a sick shard degrades throughput, not answers;
    - a circuit breaker watches the arrival backlog: past the high-water
      mark, dependence queries are shed to a budget-0 baseline-stack PDG
      (conservative superset — never wrong, only coarser) that is NEVER
      persisted, so overload cannot poison the store;
    - corrupt/torn artifacts are quarantined-and-recomputed, both at
      startup recovery and on lookup. *)

open Ir
module Pdg = Noelle.Pdg
module Callgraph = Noelle.Callgraph
module Trust = Noelle.Trust
module Store = Store
module Workload = Workload
module Slo = Slo

(* ------------------------------------------------------------------ *)
(* Answers                                                             *)
(* ------------------------------------------------------------------ *)

type answer = {
  aidx : int;  (** request index in the workload *)
  areq : string;  (** rendered request *)
  atext : string;  (** canonical digest compared across runs *)
  apayload : string;  (** full payload (conservativeness checks) *)
  asource : string;  (** ["hit"] | ["computed"] | ["degraded"] | ["edit"] *)
  adegraded : bool;
}

type config = {
  deadline : int;  (** lookup attempts budget before bypassing the store *)
  retries : int;  (** max retry count for a transient shard fault *)
  high_water : int;  (** backlog opening the breaker *)
  low_water : int;  (** backlog closing it again *)
  shed_check : int;  (** sheds to cross-check against exact (gate mode) *)
}

let default_config =
  { deadline = 4; retries = 3; high_water = 64; low_water = 8; shed_check = 0 }

(** What a replayed flight dump said was in flight when the previous
    process died: the last request started and the last store kill-point
    reached, each with its correlation id. *)
type flight_info = {
  fi_req : (int * string) option;  (** request index, rid *)
  fi_kill : (int * string) option;  (** kill sub-point, rid *)
  fi_events : int;  (** events retained in the dump *)
}

type server = {
  store : Store.t;
  corpus : (string * Irmod.t) list;
  mgrs : (string, Noelle.t) Hashtbl.t;
  shards : (string, string * (string, string) Hashtbl.t) Hashtbl.t;
      (** module → (module fp it was computed at, fn → shard id) *)
  cfg : config;
  mutable now : int;  (** simulated tick clock *)
  mutable breaker_open : bool;
  mutable sheds_checked : int;
  mutable shed_violations : string list;
  mutable recoveries : int;
  mutable recovery_ms : float;  (** cumulative store-recovery wall time *)
  sink_wrote : bool ref;  (** did the manager's sink persist this query? *)
  flight_replay : flight_info option;
      (** parsed [<root>/flight.json] found at startup — crash forensics
          from the previous incarnation *)
}

(* ------------------------------------------------------------------ *)
(* Shard map: call-graph SCCs (Tarjan), stable shard ids               *)
(* ------------------------------------------------------------------ *)

(** Strongly connected components of the defined-function call graph.
    A shard id is a fingerprint of the SCC's sorted member names — stable
    under edits that do not rewire calls, so artifacts stay findable. *)
let scc_shards (mgr : Noelle.t) (m : Irmod.t) : (string, string) Hashtbl.t =
  let cg = Noelle.callgraph mgr in
  let defined = Irmod.defined_functions m in
  let names = List.map (fun f -> f.Func.fname) defined in
  let is_def = Hashtbl.create 16 in
  List.iter (fun n -> Hashtbl.replace is_def n ()) names;
  let succ = Hashtbl.create 16 in
  List.iter
    (fun (e : Callgraph.edge) ->
      if Hashtbl.mem is_def e.Callgraph.caller && Hashtbl.mem is_def e.Callgraph.callee
      then
        Hashtbl.replace succ e.Callgraph.caller
          (e.Callgraph.callee
          :: (Option.value ~default:[] (Hashtbl.find_opt succ e.Callgraph.caller))))
    cg.Callgraph.edges;
  let index = Hashtbl.create 16
  and low = Hashtbl.create 16
  and on_stack = Hashtbl.create 16 in
  let stack = ref [] and counter = ref 0 and sccs = ref [] in
  let rec strongconnect v =
    Hashtbl.replace index v !counter;
    Hashtbl.replace low v !counter;
    incr counter;
    stack := v :: !stack;
    Hashtbl.replace on_stack v ();
    List.iter
      (fun w ->
        if not (Hashtbl.mem index w) then begin
          strongconnect w;
          Hashtbl.replace low v (min (Hashtbl.find low v) (Hashtbl.find low w))
        end
        else if Hashtbl.mem on_stack w then
          Hashtbl.replace low v (min (Hashtbl.find low v) (Hashtbl.find index w)))
      (Option.value ~default:[] (Hashtbl.find_opt succ v));
    if Hashtbl.find low v = Hashtbl.find index v then begin
      let rec pop acc =
        match !stack with
        | w :: rest ->
          stack := rest;
          Hashtbl.remove on_stack w;
          if w = v then w :: acc else pop (w :: acc)
        | [] -> acc
      in
      sccs := pop [] :: !sccs
    end
  in
  List.iter (fun v -> if not (Hashtbl.mem index v) then strongconnect v) names;
  let out = Hashtbl.create 16 in
  List.iter
    (fun members ->
      let sorted = List.sort String.compare members in
      let fp = List.fold_left Fingerprint.feed Fingerprint.seed sorted in
      let hex = Fingerprint.to_hex fp in
      let id = String.sub hex 0 (min 12 (String.length hex)) in
      List.iter (fun fn -> Hashtbl.replace out fn id) sorted)
    !sccs;
  out

(** Shard id for [fn], recomputing the module's shard map when its
    fingerprint moved (an edit may rewire calls). *)
let shard_of (sv : server) (mname : string) (m : Irmod.t) (fn : string) : string =
  let mfp = Fingerprint.module_fp m in
  let map =
    match Hashtbl.find_opt sv.shards mname with
    | Some (fp, map) when fp = mfp -> map
    | _ ->
      let mgr = Hashtbl.find sv.mgrs mname in
      let map = scc_shards mgr m in
      Hashtbl.replace sv.shards mname (mfp, map);
      map
  in
  match Hashtbl.find_opt map fn with Some s -> s | None -> "solo"

(* ------------------------------------------------------------------ *)
(* Server lifecycle                                                    *)
(* ------------------------------------------------------------------ *)

let register_counters () =
  List.iter Trace.touch
    [
      "serve.requests"; "serve.queries"; "serve.edits"; "serve.computed";
      "serve.shed"; "serve.retries"; "serve.deadline_misses";
      "serve.breaker.opens"; "serve.recoveries"; "serve.killed";
      "serve.flight.replayed";
    ]

(* ------------------------------------------------------------------ *)
(* Flight recorder dump / replay                                       *)
(* ------------------------------------------------------------------ *)

let flight_path root = Filename.concat root "flight.json"

(** Dump the always-on flight ring to [<root>/flight.json] — called on a
    trap (simulated kill) so the post-mortem names what was in flight. *)
let dump_flight (root : string) : string =
  Store.mkdir_p root;
  let path = flight_path root in
  let oc = open_out path in
  output_string oc (Trace.flight_to_json ());
  close_out oc;
  path

(** Parse a flight dump left by a previous incarnation: the last
    [serve.request] and [store.kill] waypoints identify the in-flight
    request and kill sub-point.  Returns [None] when there is no dump or
    it is unreadable (forensics must never block recovery). *)
let replay_flight (root : string) : flight_info option =
  let path = flight_path root in
  if not (Sys.file_exists path) then None
  else
    try
      let module J = Trace.Json in
      let doc = J.parse (Store.read_all path) in
      let evs =
        Option.bind (J.member "flightEvents" doc) J.to_list
        |> Option.value ~default:[]
      in
      let req = ref None and kill = ref None in
      List.iter
        (fun e ->
          let str f = Option.bind (J.member f e) J.to_string in
          let arg f =
            Option.bind (J.member "args" e) (fun a ->
                Option.bind (J.member f a) J.to_string)
          in
          match (str "name", str "rid") with
          | Some "serve.request", Some rid -> (
            match Option.bind (arg "idx") int_of_string_opt with
            | Some i -> req := Some (i, rid)
            | None -> ())
          | Some "store.kill", Some rid -> (
            match Option.bind (arg "point") int_of_string_opt with
            | Some p -> kill := Some (p, rid)
            | None -> ())
          | _ -> ())
        evs;
      Some { fi_req = !req; fi_kill = !kill; fi_events = List.length evs }
    with _ -> None

(** Wire a manager's artifact sink to the store: exact results flow to
    disk as they are computed.  The sink raises {!Store.Killed} when a
    kill fault is armed — the manager's caches die with the "process". *)
let install_sink (sv : server) (mname : string) (m : Irmod.t) (mgr : Noelle.t) =
  Noelle.set_artifact_sink mgr
    (Some
       (fun ~kind ~fn ~fp ~payload ->
         let afp = if kind = "pdg" then Noelle.andersen_fp mgr else "-" in
         let key =
           { Store.kmod = mname; kshard = shard_of sv mname m fn; kfn = fn;
             kkind = kind }
         in
         sv.sink_wrote := true;
         Store.write sv.store key ~fp ~afp ~payload))

let create ?(cfg = default_config) ~(root : string)
    (corpus : (string * Irmod.t) list) : server =
  register_counters ();
  let (flight_replay, store), recovery_ms =
    Trace.time_ms (fun () ->
        (* crash forensics first: a flight dump left by a killed
           predecessor is replayed before the store's own recovery
           touches the root *)
        let flight_replay = replay_flight root in
        if flight_replay <> None then Trace.incr_m "serve.flight.replayed";
        (flight_replay, Store.open_store root))
  in
  let sv =
    {
      store;
      corpus;
      mgrs = Hashtbl.create 8;
      shards = Hashtbl.create 8;
      cfg;
      now = 0;
      breaker_open = false;
      sheds_checked = 0;
      shed_violations = [];
      recoveries = 0;
      recovery_ms;
      sink_wrote = ref false;
      flight_replay;
    }
  in
  List.iter
    (fun (mname, m) ->
      let mgr = Noelle.create m in
      install_sink sv mname m mgr;
      Hashtbl.replace sv.mgrs mname mgr)
    corpus;
  sv

(** Crash recovery: reopen the store (journal replay + verification
    sweep) and rebuild fresh managers.  The corpus itself is client
    state — module edits survive, analysis caches do not. *)
let restart (sv : server) ~(root : string) : server =
  Store.close sv.store;
  let sv' = create ~cfg:sv.cfg ~root sv.corpus in
  sv'.recoveries <- sv.recoveries + 1;
  sv'.recovery_ms <- sv.recovery_ms +. sv'.recovery_ms;
  sv'.store.Store.qcount <- sv.store.Store.qcount + sv'.store.Store.qcount;
  Trace.incr_m "serve.recoveries";
  sv'

(* ------------------------------------------------------------------ *)
(* Request handling                                                    *)
(* ------------------------------------------------------------------ *)

let nth_fn (m : Irmod.t) (i : int) : Func.t =
  let fns = Irmod.defined_functions m in
  List.nth fns (i mod List.length fns)

(** Benign edit: a dead [add seed, 0] planted at the function entry —
    changes the version and the fingerprint (forcing invalidation)
    without changing behaviour, calls, or loop structure. *)
let apply_edit (m : Irmod.t) ~(efn : int) ~(eseed : int) : Func.t =
  let f = nth_fn m efn in
  let b = Func.block f (Func.entry f) in
  let before = List.hd b.Func.insts in
  ignore
    (Builder.insert_before f ~before
       (Instr.Bin (Instr.Add, Instr.Cint (Int64.of_int (eseed land 0xffff)),
          Instr.Cint 0L))
       Ty.I64);
  f

let loops_payload (f : Func.t) (n : Loopnest.t) : string =
  List.map
    (fun (l : Loopnest.loop) ->
      Printf.sprintf "loop %s depth=%d latches=%d" (Ids.loop_key f l)
        l.Loopnest.depth
        (List.length l.Loopnest.latches))
    n.Loopnest.loops
  |> List.sort String.compare |> String.concat "\n"

let count_lines s =
  if s = "" then 0
  else List.length (String.split_on_char '\n' s)

let digest ~kind ~mname ~fn ~fp ~payload ~degraded =
  Printf.sprintf "%s %s/%s fp=%s n=%d sum=%s%s" kind mname fn fp
    (count_lines payload)
    Fingerprint.(to_hex (feed seed payload))
    (if degraded then " degraded" else "")

(** Store lookup under the per-request deadline: transient shard faults
    are retried with exponential backoff (advancing the tick clock);
    past the retry budget the store is bypassed for this request. *)
let lookup_with_deadline (sv : server) key ~fp ~afp : Store.verdict option =
  let rec go attempt backoff =
    match Store.lookup sv.store key ~fp ~afp ~now:sv.now with
    | v -> Some v
    | exception Store.Transient _ ->
      Trace.incr_m "serve.retries";
      if attempt >= sv.cfg.retries then begin
        Trace.incr_m "serve.deadline_misses";
        None
      end
      else begin
        sv.now <- sv.now + backoff;
        go (attempt + 1) (backoff * 2)
      end
  in
  go 0 1

(** Shed path: budget-0 PDG over the baseline stack only — a
    conservative superset of the exact dependences at near-zero cost.
    Never persisted (a degraded graph would poison the store). *)
let shed_deps (sv : server) (mname : string) (m : Irmod.t) (f : Func.t) : answer
    =
  Trace.incr_m "serve.shed";
  let dp = Pdg.build ~budget:0 ~stack:[ Alias.baseline ] m f in
  let payload = Pdg.payload dp in
  let fp = Fingerprint.func_fp f in
  (if sv.sheds_checked < sv.cfg.shed_check then begin
     sv.sheds_checked <- sv.sheds_checked + 1;
     let mgr = Hashtbl.find sv.mgrs mname in
     let exact = Pdg.payload (Noelle.pdg mgr f) in
     let sub = Pdg.payload_deps exact
     and sup = Pdg.payload_deps payload in
     List.iter
       (fun d ->
         if not (List.mem d sup) then
           let s, t, k = d in
           sv.shed_violations <-
             Printf.sprintf "%s/%s: exact dep %d->%d %s missing from degraded"
               mname f.Func.fname s t k
             :: sv.shed_violations)
       sub
   end);
  sv.now <- sv.now + 2;
  {
    aidx = 0;
    areq = "";
    atext = digest ~kind:"deps" ~mname ~fn:f.Func.fname ~fp ~payload ~degraded:true;
    apayload = payload;
    asource = "degraded";
    adegraded = true;
  }

(** Request kind label — the latency-histogram / SLO bucket. *)
let kind_label = function
  | Workload.Edit _ -> "edit"
  | Workload.Query { qkind; _ } -> Workload.qkind_to_string qkind

(* the uninstrumented core; {!handle_request} wraps it in the request
   context (correlation id), the flight waypoint, and the per-kind
   latency histogram *)
let serve_request (sv : server) (idx : int) (req : Workload.req) : answer =
  Trace.incr_m "serve.requests";
  let finish a = { a with aidx = idx; areq = Workload.req_to_string req } in
  match req with
  | Workload.Edit { emod; efn; eseed } ->
    Trace.incr_m "serve.edits";
    let m = List.assoc emod sv.corpus in
    let f = apply_edit m ~efn ~eseed in
    Noelle.invalidate (Hashtbl.find sv.mgrs emod);
    sv.now <- sv.now + 1;
    finish
      {
        aidx = 0;
        areq = "";
        atext =
          Printf.sprintf "edit %s/%s fp=%s" emod f.Func.fname
            (Fingerprint.func_fp f);
        apayload = "";
        asource = "edit";
        adegraded = false;
      }
  | Workload.Query { qmod; qfn; qkind } ->
    Trace.incr_m "serve.queries";
    let m = List.assoc qmod sv.corpus in
    let mgr = Hashtbl.find sv.mgrs qmod in
    let f = nth_fn m qfn in
    let fn = f.Func.fname in
    let fp = Fingerprint.func_fp f in
    let kind = Workload.qkind_to_string qkind in
    (* the manager sink persists dependence artifacts under "pdg" (the
       manager-side kind); deps queries must look up the same key *)
    let store_kind =
      match qkind with Workload.Qdeps -> "pdg" | _ -> kind
    in
    let afp =
      match qkind with
      | Workload.Qdeps -> Noelle.andersen_fp mgr
      | _ -> "-"
    in
    let key =
      { Store.kmod = qmod; kshard = shard_of sv qmod m fn; kfn = fn;
        kkind = store_kind }
    in
    let verdict =
      Trace.span ~cat:"serve" "serve.phase.store_lookup" (fun () ->
          lookup_with_deadline sv key ~fp ~afp)
    in
    let store_avail = verdict <> None in
    (match verdict with
    | Some (Store.Hit payload) ->
      sv.now <- sv.now + 1;
      finish
        {
          aidx = 0;
          areq = "";
          atext = digest ~kind ~mname:qmod ~fn ~fp ~payload ~degraded:false;
          apayload = payload;
          asource = "hit";
          adegraded = false;
        }
    | Some Store.Miss_absent | Some (Store.Miss_stale _)
    | Some (Store.Miss_corrupt _) | None ->
      if sv.breaker_open && qkind = Workload.Qdeps then
        finish
          (Trace.span ~cat:"serve" "serve.phase.shed" (fun () ->
               shed_deps sv qmod m f))
      else begin
        Trace.incr_m "serve.computed";
        sv.sink_wrote := false;
        let payload =
          Trace.span ~cat:"serve" "serve.phase.recompute" (fun () ->
              match qkind with
              | Workload.Qdeps -> Pdg.payload (Noelle.pdg mgr f)
              | Workload.Qbounds -> Bounds.summary_payload (Noelle.bounds mgr f)
              | Workload.Qloops -> loops_payload f (Noelle.loopnest mgr f))
        in
        (* manager cache hit (sink silent) or kind without a sink: persist
           explicitly so the next process finds it *)
        if store_avail && not !(sv.sink_wrote) then
          Trace.span ~cat:"serve" "serve.phase.persist" (fun () ->
              Store.write sv.store key ~fp ~afp ~payload);
        sv.now <- sv.now + 4;
        finish
          {
            aidx = 0;
            areq = "";
            atext = digest ~kind ~mname:qmod ~fn ~fp ~payload ~degraded:false;
            apayload = payload;
            asource = "computed";
            adegraded = false;
          }
      end)

(** Serve one request.  May raise {!Store.Killed} (armed kill fault
    firing inside a store write): the caller recovers via {!restart}.

    Pushes the request's correlation id ([req-<idx>]) as the ambient
    request context — every span/event emitted underneath (store phases,
    manager demand entry points, Andersen/PDG/Bounds spans) is stamped
    with it — drops a [serve.request] waypoint on the always-on flight
    ring, and records the request's wall time into the per-kind
    [serve.latency_us.*] histogram. *)
let handle_request (sv : server) (idx : int) (req : Workload.req) : answer =
  let kind = kind_label req in
  Trace.with_request (Printf.sprintf "req-%d" idx) (fun () ->
      Trace.flight "serve.request"
        ~args:
          [
            ("idx", string_of_int idx); ("kind", kind);
            ("req", Workload.req_to_string req);
          ];
      let t_req = Trace.now_us () in
      let a = serve_request sv idx req in
      Trace.observe (Slo.hist_name kind)
        (Int64.of_float (Trace.now_us () -. t_req));
      a)

(* ------------------------------------------------------------------ *)
(* Rate-driven run loop: backlog, circuit breaker                      *)
(* ------------------------------------------------------------------ *)

type report = {
  rserved : int;
  rqueries : int;
  redits : int;
  rhits : int;
  rcomputed : int;
  rshed : int;
  rmax_backlog : int;
  rbreaker_opens : int;
  rrecoveries : int;
  rquarantined : int;
  rwall_ms : float;
  rrecovery_ms : float;
  ranswers : answer list;
  rviolations : string list;
}

let summarize (sv : server) (answers : answer list) ~wall_ms ~max_backlog
    ~breaker_opens : report =
  let count p = List.length (List.filter p answers) in
  {
    rserved = List.length answers;
    rqueries = count (fun a -> a.asource <> "edit");
    redits = count (fun a -> a.asource = "edit");
    rhits = count (fun a -> a.asource = "hit");
    rcomputed = count (fun a -> a.asource = "computed");
    rshed = count (fun a -> a.adegraded);
    rmax_backlog = max_backlog;
    rbreaker_opens = breaker_opens;
    rrecoveries = sv.recoveries;
    rquarantined = sv.store.Store.qcount;
    rwall_ms = wall_ms;
    rrecovery_ms = sv.recovery_ms;
    ranswers = answers;
    rviolations = sv.shed_violations;
  }

(** Run a whole workload at [rate] arrivals per tick (0. = closed-loop:
    no queueing pressure).  The breaker opens when the arrival backlog
    crosses [high_water] and closes at [low_water]; while open,
    dependence queries on store miss are shed to degraded answers.
    No faults: {!Store.Killed} does not fire without {!Store.arm}. *)
let run (sv : server) (w : Workload.t) ?(rate = 0.) () : report =
  let t0 = Trace.now_us () in
  let reqs = Array.of_list w.Workload.reqs in
  let n = Array.length reqs in
  let arrival i = if rate <= 0. then 0 else int_of_float (float_of_int i /. rate) in
  let answers = ref [] in
  let arrived = ref 0 and max_backlog = ref 0 and breaker_opens = ref 0 in
  for i = 0 to n - 1 do
    if sv.now < arrival i then sv.now <- arrival i;
    while !arrived < n && arrival !arrived <= sv.now do incr arrived done;
    (* closed-loop (rate 0): each request arrives as the previous one
       finishes — no backlog, no breaker pressure *)
    let backlog = if rate <= 0. then 0 else !arrived - i in
    if backlog > !max_backlog then max_backlog := backlog;
    if (not sv.breaker_open) && backlog >= sv.cfg.high_water then begin
      sv.breaker_open <- true;
      incr breaker_opens;
      Trace.incr_m "serve.breaker.opens"
    end
    else if sv.breaker_open && backlog <= sv.cfg.low_water then
      sv.breaker_open <- false;
    answers := handle_request sv i reqs.(i) :: !answers
  done;
  summarize sv (List.rev !answers)
    ~wall_ms:((Trace.now_us () -. t0) /. 1000.)
    ~max_backlog:!max_backlog ~breaker_opens:!breaker_opens

(** Cold run then a "process restart": remove [root], serve [w] over a
    pristine corpus with an empty store, close it, then serve [w] again
    over a second pristine corpus (fresh managers) against the same,
    now warm, store.  [corpus_of] is filtered to [w]'s modules.  Returns
    the cold and the warm report. *)
let replay ~(corpus_of : unit -> (string * Irmod.t) list) ~(root : string)
    (w : Workload.t) : report * report =
  Store.remove_tree root;
  let serve_once () =
    let sv =
      create ~root
        (List.filter (fun (n, _) -> List.mem n w.Workload.wmods) (corpus_of ()))
    in
    let r = run sv w () in
    Store.close sv.store;
    r
  in
  let cold = serve_once () in
  (cold, serve_once ())

(* ------------------------------------------------------------------ *)
(* Kill-and-recover soak gate                                          *)
(* ------------------------------------------------------------------ *)

type soak_seed = {
  sseed : int;
  sok : bool;
  skills : int;
  squarantined : int;
  srecoveries : int;
  smismatch : string option;
}

type soak_stats = {
  t_seeds : int;
  t_ok : int;
  t_kills : int;
  t_quarantined : int;
  t_recoveries : int;
  t_recovery_ms : float;
}

let compare_answers (live : answer list) (cold : answer list) : string option =
  let rec go = function
    | [], [] -> None
    | a :: la, b :: lb ->
      if a.atext <> b.atext then
        Some
          (Printf.sprintf "request %d (%s): recovered=%s cold=%s" a.aidx a.areq
             a.atext b.atext)
      else go (la, lb)
    | _ ->
      Some
        (Printf.sprintf "answer count: recovered=%d cold=%d" (List.length live)
           (List.length cold))
  in
  go (live, cold)

(** One soak seed: run the workload with the seed's fault plan armed,
    recovering from every kill; then replay the identical workload
    against a pristine corpus and a cold store; demand identical
    answers.  Raised [Trust.Tainted] fails the seed. *)
let soak_one ~(corpus_of : unit -> (string * Irmod.t) list) ~(root : string)
    ~(seed : int) ~(modules : int) ~(requests : int) : soak_seed * server =
  let names = List.map fst (corpus_of ()) in
  let mods = Workload.pick ~seed ~count:modules names in
  let select corpus = List.filter (fun (n, _) -> List.mem n mods) corpus in
  let w = Workload.generate ~seed ~mods ~requests in
  let reqs = Array.of_list w.Workload.reqs in
  let plan = Faultgen.serve_plan ~seed ~requests in
  let live_root = Filename.concat root (Printf.sprintf "seed%d" seed) in
  Store.remove_tree live_root;
  Trace.flight_reset ();
  let sv = ref (create ~root:live_root (select (corpus_of ()))) in
  let answers = ref [] and kills = ref 0 in
  let flight_errs = ref [] in
  let applied = Hashtbl.create 8 in
  let i = ref 0 in
  (try
     while !i < Array.length reqs do
       (match List.assoc_opt !i plan with
       | Some k when not (Hashtbl.mem applied !i) ->
         Hashtbl.replace applied !i ();
         Store.arm (!sv).store k ~seed:((seed * 131) + !i) ~now:(!sv).now
           ~stall_ticks:8
       | _ -> ());
       match handle_request !sv !i reqs.(!i) with
       | a ->
         answers := a :: !answers;
         incr i
       | exception Store.Killed msg ->
         incr kills;
         Trace.incr_m "serve.killed";
         (* the "process" died mid-write: dump the flight ring (what a
            trap handler would do), recover, and demand the replayed
            dump names exactly this request and kill sub-point *)
         ignore (dump_flight live_root);
         sv := restart !sv ~root:live_root;
         let rid = Printf.sprintf "req-%d" !i in
         let point =
           try Scanf.sscanf msg "kill-mid-write@%d" (fun p -> Some p)
           with _ -> None
         in
         let err fmt = Printf.ksprintf (fun s -> flight_errs := s :: !flight_errs) fmt in
         (match ((!sv).flight_replay, point) with
         | Some fi, Some p ->
           (match fi.fi_req with
           | Some (ri, rr) when ri = !i && rr = rid -> ()
           | Some (ri, rr) ->
             err "kill@req %d: flight names request %d rid=%s" !i ri rr
           | None -> err "kill@req %d: flight has no serve.request" !i);
           (match fi.fi_kill with
           | Some (kp, kr) when kp = p && kr = rid -> ()
           | Some (kp, kr) ->
             err "kill@req %d point %d: flight names point %d rid=%s" !i p kp kr
           | None -> err "kill@req %d: flight has no store.kill" !i)
         | None, _ -> err "kill@req %d: no flight dump replayed" !i
         | _, None -> err "kill@req %d: unparseable kill message %s" !i msg)
     done
   with Trust.Tainted why ->
     answers :=
       {
         aidx = !i;
         areq = "tainted";
         atext = "TAINTED " ^ why;
         apayload = "";
         asource = "tainted";
         adegraded = false;
       }
       :: !answers);
  let live = List.rev !answers in
  (* cold run: pristine corpus, empty store, no faults *)
  let cold_root = live_root ^ "-cold" in
  Store.remove_tree cold_root;
  let cv = create ~root:cold_root (select (corpus_of ())) in
  let cold = ref [] in
  Array.iteri (fun i r -> cold := handle_request cv i r :: !cold) reqs;
  let cold = List.rev !cold in
  Store.close cv.store;
  let mismatch = compare_answers live cold in
  let degraded =
    List.exists (fun a -> a.adegraded) live
    || List.exists (fun a -> a.adegraded) cold
  in
  let mismatch =
    match mismatch with
    | Some _ as m -> m
    | None -> if degraded then Some "degraded answer in fault-free run" else None
  in
  let mismatch =
    match (mismatch, List.rev !flight_errs) with
    | (Some _ as m), _ -> m
    | None, [] -> None
    | None, errs -> Some ("flight: " ^ String.concat "; " errs)
  in
  ( {
      sseed = seed;
      sok = mismatch = None;
      skills = !kills;
      squarantined = (!sv).store.Store.qcount;
      srecoveries = (!sv).recoveries;
      smismatch = mismatch;
    },
    !sv )

(** The 50-seed gate: every seed's recovered-store answers must equal
    its cold-run answers, and across the sweep at least one kill must
    actually have fired and at least one corrupt artifact must have been
    quarantined (otherwise the sweep is vacuous). *)
let soak ~(corpus_of : unit -> (string * Irmod.t) list) ~(root : string)
    ~(seeds : int) ~(modules : int) ~(requests : int) ~(progress : string -> unit)
    () : bool * soak_stats * soak_seed list =
  let results = ref [] and recovery_ms = ref 0. in
  for seed = 0 to seeds - 1 do
    let r, sv = soak_one ~corpus_of ~root ~seed ~modules ~requests in
    recovery_ms := !recovery_ms +. sv.recovery_ms;
    Store.close sv.store;
    results := r :: !results;
    progress
      (Printf.sprintf "seed %2d: %s kills=%d quarantined=%d recoveries=%d%s"
         seed
         (if r.sok then "ok " else "FAIL")
         r.skills r.squarantined r.srecoveries
         (match r.smismatch with None -> "" | Some m -> " | " ^ m))
  done;
  let results = List.rev !results in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 results in
  let stats =
    {
      t_seeds = seeds;
      t_ok = sum (fun r -> if r.sok then 1 else 0);
      t_kills = sum (fun r -> r.skills);
      t_quarantined = sum (fun r -> r.squarantined);
      t_recoveries = sum (fun r -> r.srecoveries);
      t_recovery_ms = !recovery_ms;
    }
  in
  let ok =
    stats.t_ok = seeds
    && (seeds < 5 || (stats.t_kills > 0 && stats.t_quarantined > 0))
  in
  (ok, stats, results)

(* ------------------------------------------------------------------ *)
(* Overload gate                                                       *)
(* ------------------------------------------------------------------ *)

(** High-traffic run: arrivals outpace service, the breaker must open
    and shed dependence queries to degraded-conservative answers.  The
    gate cross-checks the first [shed_check] degraded answers against
    the exact PDG (degraded must be a superset — never wrong, only
    coarser) and demands every request was still served. *)
let overload ~(corpus_of : unit -> (string * Irmod.t) list) ~(root : string)
    ~(seed : int) ~(modules : int) ~(requests : int) () : bool * report =
  let mods = Workload.pick ~seed ~count:modules (List.map fst (corpus_of ())) in
  let w = Workload.generate ~seed ~mods ~requests in
  let over_root = Filename.concat root (Printf.sprintf "overload%d" seed) in
  Store.remove_tree over_root;
  let cfg =
    { default_config with high_water = 12; low_water = 4; shed_check = 25 }
  in
  let sv =
    create ~cfg ~root:over_root
      (List.filter (fun (n, _) -> List.mem n mods) (corpus_of ()))
  in
  let r = run sv w ~rate:2.5 () in
  Store.close sv.store;
  let ok =
    r.rserved = requests && r.rbreaker_opens >= 1 && r.rshed > 0
    && r.rhits > 0 && r.rviolations = []
  in
  (ok, r)
