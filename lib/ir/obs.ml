(** Observable-event traces: the semantic oracle behind every
    differential gate (DESIGN.md §12).

    Running a module under {!attach} produces a canonical event stream —
    external/builtin calls with their arguments, stores to *escaping*
    memory (objects reachable from globals or the entry's return value,
    per {!Andersen}), and a distinct terminal event (normal exit, trap,
    fuel exhaustion).  {!run} is the one function that runs a module
    under a recorder, and {!compare} the one comparator every
    differential check uses: it demands the same legacy result (exit
    value and text output) and trace equivalence modulo a {!license}:
    the commutations a transformation is entitled to make.  DOALL may
    permute whole independent iterations' event blocks, DSWP may buffer
    events across stages but must keep per-stage program order, Helix
    must keep its sequential segments in sequential order; cleanups get
    no license at all.  An unlicensed reorder yields a minimal event-diff
    witness.

    Values inside events are rendered abstractly: pointers are shown
    relative to the escaped object they fall in ([&heap#0+3], [&@g]) or
    as [&_] when they point at non-escaping memory, so traces stay
    comparable across modules whose allocation order differs. *)

(* ------------------------------------------------------------------ *)
(* Events                                                              *)
(* ------------------------------------------------------------------ *)

type action =
  | Call of { callee : string; cargs : string list }
      (** observable builtin call with rendered arguments *)
  | Store of { sobj : string; soff : int; svalue : string }
      (** store into escaping memory: object name, word offset, value *)
  | Exit of string            (** normal termination with rendered result *)
  | Trapped of string         (** abnormal termination; compared by class *)
  | Out_of_fuel               (** fuel exhaustion is NOT a behaviour *)
  | Truncated                 (** recorder hit its event cap *)

type event = {
  etask : int;      (** Psim task id, [-1] for the sequential context *)
  esection : int;   (** Psim parallel-section ordinal, [-1] outside *)
  eseq : bool;      (** emitted inside a Helix sequential segment *)
  eact : action;
}

type trace = event list

(** Canonical comparison key.  Traps compare by class, not message —
    messages carry instruction ids that legitimately shift across
    transformations. *)
let action_key = function
  | Call { callee; cargs } ->
    Printf.sprintf "call %s(%s)" callee (String.concat ", " cargs)
  | Store { sobj; soff; svalue } ->
    Printf.sprintf "store %s[%d] = %s" sobj soff svalue
  | Exit v -> "exit " ^ v
  | Trapped _ -> "trap"
  | Out_of_fuel -> "out-of-fuel"
  | Truncated -> "truncated"

let action_display = function
  | Trapped msg -> "trap: " ^ msg
  | a -> action_key a

let event_display e =
  if e.etask < 0 then action_display e.eact
  else
    Printf.sprintf "[task %d%s] %s" e.etask
      (if e.eseq then " seq" else "")
      (action_display e.eact)

(* ------------------------------------------------------------------ *)
(* Escape analysis: which allocation sites are observable?             *)
(* ------------------------------------------------------------------ *)

type sites = (string * int, unit) Hashtbl.t

(** Allocation sites (function name, inst id of the alloca/malloc) whose
    objects escape: transitively reachable from a global's memory or
    from the entry point's return value.  Globals themselves are always
    observable and are handled by name in {!attach}.  A degraded
    (budget-exhausted) points-to solution yields no sites, which only
    makes the trace coarser, never wrong-er than the legacy output
    compare. *)
let escape_sites ?(entry = "main") (m : Irmod.t) : sites =
  let a = Andersen.analyze m in
  let sites : sites = Hashtbl.create 16 in
  let seen = Hashtbl.create 16 in
  let q = Queue.create () in
  let push o =
    if not (Hashtbl.mem seen o) then begin
      Hashtbl.replace seen o ();
      Queue.add o q;
      match o with
      | Andersen.Oalloca (fn, id) | Andersen.Omalloc (fn, id) ->
        Hashtbl.replace sites (fn, id) ()
      | _ -> ()
    end
  in
  List.iter
    (fun (g : Irmod.global) ->
      Andersen.ObjSet.iter push
        (Andersen.pts_of a (Andersen.Vmem (Andersen.Oglob g.Irmod.gname))))
    (Irmod.globals m);
  Andersen.ObjSet.iter push (Andersen.pts_of a (Andersen.Vret entry));
  while not (Queue.is_empty q) do
    let o = Queue.pop q in
    Andersen.ObjSet.iter push (Andersen.pts_of a (Andersen.Vmem o))
  done;
  sites

(* ------------------------------------------------------------------ *)
(* Recorder                                                            *)
(* ------------------------------------------------------------------ *)

type recorder = {
  mutable rev : event list;   (** newest first *)
  mutable count : int;
  mutable truncated : bool;
  cap : int;
  mutable task : int;         (** current context, set by the Psim runtime *)
  mutable section : int;
  seq_tasks : (int, unit) Hashtbl.t;
      (** tasks currently inside a Helix sequential segment *)
  allocs : Interp.alloc_index;
      (** the state's allocations; a named one is observable *)
  mutable heap_ordinal : int;
}

(* the builtins whose calls are events *)
let observable = [ "print"; "print_float" ]

let emit r act =
  if r.count >= r.cap then begin
    if not r.truncated then begin
      r.truncated <- true;
      r.rev <-
        { etask = r.task; esection = r.section; eseq = false; eact = Truncated }
        :: r.rev;
      r.count <- r.count + 1
    end
  end
  else begin
    r.rev <-
      {
        etask = r.task;
        esection = r.section;
        eseq = Hashtbl.mem r.seq_tasks r.task;
        eact = act;
      }
      :: r.rev;
    r.count <- r.count + 1
  end

(* the index of the named allocation covering [addr], or -1 *)
let observed r addr =
  let k = Interp.covering r.allocs addr in
  if k >= 0 && r.allocs.Interp.recs.(k).Interp.name <> "" then k else -1

(** Render a value for an event.  Pointers are object-relative so traces
    compare across modules with different allocation order. *)
let render r (v : Interp.v) =
  match v with
  | Interp.VI n -> Int64.to_string n
  | Interp.VF f -> Printf.sprintf "%.6g" f
  | Interp.VP 0 -> "null"
  | Interp.VP p ->
    let k = observed r p in
    if k < 0 then "&_"
    else
      let { Interp.base; name; _ } = r.allocs.Interp.recs.(k) in
      if p = base then "&" ^ name else Printf.sprintf "&%s+%d" name (p - base)

(** Hook a recorder into an interpreter state: it chains the existing
    [on_alloc] and [on_store] hooks, installs no per-instruction hook,
    and records I/O by wrapping each [observable] builtin in place (a
    builtin registered later replaces the wrapper unless it calls the
    one it replaces).  Observable memory is named on the interpreter's
    own allocation records ({!Interp.alloc}): each global by its name,
    found by base, and each allocation that [sites] lists by a heap
    ordinal as it is made.  [sites] are the escaping allocation sites of
    the module being run ({!escape_sites}); an allocation is attributed
    to the site the interpreter recorded for it ([site_fn]/[site_id]).
    A store into a named allocation is an event; a pointer into an
    unnamed one renders as [&_]. *)
let attach ~(sites : sites) (st : Interp.state) : recorder =
  let r =
    {
      rev = [];
      count = 0;
      truncated = false;
      cap = 1_000_000;
      task = -1;
      section = -1;
      seq_tasks = Hashtbl.create 4;
      allocs = st.Interp.by_base;
      heap_ordinal = 0;
    }
  in
  (* globals are always observable *)
  Hashtbl.iter
    (fun g base ->
      let k = Interp.alloc_at r.allocs base in
      if k >= 0 then r.allocs.Interp.recs.(k).Interp.name <- "@" ^ g)
    st.Interp.global_addr;
  let h = st.Interp.hooks in
  (* escaping heap objects get stable ordinal names *)
  let prev_alloc = h.Interp.on_alloc in
  h.Interp.on_alloc <-
    Some
      (fun a ->
        (match prev_alloc with Some g -> g a | None -> ());
        if st.Interp.site_id >= 0 && Hashtbl.mem sites (st.Interp.site_fn, st.Interp.site_id)
        then begin
          a.Interp.name <- Printf.sprintf "heap#%d" r.heap_ordinal;
          r.heap_ordinal <- r.heap_ordinal + 1
        end);
  let prev_store = h.Interp.on_store in
  h.Interp.on_store <-
    Some
      (fun f i ~addr ->
        (match prev_store with Some g -> g f i ~addr | None -> ());
        let k = observed r addr in
        if k >= 0 then
          let { Interp.base; name; _ } = r.allocs.Interp.recs.(k) in
          emit r
            (Store
               { sobj = name; soff = addr - base;
                 svalue = render r (Interp.load_word st addr) }));
  List.iter
    (fun name ->
      match Hashtbl.find_opt st.Interp.builtins name with
      | Some b ->
        Interp.register_builtin st name (fun st args ->
            emit r (Call { callee = name; cargs = List.map (render r) args });
            b st args)
      | None -> ())
    observable;
  Trace.touch "obs.events";
  r

let events r : trace = List.rev r.rev
let length r = r.count

(** Roll the recorder back to [k] events — the Psim runtime restores it
    together with memory when a section retries. *)
let truncate r k =
  while r.count > k do
    (match r.rev with
    | { eact = Truncated; _ } :: tl ->
      r.truncated <- false;
      r.rev <- tl
    | _ :: tl -> r.rev <- tl
    | [] -> ());
    r.count <- r.count - 1
  done

let has_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(** Classify a trap message into a terminal event. *)
let terminal_of_trap msg =
  if has_sub msg "out of fuel" then Out_of_fuel else Trapped msg

(** Append the terminal event (always from the sequential context) and
    flush the event count into telemetry. *)
let finish r (term : action) =
  r.task <- -1;
  r.section <- -1;
  emit r term;
  Trace.add "obs.events" r.count

(* ------------------------------------------------------------------ *)
(* Commutation licenses                                                *)
(* ------------------------------------------------------------------ *)

type license =
  | Exact              (** cleanups: the trace must match event for event *)
  | Permute_iterations (** DOALL: whole iteration blocks may interleave *)
  | Buffer_stages      (** DSWP: stages may buffer; per-stage order holds *)
  | Seq_segments       (** Helix: sequential segments keep global order *)

let license_to_string = function
  | Exact -> "exact"
  | Permute_iterations -> "permute-iterations"
  | Buffer_stages -> "buffer-stages"
  | Seq_segments -> "seq-segments"

(** Least upper bound: the license a gate must grant once passes with
    [a] and [b] have both committed.  [Exact] is the identity; mixing
    two distinct concurrent licenses keeps only what they share — each
    task's stream stays in sequential order. *)
let join a b =
  if a = b then a
  else
    match (a, b) with
    | Exact, x | x, Exact -> x
    | _ -> Permute_iterations

(* ------------------------------------------------------------------ *)
(* Trace equivalence                                                   *)
(* ------------------------------------------------------------------ *)

(** A rejected comparison: one-line reason plus a minimal event-diff
    witness (indented display lines). *)
type mismatch = string * string list

let check_exact (reference : trace) (candidate : trace) :
    (unit, mismatch) result =
  let ra = Array.of_list reference and ca = Array.of_list candidate in
  let n = min (Array.length ra) (Array.length ca) in
  let rec first i =
    if i >= n then
      if Array.length ra = Array.length ca then None else Some n
    else if action_key ra.(i).eact = action_key ca.(i).eact then first (i + 1)
    else Some i
  in
  match first 0 with
  | None -> Ok ()
  | Some i ->
    let lines = ref [] in
    let addl s = lines := s :: !lines in
    for j = max 0 (i - 2) to i - 1 do
      addl (Printf.sprintf "  = [%d] %s" j (event_display ra.(j)))
    done;
    if i < Array.length ra then
      addl (Printf.sprintf "  - [%d] %s" i (event_display ra.(i)))
    else addl (Printf.sprintf "  - [%d] <end of reference trace>" i);
    if i < Array.length ca then
      addl (Printf.sprintf "  + [%d] %s" i (event_display ca.(i)))
    else addl (Printf.sprintf "  + [%d] <end of candidate trace>" i);
    Error
      (Printf.sprintf "trace diverges at event %d" i,
       List.rev !lines)

let multiset (t : trace) =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun e ->
      let k = action_key e.eact in
      Hashtbl.replace tbl k (1 + (try Hashtbl.find tbl k with Not_found -> 0)))
    t;
  tbl

(** Concurrent core: the candidate must perform exactly the reference's
    multiset of actions, and each task's stream (plus, for Helix, the
    merged sequential-segment stream) must be a subsequence of the
    reference — i.e. only cross-task interleaving is licensed, never a
    reorder within one task. *)
let check_concurrent ~seq_order (reference : trace) (candidate : trace) :
    (unit, mismatch) result =
  let mr = multiset reference and mc = multiset candidate in
  let diff = ref [] in
  Hashtbl.iter
    (fun k n ->
      let m = try Hashtbl.find mc k with Not_found -> 0 in
      if m < n then
        diff :=
          Printf.sprintf "  - %s (x%d in reference, x%d in candidate)" k n m
          :: !diff)
    mr;
  Hashtbl.iter
    (fun k m ->
      let n = try Hashtbl.find mr k with Not_found -> 0 in
      if m > n then
        diff :=
          Printf.sprintf "  + %s (x%d in reference, x%d in candidate)" k n m
          :: !diff)
    mc;
  if !diff <> [] then Error ("event multisets differ", List.sort compare !diff)
  else begin
    let rkeys = Array.of_list (List.map (fun e -> action_key e.eact) reference) in
    let check_stream label (evs : event list) =
      let pos = ref 0 in
      let last = ref None in
      let bad = ref None in
      List.iter
        (fun e ->
          if !bad = None then begin
            let k = action_key e.eact in
            let p = ref !pos in
            while !p < Array.length rkeys && rkeys.(!p) <> k do
              incr p
            done;
            if !p >= Array.length rkeys then bad := Some (e, !last)
            else begin
              last := Some (k, !p);
              pos := !p + 1
            end
          end)
        evs;
      match !bad with
      | None -> Ok ()
      | Some (e, last) ->
        Error
          (Printf.sprintf "unlicensed reorder in %s" label,
           Printf.sprintf "  %s emits  %s" label (action_display e.eact)
           ::
           (match last with
           | Some (pk, pi) ->
             [
               Printf.sprintf "  after    %s (reference event %d)" pk pi;
               "  but the reference has no later occurrence of that action";
             ]
           | None ->
             [ "  but the reference never performs that action" ]))
    in
    (* group candidate events by task, preserving per-task order *)
    let order = ref [] in
    let byt = Hashtbl.create 8 in
    List.iter
      (fun e ->
        if not (Hashtbl.mem byt e.etask) then order := e.etask :: !order;
        Hashtbl.replace byt e.etask
          (e :: (try Hashtbl.find byt e.etask with Not_found -> [])))
      candidate;
    let tasks = List.rev !order in
    let rec per_task = function
      | [] -> Ok ()
      | t :: tl -> (
        let label =
          if t < 0 then "the sequential context" else Printf.sprintf "task %d" t
        in
        match check_stream label (List.rev (Hashtbl.find byt t)) with
        | Ok () -> per_task tl
        | Error _ as e -> e)
    in
    match per_task tasks with
    | Error _ as e -> e
    | Ok () ->
      if not seq_order then Ok ()
      else
        (* Helix: the merged stream of sequential-segment events must
           itself stay in sequential order *)
        check_stream "the sequential segments"
          (List.filter (fun e -> e.eseq) candidate)
  end

(** Trace equivalence modulo [license].  [Ok ()] or a minimal witness. *)
let check ~license ~(reference : trace) ~(candidate : trace) :
    (unit, mismatch) result =
  Trace.incr_m "obs.trace_compares";
  let res =
    match license with
    | Exact -> check_exact reference candidate
    | Permute_iterations | Buffer_stages ->
      check_concurrent ~seq_order:false reference candidate
    | Seq_segments -> check_concurrent ~seq_order:true reference candidate
  in
  (match res with
  | Error _ -> Trace.incr_m "obs.reorders_rejected"
  | Ok () -> ());
  res

(* ------------------------------------------------------------------ *)
(* The behaviour oracle                                                *)
(* ------------------------------------------------------------------ *)

(** One observed run: what every differential check compares.  [result]
    is the legacy observable, [Ok "exit=<v>\n<output>"] or the trap
    message; [trace] is the event stream; [clock] is the interpreter's
    virtual clock at the end (dynamic instructions sequentially, cycles
    under the Psim runtime). *)
type behaviour = {
  result : (string, string) result;
  trace : trace;
  clock : int64;
}

(** Run [m]'s [entry] under a fresh recorder.  [install] sees the fresh
    state and its recorder before the call: the Psim runtime registers its
    builtins there and keeps the recorder to tag events with their task. *)
let run ?entry ?args ?fuel ?(install = fun _ _ -> ()) (m : Irmod.t) : behaviour =
  let sites = escape_sites ?entry m in
  let run =
    Interp.start ?entry ?args ?fuel m ~configure:(fun st ->
        let r = attach ~sites st in
        install st r;
        r)
  in
  let r = run.Interp.setup in
  let result =
    match run.Interp.outcome with
    | Ok v ->
      finish r (Exit (render r v));
      Ok (Printf.sprintf "exit=%s\n%s" (Interp.v_to_string v) (Interp.output run))
    | Error (Interp.Trap msg) ->
      finish r (terminal_of_trap msg);
      Error msg
    | Error e -> raise e
  in
  { result; trace = events r; clock = Interp.clock run }

let fuel_exhausted b =
  match b.result with Error msg -> has_sub msg "out of fuel" | Ok _ -> false

let describe_result res =
  let clip s =
    let s = String.map (function '\n' -> ' ' | c -> c) s in
    if String.length s <= 80 then s else String.sub s 0 77 ^ "..."
  in
  match res with
  | Ok s -> Printf.sprintf "ok %S" (clip s)
  | Error msg -> Printf.sprintf "trap %S" (clip msg)

(** Compare a candidate run against the reference run on the same input.

    Fuel exhaustion is decided first: a candidate that ran out of fuel
    where the reference did not is [`Timed_out], a resource verdict and
    never a behavioural mismatch, and two runs that both ran out are
    equal by convention (their traces are incomparable prefixes).
    Otherwise the legacy results must be identical (trapping runs compare
    by trap class, since messages carry instruction ids that shift under
    transformation) {e and} the traces equivalent modulo [license]
    ({!check}); a trace rejection carries its minimal event-diff
    witness. *)
let compare ~license (reference : behaviour) (candidate : behaviour) =
  if fuel_exhausted candidate && not (fuel_exhausted reference) then
    `Timed_out
      (Printf.sprintf "ran out of fuel (reference %s)"
         (describe_result reference.result))
  else if fuel_exhausted reference && fuel_exhausted candidate then `Equal
  else if
    match (reference.result, candidate.result) with
    | Ok a, Ok b -> not (String.equal a b)
    | Error _, Error _ -> fuel_exhausted reference
    | _ -> true
  then
    `Mismatch
      ( Printf.sprintf "expected %s, got %s"
          (describe_result reference.result)
          (describe_result candidate.result),
        [] )
  else
    match check ~license ~reference:reference.trace ~candidate:candidate.trace with
    | Ok () -> `Equal
    | Error (reason, witness) ->
      `Mismatch
        (Printf.sprintf "%s (license: %s)" reason (license_to_string license), witness)
