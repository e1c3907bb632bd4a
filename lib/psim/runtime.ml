(** Parallel-execution runtime and multicore simulator.

    This is the reproduction's stand-in for the paper's 12-core Xeon: it
    executes the task functions emitted by the parallelizing custom tools
    (DOALL / HELIX / DSWP) as deterministic fibers (OCaml effect handlers)
    over the IR interpreter, while accounting {e virtual time}:

    - every executed IR instruction costs one cycle on its virtual core;
    - queue pushes and signal sets stamp their data with the producer's
      clock plus the core-to-core latency from {!Noelle.Arch};
    - queue pops and signal waits advance the consumer's clock to the
      stamp (communication/stall cost);
    - task spawn and join pay fixed thread-pool overheads.

    The result is a discrete-event simulation whose sequential semantics
    are exact (the tests compare program outputs against the unparallelized
    original) and whose timing reproduces the cost trade-offs each
    technique makes, which is what Figure 5 measures.

    Cycles are [int]s inside the runtime, as the interpreter's clock is;
    the measurement entry points return them as [int64]. *)

open Ir

type _ Effect.t += Block : (unit -> bool) -> unit Effect.t

(** Cost model (cycles). *)
let spawn_cost = 400
let join_cost = 400

type task = {
  tid : int;
  fname : string;
  targs : Interp.v list;
  mutable clock : int;
  mutable ran : int;       (** steps executed in the current attempt *)
  mutable dies_at : int;   (** step count at which a fault plan kills it *)
}

(* the scheduler's "no task running" context *)
let no_task = { tid = -1; fname = ""; targs = []; clock = 0; ran = 0; dies_at = max_int }

(* ------------------------------------------------------------------ *)
(* Fault injection                                                     *)
(* ------------------------------------------------------------------ *)

(** A plan for injected task failures.  [death ~tid ~attempt] is [Some n]
    when task [tid] must die after executing [n] instructions on its
    [attempt]-th run of a parallel section (attempts count from 1).
    A deterministic plan makes every failure replayable. *)
type fault = {
  death : tid:int -> attempt:int -> int64 option;
  max_restarts : int; (** section restarts allowed before giving up *)
}

exception Task_failure of int
(** Raised inside a dying fiber, carrying its tid. *)

exception Parallel_failed of string
(** A parallel section exceeded its restart budget. *)

(** Transient failures drawn from [seed]: roughly one task in [rate] dies
    partway through its first attempt; re-execution always succeeds. *)
let seeded_fault ?(max_restarts = 2) ?(rate = 3) ~seed () : fault =
  {
    max_restarts;
    death =
      (fun ~tid ~attempt ->
        if attempt > 1 then None
        else begin
          let h =
            ref (Int64.add (Int64.mul (Int64.of_int (seed + 1)) 2654435761L)
                   (Int64.mul (Int64.of_int (tid + 1)) 40503L))
          in
          let draw () =
            h := Int64.add (Int64.mul !h 6364136223846793005L) 1442695040888963407L;
            Int64.to_int (Int64.shift_right_logical !h 33)
          in
          if draw () mod max 1 rate = 0 then Some (Int64.of_int (20 + (draw () mod 400)))
          else None
        end);
  }

(** A persistent fault: task [tid] dies early on {e every} attempt, forcing
    the restart budget to run out (exercises the sequential fallback). *)
let persistent_fault ?(max_restarts = 2) ~tid () : fault =
  { max_restarts; death = (fun ~tid:t ~attempt:_ -> if t = tid then Some 10L else None) }

(** Structured task dispositions: what happened to each task of a parallel
    section, per attempt.  These replace the old [(tid, attempt, string)]
    log — {!render_event} reproduces its text exactly, and the Chrome
    trace gets the same facts as span/instant tags. *)
type task_event =
  | Task_ok of { tid : int; attempt : int }
      (** the task ran to completion on this attempt *)
  | Task_died of { tid : int; attempt : int; cycle : int64 }
      (** an injected fault killed the task at the given virtual cycle *)
  | Section_abandoned of { reason : string }
      (** the whole section exhausted its restart budget *)

(** The old text form of one disposition, byte-compatible with the string
    log this type replaced. *)
let render_event = function
  | Task_ok { tid; attempt } -> Printf.sprintf "task %d attempt %d: ok" tid attempt
  | Task_died { tid; attempt; cycle } ->
    Printf.sprintf "task %d attempt %d: died at cycle %Ld" tid attempt cycle
  | Section_abandoned { reason } ->
    Printf.sprintf "task -1 attempt 0: section abandoned: %s" reason

type t = {
  st : Interp.state;
  mutable latency : int;             (** core-to-core latency *)
  mutable pending : task list;       (** submitted, not yet run *)
  queues : (int, (int * Interp.v) Queue.t) Hashtbl.t;
  sigs : (int, int64 ref * int ref) Hashtbl.t;  (** value, availability stamp *)
  mutable next_handle : int;
  mutable next_tid : int;
  (* statistics *)
  mutable sections : int;            (** parallel sections executed *)
  mutable par_cycles : int;          (** cycles spent inside parallel sections *)
  mutable tasks_executed : int;
  (* resilience *)
  mutable fault : fault option;
  mutable restarts : int;            (** section restarts performed *)
  mutable task_log : task_event list;  (** dispositions, most recent first *)
  (* observability *)
  mutable recorder : Obs.recorder option;
      (** when set, the scheduler tags every observable event with the
          running task / section, and {!sig_wait}/{!sig_set} bracket
          Helix sequential segments (DESIGN.md §12) *)
}


(** Per-task disposition log in chronological order. *)
let dispositions (t : t) = List.rev t.task_log

let dispositions_to_string (log : task_event list) =
  String.concat "\n" (List.map render_event log)

(* ------------------------------------------------------------------ *)
(* Fiber scheduler                                                     *)
(* ------------------------------------------------------------------ *)

type status =
  | Done
  | Blocked of (unit -> bool) * (unit, status) Effect.Deep.continuation

(* A checkpoint of everything a parallel section can mutate, so a section
   whose task died can be re-executed from scratch (retry-with-re-execution
   needs a clean slate: DSWP queue pops are destructive). *)
type section_snap = {
  s_mem : Interp.words;
  s_brk : int;
  s_allocs : Interp.alloc_index;
  s_out_len : int;
  s_steps : int;
  s_fuel : int;
  s_clock : int;
  s_rng : int64;
  s_user : (string, int64) Hashtbl.t;
  s_queues : (int, (int * Interp.v) Queue.t) Hashtbl.t;
  s_sigs : (int, int64 * int) Hashtbl.t;
  s_next_handle : int;
  s_next_tid : int;
  s_obs_len : int;  (** recorder length: retries roll events back too *)
}

let snapshot_section (r : t) : section_snap =
  let st = r.st in
  let user = Hashtbl.copy st.Interp.user in
  let queues = Hashtbl.create (Hashtbl.length r.queues) in
  Hashtbl.iter (fun k q -> Hashtbl.replace queues k (Queue.copy q)) r.queues;
  let sigs = Hashtbl.create (Hashtbl.length r.sigs) in
  Hashtbl.iter (fun k (v, stamp) -> Hashtbl.replace sigs k (!v, !stamp)) r.sigs;
  {
    s_mem = Interp.copy_words st.Interp.mem;
    s_brk = st.Interp.brk;
    s_allocs = Interp.save_allocs st;
    s_out_len = Buffer.length st.Interp.output;
    s_steps = st.Interp.steps;
    s_fuel = st.Interp.fuel;
    s_clock = st.Interp.clock;
    s_rng = st.Interp.rng;
    s_user = user;
    s_queues = queues;
    s_sigs = sigs;
    s_next_handle = r.next_handle;
    s_next_tid = r.next_tid;
    s_obs_len = (match r.recorder with Some rc -> Obs.length rc | None -> 0);
  }

let restore_section (r : t) (s : section_snap) =
  let st = r.st in
  st.Interp.mem <- Interp.copy_words s.s_mem;
  st.Interp.brk <- s.s_brk;
  Interp.restore_allocs st s.s_allocs;
  Buffer.truncate st.Interp.output s.s_out_len;
  st.Interp.steps <- s.s_steps;
  st.Interp.fuel <- s.s_fuel;
  st.Interp.clock <- s.s_clock;
  st.Interp.rng <- s.s_rng;
  Hashtbl.reset st.Interp.user;
  Hashtbl.iter (Hashtbl.replace st.Interp.user) s.s_user;
  Hashtbl.reset r.queues;
  Hashtbl.iter (fun k q -> Hashtbl.replace r.queues k (Queue.copy q)) s.s_queues;
  Hashtbl.reset r.sigs;
  Hashtbl.iter (fun k (v, stamp) -> Hashtbl.replace r.sigs k (ref v, ref stamp)) s.s_sigs;
  r.next_handle <- s.s_next_handle;
  r.next_tid <- s.s_next_tid;
  match r.recorder with
  | Some rc -> Obs.truncate rc s.s_obs_len
  | None -> ()

(** Run one parallel section to completion.  When [death] is given, each
    task's death point is drawn once, and an [int] step counter per task
    drives injected failures: the doomed fiber raises {!Task_failure}
    mid-flight. *)
let run_section (r : t) ?death ?(attempt = 1) (tasks : task list) =
  let caller_clock = r.st.Interp.clock in
  let sp =
    Trace.begin_span ~cat:"psim"
      ~args:
        [ ("tasks", string_of_int (List.length tasks)); ("attempt", string_of_int attempt) ]
      "psim.section"
  in
  (* per-task wall start and starting virtual clock, for Chrome complete
     events; fibers interleave so the span stack cannot express them *)
  let task_start : (int, float * int) Hashtbl.t = Hashtbl.create 8 in
  (* seed task clocks: the pool pays a spawn cost per task *)
  List.iteri (fun i t -> t.clock <- caller_clock + (spawn_cost * (i + 1))) tasks;
  let current = ref no_task in
  (* tag observable events with the running task and this section's
     ordinal (stable across retries: completed sections only) *)
  let sec = r.sections in
  let set_ctx (t : task) =
    current := t;
    let tid = t.tid in
    match r.recorder with
    | Some rc ->
      rc.Obs.task <- tid;
      rc.Obs.section <- (if tid < 0 then -1 else sec)
    | None -> ()
  in
  let old_inst = r.st.Interp.hooks.Interp.on_inst in
  let restore_hook () = r.st.Interp.hooks.Interp.on_inst <- old_inst in
  (match death with
  | None -> ()
  | Some death ->
    List.iter
      (fun t ->
        t.ran <- 0;
        t.dies_at <-
          (match death ~tid:t.tid with Some n -> Int64.to_int n | None -> max_int))
      tasks;
    r.st.Interp.hooks.Interp.on_inst <-
      Some
        (fun f i ->
          (match old_inst with Some h -> h f i | None -> ());
          let t = !current in
          if t.tid >= 0 then begin
            t.ran <- t.ran + 1;
            if t.ran >= t.dies_at then raise (Task_failure t.tid)
          end));
  let start (t : task) : status =
    Effect.Deep.match_with
      (fun () ->
        ignore (Interp.call r.st t.fname t.targs);
        Done)
      ()
      {
        Effect.Deep.retc = (fun s -> s);
        exnc = (fun e -> raise e);
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Block cond ->
              Some
                (fun (k : (a, status) Effect.Deep.continuation) ->
                  Blocked (cond, k))
            | _ -> None);
      }
  in
  (* round-robin over runnable fibers, swapping the interpreter's clock *)
  let states : (task * status option ref) list =
    List.map (fun t -> (t, ref None)) tasks
  in
  let unfinished () =
    List.exists (fun (_, s) -> match !s with Some Done -> false | _ -> true) states
  in
  try
    while unfinished () do
      let progressed = ref false in
      List.iter
        (fun ((t : task), s) ->
          match !s with
          | Some Done -> ()
          | None ->
            if Trace.enabled () then
              Hashtbl.replace task_start t.tid (Trace.now_us (), t.clock);
            r.st.Interp.clock <- t.clock;
            set_ctx t;
            let st' = start t in
            set_ctx no_task;
            t.clock <- r.st.Interp.clock;
            s := Some st';
            progressed := true
          | Some (Blocked (cond, k)) ->
            if cond () then begin
              r.st.Interp.clock <- t.clock;
              set_ctx t;
              let st' = Effect.Deep.continue k () in
              set_ctx no_task;
              t.clock <- r.st.Interp.clock;
              s := Some st';
              progressed := true
            end)
        states;
      if not !progressed then
        Interp.trap "parallel runtime deadlock: %d tasks blocked"
          (List.length (List.filter (fun (_, s) -> !s <> Some Done) states))
    done;
    restore_hook ();
    let finish = List.fold_left (fun acc (t : task) -> max acc t.clock) caller_clock tasks in
    r.st.Interp.clock <- finish + join_cost;
    r.sections <- r.sections + 1;
    r.par_cycles <- r.par_cycles + (r.st.Interp.clock - caller_clock);
    r.tasks_executed <- r.tasks_executed + List.length tasks;
    (* task_start is only populated under tracing, so this is free when off *)
    List.iter
      (fun (t : task) ->
        match Hashtbl.find_opt task_start t.tid with
        | None -> ()
        | Some (start_us, clock0) ->
          let cycles = t.clock - clock0 in
          Trace.add "psim.task.cycles" cycles;
          Trace.complete ~cat:"psim" ~tid:(1 + t.tid) ~start_us
            ~args:
              [ ("fname", t.fname);
                ("attempt", string_of_int attempt);
                ("cycles", string_of_int cycles);
              ]
            ("task:" ^ t.fname))
      tasks;
    Trace.incr_m "psim.sections";
    Trace.add "psim.tasks" (List.length tasks);
    Trace.end_span
      ~args:
        [ ("outcome", "ok");
          ("section_cycles", string_of_int (r.st.Interp.clock - caller_clock));
        ]
      sp
  with Task_failure tid ->
    Trace.incr_m "psim.task.deaths";
    Trace.end_span ~args:[ ("outcome", "died"); ("task", string_of_int tid) ] sp;
    restore_hook ();
    set_ctx no_task;
    (* unwind every still-suspended fiber so its frames are discarded *)
    List.iter
      (fun (_, s) ->
        match !s with
        | Some (Blocked (_, k)) -> (
          try ignore (Effect.Deep.discontinue k (Task_failure (-1))) with _ -> ())
        | _ -> ())
      states;
    raise (Task_failure tid)

(** Run a section, retrying on injected task failures when a fault plan is
    armed: every retry re-executes the {e whole} section from a checkpoint
    (queue pops are destructive, so per-task restart would be unsound).
    After [max_restarts] restarts the section raises {!Parallel_failed}. *)
let run_tasks (r : t) (tasks : task list) =
  match r.fault with
  | None -> run_section r tasks
  | Some fault ->
    let snap = snapshot_section r in
    let rec go attempt =
      match run_section r ~death:(fun ~tid -> fault.death ~tid ~attempt) ~attempt tasks with
      | () ->
        List.iter
          (fun (t : task) -> r.task_log <- Task_ok { tid = t.tid; attempt } :: r.task_log)
          tasks
      | exception Task_failure tid ->
        r.task_log <-
          Task_died { tid; attempt; cycle = Int64.of_int r.st.Interp.clock } :: r.task_log;
        restore_section r snap;
        if attempt >= 1 + fault.max_restarts then
          raise
            (Parallel_failed
               (Printf.sprintf "task %d still dying after %d attempts (%d restarts)" tid
                  attempt (attempt - 1)))
        else begin
          r.restarts <- r.restarts + 1;
          Trace.incr_m "psim.task.restarts";
          go (attempt + 1)
        end
    in
    go 1

(* ------------------------------------------------------------------ *)
(* Builtins                                                            *)
(* ------------------------------------------------------------------ *)

let install ?(arch : Noelle.Arch.t option) (st : Interp.state) : t =
  let latency =
    match arch with
    | Some a -> max 1 (Noelle.Arch.max_latency a)
    | None -> 60
  in
  let r =
    {
      st;
      latency;
      pending = [];
      queues = Hashtbl.create 16;
      sigs = Hashtbl.create 16;
      next_handle = 1;
      next_tid = 0;
      sections = 0;
      par_cycles = 0;
      tasks_executed = 0;
      fault = None;
      restarts = 0;
      task_log = [];
      recorder = None;
    }
  in
  let reg name fn = Interp.register_builtin st name fn in
  reg "task_submit" (fun st args ->
      match args with
      | [ fp; core; ncores; env ] ->
        let fname =
          match fp with
          | Interp.VP a -> (
            match Hashtbl.find_opt st.Interp.addr_fun a with
            | Some n -> n
            | None -> Interp.trap "task_submit: %d is not a function address" a)
          | _ -> Interp.trap "task_submit: expected function pointer"
        in
        let t =
          { tid = r.next_tid; fname; targs = [ core; ncores; env ]; clock = 0; ran = 0;
            dies_at = max_int }
        in
        r.next_tid <- r.next_tid + 1;
        r.pending <- r.pending @ [ t ];
        Interp.VI 0L
      | _ -> Interp.trap "task_submit: expected 4 arguments");
  reg "tasks_run" (fun _ args ->
      (match args with [] -> () | _ -> Interp.trap "tasks_run: no arguments expected");
      let ts = r.pending in
      r.pending <- [];
      if ts <> [] then run_tasks r ts;
      Interp.VI 0L);
  reg "q_new" (fun _ _ ->
      let h = r.next_handle in
      r.next_handle <- h + 1;
      Hashtbl.replace r.queues h (Queue.create ());
      Interp.VI (Int64.of_int h));
  let q_of v =
    let h = Int64.to_int (Interp.as_int v) in
    match Hashtbl.find_opt r.queues h with
    | Some q -> q
    | None -> Interp.trap "unknown queue %d" h
  in
  let push st args =
    match args with
    | [ q; v ] ->
      Queue.add (st.Interp.clock + r.latency, v) (q_of q);
      Interp.VI 0L
    | _ -> Interp.trap "q_push: expected 2 arguments"
  in
  let pop st args =
    match args with
    | [ qv ] ->
      let q = q_of qv in
      while Queue.is_empty q do
        Effect.perform (Block (fun () -> not (Queue.is_empty q)))
      done;
      let stamp, v = Queue.pop q in
      st.Interp.clock <- max st.Interp.clock stamp;
      v
    | _ -> Interp.trap "q_pop: expected 1 argument"
  in
  reg "q_push" push;
  reg "q_push_f" push;
  reg "q_pop" pop;
  reg "q_pop_f" pop;
  reg "sig_new" (fun _ _ ->
      let h = r.next_handle in
      r.next_handle <- h + 1;
      Hashtbl.replace r.sigs h (ref 0L, ref 0);
      Interp.VI (Int64.of_int h));
  let sig_of v =
    let h = Int64.to_int (Interp.as_int v) in
    match Hashtbl.find_opt r.sigs h with
    | Some s -> s
    | None -> Interp.trap "unknown signal %d" h
  in
  reg "sig_wait" (fun st args ->
      match args with
      | [ sv; kv ] ->
        let value, stamp = sig_of sv in
        let k = Interp.as_int kv in
        while !value < k do
          Effect.perform (Block (fun () -> !value >= k))
        done;
        st.Interp.clock <- max st.Interp.clock !stamp;
        (* Helix brackets a sequential segment with sig_wait ... sig_set:
           events until the matching sig_set carry the seq tag *)
        (match r.recorder with
        | Some rc when rc.Obs.task >= 0 ->
          Hashtbl.replace rc.Obs.seq_tasks rc.Obs.task ()
        | _ -> ());
        Interp.VI 0L
      | _ -> Interp.trap "sig_wait: expected 2 arguments");
  reg "sig_set" (fun st args ->
      match args with
      | [ sv; kv ] ->
        let value, stamp = sig_of sv in
        let k = Interp.as_int kv in
        if k > !value then begin
          value := k;
          stamp := st.Interp.clock + r.latency
        end;
        (match r.recorder with
        | Some rc when rc.Obs.task >= 0 ->
          Hashtbl.remove rc.Obs.seq_tasks rc.Obs.task
        | _ -> ());
        Interp.VI 0L
      | _ -> Interp.trap "sig_set: expected 2 arguments");
  r

(* ------------------------------------------------------------------ *)
(* Measurement entry points                                            *)
(* ------------------------------------------------------------------ *)

(** Run [m]'s entry under the parallel runtime.  Returns (exit value,
    output, simulated cycles, runtime stats). *)
let run ?entry ?args ?fuel ?arch (m : Irmod.t) =
  let r = Interp.start ?entry ?args ?fuel ~configure:(install ?arch) m in
  (Interp.value r, Interp.output r, Interp.clock r, r.Interp.setup)

(** Run [m]'s entry under the parallel runtime through {!Obs.run}: the
    recorder tags every event with its task and parallel section, and the
    behaviour's [clock] is the simulated cycle count. *)
let run_traced ?entry ?args ?fuel ?arch (m : Irmod.t) : Obs.behaviour =
  Obs.run ?entry ?args ?fuel m ~install:(fun st rc ->
      (install ?arch st).recorder <- Some rc)

(** Sequential reference run: simulated cycles = dynamic instructions. *)
let run_sequential ?entry ?args ?fuel (m : Irmod.t) =
  let r = Interp.start ?entry ?args ?fuel ~configure:ignore m in
  (Interp.value r, Interp.output r, Interp.clock r)

(* ------------------------------------------------------------------ *)
(* Degraded-mode execution                                             *)
(* ------------------------------------------------------------------ *)

(** A degraded-mode run: [rrun] is the run whose value, output and
    cycles stand, the parallel run or the pristine module's sequential
    run.  Either way its setup is the parallel attempt's runtime, which
    holds the restarts and the dispositions ({!dispositions}). *)
type resilient_result = { rrun : t Interp.run; rmode : [ `Parallel | `Sequential_fallback ] }

let mode_to_string = function
  | `Parallel -> "parallel"
  | `Sequential_fallback -> "sequential-fallback"

(** Run the parallelized module [m] under an optional fault plan.  Injected
    task deaths are retried by whole-section re-execution; if a section
    exhausts its restart budget the run degrades gracefully: the pristine
    [original] module is executed sequentially instead, so the program
    always completes with correct output. *)
let run_resilient ?entry ?args ?fuel ?arch ?fault ~(original : Irmod.t) (m : Irmod.t) :
    resilient_result =
  let configure st =
    let r = install ?arch st in
    r.fault <- fault;
    r
  in
  let run = Interp.start ?entry ?args ?fuel ~configure m in
  match run.Interp.outcome with
  | Ok _ -> { rrun = run; rmode = `Parallel }
  | Error (Parallel_failed reason) ->
    let r = run.Interp.setup in
    r.task_log <- Section_abandoned { reason } :: r.task_log;
    let rrun = Interp.start ?entry ?args ?fuel ~configure:(fun _ -> r) original in
    { rrun; rmode = `Sequential_fallback }
  | Error e -> raise e
