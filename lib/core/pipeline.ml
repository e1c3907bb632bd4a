(** The transactional pass pipeline (robustness layer).

    Every pass runs as a transaction: the module is checkpointed
    ({!Ir.Snapshot}), the pass transforms it in place, and the result must
    clear two gates before the change commits — the structural verifier
    ({!Ir.Verify.check}) and a differential test that executes the original
    and the transformed module on the same inputs and demands identical
    observable behaviour.  A pass that fails a gate (or raises) is rolled
    back in place, with a structural diff of the rejected change recorded
    for diagnosis, and the pipeline carries on from the last good module.

    Each distinct module is executed once.  The pipeline keeps the last
    accepted module's version ({!Ir.Irmod.version}) and a copy of its
    metadata next to its behaviours; a candidate (or the final module)
    with the same version and equal metadata reuses them instead of
    running again, and is still compared against the reference under the
    pass's license, so every verdict is the one a re-execution would give.
    An equal version means equal printed code, so the key stands for the
    module's exact printed text ({!Ir.Printer.module_str}, metadata
    included) without printing it.  This is sound because the executors
    are deterministic in module, inputs and fuel and read nothing the
    printed text leaves out.  The key is never a fingerprint:
    {!Ir.Fingerprint} makes no collision guarantee, and a collision would
    skip a real check.  The printed-text key survives in the tests, as the
    oracle this key must agree with.

    A seeded fault injector ({!Ir.Faultgen}) can corrupt pass output on
    purpose, to demonstrate that the gates catch the canonical compiler
    bugs: structural corruptions die at the verifier, semantic ones at the
    differential test.

    The pipeline knows nothing about which analyses a pass consults: passes
    are plain closures, and {!config.on_change} lets the driver invalidate
    its analysis caches whenever the module mutates (including rollbacks). *)

open Ir

type outcome =
  | Committed of string   (** the summary string returned by the pass *)
  | Rolled_back of string (** which gate rejected the change, and why *)
  | Timed_out of string   (** the differential run exhausted its fuel *)

type entry = {
  epass : string;
  eoutcome : outcome;
  einjected : string option; (** fault injected into this pass's output *)
  ediff : string list;       (** structural diff of a rejected change *)
  etrace_diff : string list;
      (** minimal event-diff witness when the trace-equivalence gate
          rejected the change ([noelle-pipeline --trace-diff]) *)
  emeta : string list;
      (** embedded artifacts quarantined at commit by the metadata trust
          gate ({!config.verify_meta_gate}) *)
}

type report = {
  entries : entry list;
  final_ok : bool; (** the surviving module still clears both gates *)
  runs : int;      (** differential runs the gates asked for *)
  executed : int;  (** of those, the ones that executed a module *)
}

(** One observed execution ({!Ir.Obs.behaviour}): the legacy observable
    (exit value + program output as one string, or the trap message) plus
    the observable-event trace.  The gate checks both halves.  The output
    half stays because events render floats with [%.6g] while
    [print_float] writes [%.6f], so the output sees digits the events
    round away.  Rendering event floats exactly would not let it go
    either: DOALL combines per-core [Fsum]/[Fprod] partial sums
    ({!Reduction}), which reassociates float adds, and exact events would
    compare the reassociated results bit for bit.  Dropping the output
    half needs a reassociation license first. *)
type behaviour = Obs.behaviour

(** How the differential gate executes a module.  The default is the
    sequential interpreter under an event recorder; drivers whose passes
    produce parallel modules plug in a Psim-backed executor instead. *)
type exec = Irmod.t -> args:int list -> fuel:int -> behaviour

let interp_exec : exec = fun m ~args ~fuel -> Obs.run ~args ~fuel m

type config = {
  inputs : int list list; (** argument vectors for the differential gate *)
  fuel : int;             (** interpreter fuel per differential run *)
  exec : exec;
  verify_meta_gate : bool;
      (** reconcile embedded analysis artifacts ({!Trust}) at every
          commit — stale/corrupt ones are quarantined instead of
          surviving into the committed module — and require the final
          module to audit clean *)
  on_change : unit -> unit;
      (** called whenever the module mutates: after a pass ran, and after
          a rollback; drivers hang analysis-cache invalidation here *)
}

let default_config =
  {
    inputs = [ [] ];
    fuel = 2_000_000;
    exec = interp_exec;
    verify_meta_gate = false;
    on_change = (fun () -> ());
  }

(** A pass is a named in-place transformation returning a human-readable
    summary of what it did.  [plicense] is the commutation license its
    differential gate grants ({!Ir.Obs.license}): cleanups keep [Exact],
    parallelizers declare which event reorders they are entitled to. *)
type pass = { pname : string; papply : Irmod.t -> string; plicense : Obs.license }

(* ------------------------------------------------------------------ *)
(* Behaviour comparison                                                *)
(* ------------------------------------------------------------------ *)

let contains = Obs.has_sub

let args_str args = "(" ^ String.concat ", " (List.map string_of_int args) ^ ")"

let behaviours (c : config) (m : Irmod.t) =
  List.map (fun args -> c.exec m ~args ~fuel:c.fuel) c.inputs

(** Compare candidate behaviours against the reference, input by input,
    with {!Ir.Obs.compare} under [license]: the first input whose run is
    not [`Equal] decides the verdict. *)
let compare_behaviours ?(license = Obs.Exact) (c : config)
    (reference : behaviour list) (candidate : behaviour list) =
  let rec go inputs refs cands =
    match (inputs, refs, cands) with
    | [], [], [] -> `Equal
    | args :: is, r :: rs, cd :: cs -> (
      let on_input msg = Printf.sprintf "on input %s: %s" (args_str args) msg in
      match Obs.compare ~license r cd with
      | `Equal -> go is rs cs
      | `Timed_out msg -> `Timed_out (on_input msg)
      | `Mismatch (msg, witness) -> `Mismatch (on_input msg, witness))
    | _ -> `Mismatch ("behaviour vectors have different lengths", [])
  in
  go c.inputs reference candidate

(* ------------------------------------------------------------------ *)
(* The transaction loop                                                *)
(* ------------------------------------------------------------------ *)

let starts_with pre s =
  String.length s >= String.length pre && String.sub s 0 (String.length pre) = pre

(* span tags for one transaction: the outcome plus what each gate said,
   recovered from the entry (gate attributions live in the outcome text),
   and whether the differential run executed the candidate ([ran]),
   reused the accepted behaviours ([reused]) or never happened *)
let gate_tags ~exec (e : entry) =
  let outcome, verify, differential =
    match e.eoutcome with
    | Committed _ -> ("committed", "ok", "ok")
    | Timed_out _ -> ("timed-out", "ok", "timeout")
    | Rolled_back r ->
      if starts_with "pass raised" r then ("rolled-back", "skipped", "skipped")
      else if starts_with "verifier:" r then ("rolled-back", "fail", "skipped")
      else ("rolled-back", "ok", "mismatch")
  in
  [ ("outcome", outcome); ("verify", verify); ("differential", differential);
    ("exec", exec) ]
  @ (match e.einjected with Some d -> [ ("injected", d) ] | None -> [])

(** Run [passes] over [m] transactionally.  [m] is mutated in place; after
    the call it holds the composition of every {e committed} pass and none
    of the rolled-back ones.  When [inject] is given, a deterministic fault
    drawn from seed [inject + pass_index] corrupts each pass's output
    before the gates run.  The reference behaviour for every differential
    check is the pristine input module, so the final module is guaranteed
    behaviourally equal to the original on the configured inputs.

    Reuse rule: the accepted module starts as the pristine one with the
    reference behaviours, and each commit replaces it with the committed
    candidate and its behaviours.  A candidate, or the final module, whose
    version and metadata equal the accepted ones is not executed again;
    the accepted behaviours go through {!compare_behaviours} with the
    pass's license in its place.  Nothing is printed unless a pass rolls
    back ({!Ir.Snapshot.diff}).  [runs] and [executed] in the report
    count the runs asked for and the ones executed; every reused run adds
    to the [pipeline.exec_reused] counter. *)
let run ?(config = default_config) ?inject (m : Irmod.t) (passes : pass list) : report =
  Trace.touch "obs.trace_compares";
  Trace.touch "obs.reorders_rejected";
  Trace.touch "obs.events";
  Trace.touch "pipeline.exec_reused";
  let runs = ref 0 and executed = ref 0 in
  (* the accepted module: its version, a copy of its metadata taken when
     it was accepted, and its behaviours *)
  let accept bs = (Irmod.version m, Meta.copy m.Irmod.meta, bs) in
  (* the behaviours of [m] as it stands, and whether they were executed
     or reused from the accepted module *)
  let observe accepted =
    let n = List.length config.inputs in
    runs := !runs + n;
    match accepted with
    | Some (version, meta, bs)
      when Irmod.version m = version && Meta.equal meta m.Irmod.meta ->
      Trace.add "pipeline.exec_reused" n;
      (bs, "reused")
    | _ ->
      executed := !executed + n;
      (behaviours config m, "ran")
  in
  let reference, _ =
    Trace.span ~cat:"pipeline" "pipeline.reference" (fun () -> observe None)
  in
  let accepted = ref (accept reference) in
  (* the license a gate must grant grows with each committed pass: the
     candidate carries every committed commutation, so the gate compares
     under the join of those licenses and the current pass's own *)
  let committed_license = ref Obs.Exact in
  let run_pass idx (p : pass) : entry =
    let license = Obs.join !committed_license p.plicense in
    let sp = Trace.begin_span ~cat:"pipeline" ("pass:" ^ p.pname) in
    let snap = Snapshot.capture m in
    let applied = try Ok (p.papply m) with e -> Error (Printexc.to_string e) in
    config.on_change ();
    let injected =
      match applied with
      | Error _ -> None
      | Ok _ -> Option.bind inject (fun seed -> Faultgen.inject ~seed:(seed + idx) m)
    in
    let rollback ?(trace_diff = []) reason =
      let diff = Snapshot.diff ~limit:24 (Snapshot.view snap) m in
      Snapshot.restore snap m;
      config.on_change ();
      {
        epass = p.pname;
        eoutcome = reason;
        einjected = injected;
        ediff = diff;
        etrace_diff = trace_diff;
        emeta = [];
      }
    in
    let commit summary candidate =
      accepted := accept candidate;
      (* the change is in: strip embedded artifacts it invalidated, so no
         consumer downstream of this commit can reload stale analysis *)
      let emeta =
        if config.verify_meta_gate then
          List.map Trust.event_to_string (Trust.reconcile m)
        else []
      in
      committed_license := license;
      {
        epass = p.pname;
        eoutcome = Committed summary;
        einjected = injected;
        ediff = [];
        etrace_diff = [];
        emeta;
      }
    in
    let entry, exec =
      match applied with
      | Error exn -> (rollback (Rolled_back ("pass raised: " ^ exn)), "skipped")
      | Ok summary -> (
        match Verify.check m with
        | Error msg -> (rollback (Rolled_back ("verifier: " ^ msg)), "skipped")
        | Ok () ->
          let cand, exec = observe (Some !accepted) in
          ( (match compare_behaviours ~license config reference cand with
            | `Equal -> commit summary cand
            | `Timed_out msg -> rollback (Timed_out msg)
            | `Mismatch (msg, witness) ->
              rollback ~trace_diff:witness (Rolled_back ("differential: " ^ msg))),
            exec ))
    in
    (match entry.eoutcome with
    | Committed _ -> Trace.incr_m "pipeline.committed"
    | Rolled_back _ -> Trace.incr_m "pipeline.rolled_back"
    | Timed_out _ -> Trace.incr_m "pipeline.timed_out");
    Trace.end_span ~args:(gate_tags ~exec entry) sp;
    entry
  in
  let entries = List.mapi run_pass passes in
  let final_ok =
    (match Verify.check m with Ok () -> true | Error _ -> false)
    && (let final, _ = observe (Some !accepted) in
        compare_behaviours ~license:!committed_license config reference final = `Equal)
    && (not config.verify_meta_gate || Trust.failures (Trust.audit m) = [])
  in
  { entries; final_ok; runs = !runs; executed = !executed }

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let outcome_to_string = function
  | Committed s -> "committed" ^ if s = "" then "" else ": " ^ s
  | Rolled_back s -> "ROLLED BACK: " ^ s
  | Timed_out s -> "TIMED OUT: " ^ s

let committed (r : report) =
  List.filter (fun e -> match e.eoutcome with Committed _ -> true | _ -> false) r.entries

let rolled_back (r : report) =
  List.filter (fun e -> match e.eoutcome with Committed _ -> false | _ -> true) r.entries

let report_to_string (r : report) =
  let b = Buffer.create 256 in
  List.iter
    (fun e ->
      let mark = match e.eoutcome with Committed _ -> "+" | _ -> "!" in
      Buffer.add_string b
        (Printf.sprintf "%s %-12s %s\n" mark e.epass (outcome_to_string e.eoutcome));
      (match e.einjected with
      | Some d -> Buffer.add_string b (Printf.sprintf "    injected fault: %s\n" d)
      | None -> ());
      List.iter
        (fun l -> Buffer.add_string b (Printf.sprintf "    quarantined %s\n" l))
        e.emeta;
      List.iter (fun l -> Buffer.add_string b ("    " ^ l ^ "\n")) e.ediff)
    r.entries;
  Buffer.add_string b
    (Printf.sprintf
       "pipeline: %d committed, %d rolled back; %d of %d differential runs \
        executed; final module %s\n"
       (List.length (committed r))
       (List.length (rolled_back r))
       r.executed r.runs
       (if r.final_ok then "OK (verified, behaviour preserved)" else "NOT OK"));
  Buffer.contents b
