(** The transactional pass pipeline (robustness layer).

    Every pass runs as a transaction: the module is checkpointed
    ({!Ir.Snapshot}), the pass transforms it in place, and the result must
    clear two gates before the change commits — the structural verifier
    ({!Ir.Verify.check}) and a differential test that executes the original
    and the transformed module on the same inputs and demands identical
    observable behaviour.  A pass that fails a gate (or raises) is rolled
    back in place, with a structural diff of the rejected change recorded
    for diagnosis, and the pipeline carries on from the last good module.

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
}

(** One observed execution: the legacy observable (exit value + program
    output rendered as one string, or the trap message) plus the
    observable-event trace ({!Ir.Obs}) the run emitted.  The trace gate
    checks both — trace equivalence subsumes nothing the output compare
    sees (float printing rounds differently in events), so "strictly
    stronger" is by construction. *)
type behaviour = {
  bresult : (string, string) result;
  btrace : Obs.trace;
}

(** How the differential gate executes a module.  The default is the
    sequential interpreter under an event recorder; drivers whose passes
    produce parallel modules plug in a Psim-backed executor instead. *)
type exec = Irmod.t -> args:int list -> fuel:int -> behaviour

let interp_exec : exec =
 fun m ~args ~fuel ->
  let res, out, tr = Obs.run ~args ~fuel m in
  {
    bresult =
      (match res with
      | Ok v -> Ok (Printf.sprintf "exit=%s\n%s" (Interp.v_to_string v) out)
      | Error msg -> Error msg);
    btrace = tr;
  }

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

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let is_fuel_exhaustion = function
  | Error msg -> contains msg "out of fuel"
  | Ok _ -> false

let fuel_exhausted (b : behaviour) = is_fuel_exhaustion b.bresult

(* Trap messages carry instruction ids and labels that legitimately shift
   under transformation, so equivalence of trapping runs is by trap class
   (genuine trap vs fuel exhaustion), not by message text. *)
let equiv r c =
  match (r, c) with
  | Ok a, Ok b -> String.equal a b
  | (Error _ as a), (Error _ as b) -> is_fuel_exhaustion a = is_fuel_exhaustion b
  | _ -> false

let truncate_for_msg s =
  let s = String.map (function '\n' -> ' ' | c -> c) s in
  if String.length s <= 80 then s else String.sub s 0 77 ^ "..."

let describe_result = function
  | Ok s -> Printf.sprintf "ok %S" (truncate_for_msg s)
  | Error msg -> Printf.sprintf "trap %S" (truncate_for_msg msg)

let args_str args = "(" ^ String.concat ", " (List.map string_of_int args) ^ ")"

let behaviours (c : config) (m : Irmod.t) =
  List.map (fun args -> c.exec m ~args ~fuel:c.fuel) c.inputs

(** Compare candidate behaviours against the reference, input by input.

    Fuel exhaustion is handled before anything else: a candidate that ran
    out of fuel where the reference did not is [`Timed_out] — a resource
    verdict, never a behavioural mismatch — and two runs that both
    exhausted their fuel are equal by convention (their traces are
    incomparable prefixes).  Otherwise the gate demands the legacy
    observable (exit + output) be identical {e and} the event traces be
    equivalent modulo [license] ({!Ir.Obs.check}); a trace rejection
    carries its minimal event-diff witness. *)
let compare_behaviours ?(license = Obs.Exact) (c : config)
    (reference : behaviour list) (candidate : behaviour list) =
  let rec go inputs refs cands =
    match (inputs, refs, cands) with
    | [], [], [] -> `Equal
    | args :: is, r :: rs, cd :: cs ->
      if fuel_exhausted cd && not (fuel_exhausted r) then
        `Timed_out
          (Printf.sprintf "on input %s: ran out of fuel (reference %s)"
             (args_str args) (describe_result r.bresult))
      else if fuel_exhausted r && fuel_exhausted cd then go is rs cs
      else if not (equiv r.bresult cd.bresult) then
        `Mismatch
          ( Printf.sprintf "on input %s: expected %s, got %s" (args_str args)
              (describe_result r.bresult)
              (describe_result cd.bresult),
            [] )
      else (
        match Obs.check ~license ~reference:r.btrace ~candidate:cd.btrace with
        | Ok () -> go is rs cs
        | Error (reason, witness) ->
          `Mismatch
            ( Printf.sprintf "on input %s: %s (license: %s)" (args_str args)
                reason
                (Obs.license_to_string license),
              witness ))
    | _ -> `Mismatch ("behaviour vectors have different lengths", [])
  in
  go c.inputs reference candidate

(* ------------------------------------------------------------------ *)
(* The transaction loop                                                *)
(* ------------------------------------------------------------------ *)

(** Run [passes] over [m] transactionally.  [m] is mutated in place; after
    the call it holds the composition of every {e committed} pass and none
    of the rolled-back ones.  When [inject] is given, a deterministic fault
    drawn from seed [inject + pass_index] corrupts each pass's output
    before the gates run.  The reference behaviour for every differential
    check is the pristine input module, so the final module is guaranteed
    behaviourally equal to the original on the configured inputs. *)
(* span tags for one transaction: the outcome plus what each gate said,
   recovered from the entry (gate attributions live in the outcome text) *)
let starts_with pre s =
  String.length s >= String.length pre && String.sub s 0 (String.length pre) = pre

let gate_tags (e : entry) =
  let outcome, verify, differential =
    match e.eoutcome with
    | Committed _ -> ("committed", "ok", "ok")
    | Timed_out _ -> ("timed-out", "ok", "timeout")
    | Rolled_back r ->
      if starts_with "pass raised" r then ("rolled-back", "skipped", "skipped")
      else if starts_with "verifier:" r then ("rolled-back", "fail", "skipped")
      else ("rolled-back", "ok", "mismatch")
  in
  [ ("outcome", outcome); ("verify", verify); ("differential", differential) ]
  @ (match e.einjected with Some d -> [ ("injected", d) ] | None -> [])

let run ?(config = default_config) ?inject (m : Irmod.t) (passes : pass list) : report =
  Trace.touch "obs.trace_compares";
  Trace.touch "obs.reorders_rejected";
  Trace.touch "obs.events";
  let reference =
    Trace.span ~cat:"pipeline" "pipeline.reference" (fun () -> behaviours config m)
  in
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
    let commit summary =
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
    let entry =
      match applied with
      | Error exn -> rollback (Rolled_back ("pass raised: " ^ exn))
      | Ok summary -> (
        match Verify.check m with
        | Error msg -> rollback (Rolled_back ("verifier: " ^ msg))
        | Ok () -> (
          match compare_behaviours ~license config reference (behaviours config m) with
          | `Equal -> commit summary
          | `Timed_out msg -> rollback (Timed_out msg)
          | `Mismatch (msg, witness) ->
            rollback ~trace_diff:witness (Rolled_back ("differential: " ^ msg))))
    in
    (match entry.eoutcome with
    | Committed _ -> Trace.incr_m "pipeline.committed"
    | Rolled_back _ -> Trace.incr_m "pipeline.rolled_back"
    | Timed_out _ -> Trace.incr_m "pipeline.timed_out");
    Trace.end_span ~args:(gate_tags entry) sp;
    entry
  in
  let entries = List.mapi run_pass passes in
  let final_ok =
    (match Verify.check m with Ok () -> true | Error _ -> false)
    && compare_behaviours ~license:!committed_license config reference
         (behaviours config m)
       = `Equal
    && (not config.verify_meta_gate || Trust.failures (Trust.audit m) = [])
  in
  { entries; final_ok }

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
    (Printf.sprintf "pipeline: %d committed, %d rolled back; final module %s\n"
       (List.length (committed r))
       (List.length (rolled_back r))
       (if r.final_ok then "OK (verified, behaviour preserved)" else "NOT OK"));
  Buffer.contents b
