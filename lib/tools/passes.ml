(** Standard pass stack for the transactional pipeline.

    Each constructor wraps one custom tool as a {!Noelle.Pipeline.pass}:
    a closure over a {!Noelle.t} manager that transforms the module in
    place and summarizes what it did.  {!config} wires the pipeline's
    [on_change] hook to {!Noelle.invalidate} so cached analyses never
    survive a mutation (commit {e or} rollback), and swaps the default
    sequential executor for a Psim-backed one, since committed passes may
    leave the module parallelized (calls to [task_submit] etc. only exist
    under the parallel runtime). *)

open Ir

(** Differential executor backed by the parallel runtime, under an
    observable-event recorder: events are tagged with their task/section
    so the trace gate can validate the parallel schedule against the
    sequential reference. *)
let psim_exec : Noelle.Pipeline.exec =
 fun m ~args ~fuel -> Psim.Runtime.run_traced ~args ~fuel m

let mk ?(license = Obs.Exact) name apply : Noelle.Pipeline.pass =
  { Noelle.Pipeline.pname = name; papply = apply; plicense = license }

let par_summary outcomes =
  let ok = List.length (List.filter (fun (_, r) -> Result.is_ok r) outcomes) in
  Printf.sprintf "parallelized %d loops (%d declined)" ok (List.length outcomes - ok)

let licm (n : Noelle.t) =
  mk "licm" (fun m ->
      let s = Licm.run n m in
      Printf.sprintf "hoisted %d insts from %d loops" s.Licm.hoisted s.Licm.loops_visited)

let dead (n : Noelle.t) =
  mk "dead" (fun m ->
      let s = Deadfunc.run n m () in
      Printf.sprintf "removed %d functions (%d -> %d insts)"
        (List.length s.Deadfunc.removed)
        s.Deadfunc.insts_before s.Deadfunc.insts_after)

(* The race gate is recomputed against the module as it stands when the
   parallelizer pass actually runs — earlier passes may have changed it. *)
let gate check_races m =
  if check_races then Lint.race_gate m else fun (_ : string) -> false

(* Commutation licenses (DESIGN.md §12): DOALL may permute independent
   iterations' event blocks across tasks; DSWP may buffer events between
   stages but each stage keeps program order; Helix additionally pins its
   sequential segments to sequential order.  The cleanups above get no
   license at all — their gates stay event-exact. *)

let doall ?(ncores = 4) ?(min_hotness = 0.0) ?(min_work = 0.0) ?(check_races = false)
    ?(no_profile = false) (n : Noelle.t) =
  mk ~license:Obs.Permute_iterations "doall" (fun m ->
      par_summary
        (Doall.run n m ~ncores ~min_hotness ~min_work ~profile_free:no_profile
           ~skip:(gate check_races m) ()))

let helix ?(ncores = 4) ?(min_hotness = 0.0) ?(min_work = 0.0) ?(check_races = false)
    ?(no_profile = false) (n : Noelle.t) =
  mk ~license:Obs.Seq_segments "helix" (fun m ->
      par_summary
        (Helix.run n m ~ncores ~min_hotness ~min_work ~profile_free:no_profile
           ~skip:(gate check_races m) ()))

let dswp ?(max_stages = 3) ?(min_hotness = 0.0) ?(min_work = 0.0) ?(check_races = false)
    ?(no_profile = false) (n : Noelle.t) =
  mk ~license:Obs.Buffer_stages "dswp" (fun m ->
      par_summary
        (Dswp.run n m ~max_stages ~min_hotness ~min_work ~profile_free:no_profile
           ~skip:(gate check_races m) ()))

(* Lane-group reorders are Permute_iterations-shaped: the widened loop
   interleaves W iterations' event blocks inside each group (the scalar
   epilogue stays exact, which the permute license subsumes). *)
let vec ?(ncores = 4) ?(min_work = 0.0) ?(check_races = false) (n : Noelle.t) =
  mk ~license:Obs.Permute_iterations "vec" (fun m ->
      let outcomes = Vec.run n m ~ncores ~min_work ~skip:(gate check_races m) () in
      let ok = List.length (List.filter (fun (_, r) -> Result.is_ok r) outcomes) in
      Printf.sprintf "vectorized %d loops (%d declined)" ok
        (List.length outcomes - ok))

(** The standard stack: cleanups first, then the parallelizers from the
    most to the least restrictive form (DOALL, HELIX, DSWP), each picking
    up loops its predecessors left sequential.  With [vec] set the
    vectorizer runs ahead of the parallelizers and claims the loops where
    the SIMD model beats the DOALL model ([noelle-pipeline --vec]); the
    rest fall through.  With [check_races] set, every loop the static
    race detector flags is refused up front
    ([noelle-pipeline --check-races]).  With [no_profile] set the
    parallelizers plan from static {!Bounds} instead of embedded profile
    metadata ([noelle-pipeline --no-profile]). *)
let standard ?ncores ?min_hotness ?min_work ?check_races ?no_profile
    ?vec:(enable_vec = false) (n : Noelle.t) : Noelle.Pipeline.pass list =
  let vec_passes =
    if enable_vec then [ vec ?ncores ?min_work ?check_races n ] else []
  in
  [ licm n; dead n ]
  @ vec_passes
  @ [
      doall ?ncores ?min_hotness ?min_work ?check_races ?no_profile n;
      helix ?ncores ?min_hotness ?min_work ?check_races ?no_profile n;
      dswp ?min_hotness ?min_work ?check_races ?no_profile n;
    ]

(** Pipeline configuration for this stack: Psim-backed differential runs
    and analysis-cache invalidation on every module change.  With
    [verify_meta] set, every commit also reconciles embedded analysis
    artifacts through the trust layer and the final module must audit
    clean ([noelle-pipeline --verify-meta]). *)
let config ?(inputs = [ [] ]) ?(fuel = 3_000_000) ?(verify_meta = false)
    (n : Noelle.t) : Noelle.Pipeline.config =
  {
    Noelle.Pipeline.inputs;
    fuel;
    exec = psim_exec;
    verify_meta_gate = verify_meta;
    on_change = (fun () -> Noelle.invalidate n);
  }

(** Convenience driver: run the standard stack transactionally over [m],
    optionally corrupting pass output from [inject_seed].  Returns the
    report; [m] holds the surviving (verified, behaviour-preserving)
    module. *)
let run_standard ?inputs ?fuel ?inject_seed ?ncores ?min_hotness ?min_work
    ?check_races ?no_profile ?vec ?analysis_budget ?(verify_meta = false)
    (m : Irmod.t) =
  Trace.span ~cat:"pipeline" "pipeline.standard" @@ fun () ->
  let n = Noelle.create ?analysis_budget m in
  let report =
    Noelle.Pipeline.run
      ~config:(config ?inputs ?fuel ~verify_meta n)
      ?inject:inject_seed m
      (standard ?ncores ?min_hotness ?min_work ?check_races ?no_profile ?vec n)
  in
  (* close the quarantine-and-recompute loop: artifacts the transaction
     commits invalidated get re-embedded fresh, so the module leaves the
     pipeline carrying trusted analysis again *)
  if verify_meta then
    List.iter
      (fun fn ->
        match Irmod.func_opt m fn with
        | Some f when not f.Func.is_declaration ->
          Noelle.Pdg.embed ~tool:"noelle-pipeline" (Noelle.pdg n f)
        | _ -> ())
      (Noelle.Trust.quarantined_pdg_functions m);
  report
