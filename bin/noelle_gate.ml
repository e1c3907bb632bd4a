(** noelle-gate — the corpus gates, swept by one harness
    ({!Bsuite.Harness}).

    - [lint]: the noelle-check race detector and sanitizers report zero
      unsuppressed errors over every kernel and fuzz seeds 1-5.
    - [meta] (DESIGN.md §9): embed every analysis artifact over the first
      10 kernels, round-trip through the printer/parser, demand verified
      fast-path reloads, transform with the metadata gate on, and require
      the surviving module to audit clean.
    - [validate] (DESIGN.md §12): the [--vec] standard stack clears the
      trace-equivalence gate on every kernel with zero rollbacks and a
      final module that still behaves like the pristine kernel (the
      pipeline's final check replays the parallel schedule under Psim
      against the sequential run); over 50 fuzz seeds a live vec
      pass never rolls back, and every planted [Effect_reorder] is
      rejected with an event-diff witness (no plantable site at all is a
      vacuous sweep, a failure).
    - [bounds] (DESIGN.md §13): interpreter-measured trips never exceed
      the static {!Ir.Bounds} (exactly equal on affine loops) over every
      kernel and 50 fuzz seeds; profile-free decisions agree with
      profile-driven ones on >= 80% of corpus loops; the Psim speedup
      geomean of the two plans stays within 10%, and each plan's parallel
      run clears {!Ir.Obs.compare} against the reference.
    - [vec] (DESIGN.md §16): every widened kernel verifies, clears
      {!Ir.Obs.compare} against the reference, and adds no noelle-check
      errors; jpeg-dct, lbm and blackscholes vectorize; at least one
      kernel if-converts.

    Each gate's coverage is a constant; [--limit] and [--seeds] only cap
    it. *)

open Cmdliner
module H = Bsuite.Harness
module P = Noelle.Pipeline

let fuzz_fuel = 3_000_000

let fuzz_module seed =
  let name = Printf.sprintf "fuzz%d" seed in
  (name, Minic.Lower.compile ~name (Bsuite.Generator.program seed))

(* ------------------------------------------------------------------ *)
(* lint                                                                *)
(* ------------------------------------------------------------------ *)

let lint_module (ctx : H.ctx) name m =
  let module C = Noelle.Check in
  let r = C.run m in
  let errors = C.errors r in
  List.iter (fun d -> ctx.H.fail "%s" (C.diag_to_string d)) errors;
  ctx.H.say "%-16s %d errors, %d warnings\n" name (List.length errors)
    (List.length (C.warnings r))

let lint =
  H.gate "lint" ~seeds:5
    (fun ctx k -> lint_module ctx k.H.name (H.compile k))
    ~on_seed:(fun ctx seed ->
      let name, m = fuzz_module seed in
      lint_module ctx name m)

(* ------------------------------------------------------------------ *)
(* meta                                                                *)
(* ------------------------------------------------------------------ *)

let meta_kernel (ctx : H.ctx) (k : H.kernel) =
  let module T = Noelle.Trust in
  let lines evs = String.concat "\n  " (List.map T.event_to_string evs) in
  let fuel = k.H.kernel.Bsuite.Kernels.fuel in
  let m = H.compile k in
  (* embed every artifact class, stamped *)
  let prof, _ = Noelle.Profiler.run ~fuel m in
  Noelle.Profiler.embed prof m;
  let n = Noelle.create m in
  let fns = Ir.Irmod.defined_functions m in
  List.iter (fun f -> Noelle.Pdg.embed (Noelle.pdg n f)) fns;
  Noelle.Arch.to_meta (Noelle.Arch.measure ()) m.Ir.Irmod.meta;
  (* round trip: stamps and payloads must survive print -> parse *)
  let m = Ir.Parser.parse_module ~name:k.H.name (Ir.Printer.module_str m) in
  let pristine = T.audit m in
  match T.failures pristine with
  | _ :: _ as bad ->
    ctx.H.fail "pristine corpus does not verify clean:\n  %s" (lines bad)
  | [] ->
    (* a fresh manager must take the verified fast path for every PDG *)
    let n2 = Noelle.create m in
    List.iter (fun f -> ignore (Noelle.pdg n2 f)) (Ir.Irmod.defined_functions m);
    if Noelle.fast_reloads n2 < List.length fns then
      ctx.H.fail "expected %d fast reloads, saw %d" (List.length fns)
        (Noelle.fast_reloads n2)
    else if Noelle.trust_events n2 <> [] then
      ctx.H.fail "trust violations on a pristine module:\n  %s"
        (lines (Noelle.trust_events n2))
    else begin
      (* transform with the metadata gate on: stale artifacts must be
         stripped at commit and fresh PDGs re-embedded at the end *)
      let report = Ntools.Passes.run_standard ~fuel ~verify_meta:true m in
      let post = T.failures (T.audit m) in
      if not report.P.final_ok then ctx.H.fail "pipeline final module not OK"
      else if post <> [] then
        ctx.H.fail "stale/corrupt artifacts survived the pipeline:\n  %s"
          (lines post)
      else
        ctx.H.say
          "ok %-14s %d artifacts embedded, %d fast reloads, %d passes \
           committed, clean audit\n"
          k.H.name (List.length pristine) (Noelle.fast_reloads n2)
          (List.length (P.committed report))
    end

let meta = H.gate "meta" ~kernels:10 meta_kernel

(* ------------------------------------------------------------------ *)
(* validate                                                            *)
(* ------------------------------------------------------------------ *)

let reorder_pass seed : P.pass =
  {
    P.pname = Printf.sprintf "effect-reorder-%d" seed;
    papply =
      (fun m ->
        match Ir.Faultgen.inject ~kinds:Ir.Faultgen.observable_kinds ~seed m with
        | Some d -> d
        | None -> "no site");
    plicense = Ir.Obs.Exact;
  }

let validate () =
  let planted = ref 0 and caught = ref 0 and vec_committed = ref 0 in
  let on_kernel (ctx : H.ctx) (k : H.kernel) =
    let m = H.compile k in
    let report = Ntools.Passes.run_standard ~fuel:k.H.fuel ~vec:true m in
    List.iter
      (fun (e : P.entry) ->
        match e.P.eoutcome with
        | P.Committed _ -> ()
        | o -> ctx.H.fail "pass %s: %s" e.P.epass (P.outcome_to_string o))
      report.P.entries;
    if not report.P.final_ok then ctx.H.fail "final module NOT ok";
    ctx.H.say "%-16s %d/%d passes committed\n" k.H.name
      (List.length (P.committed report))
      (List.length report.P.entries)
  in
  let on_seed (ctx : H.ctx) seed =
    let config = { P.default_config with P.fuel = fuzz_fuel } in
    (* every fuzz seed routes through a live vec pass under the
       trace-equivalence gate: a rollback here means the vectorizer
       itself broke the program's observable behaviour *)
    let _, mv = fuzz_module seed in
    let rv = P.run ~config mv [ Ntools.Passes.vec (Noelle.create mv) ] in
    List.iter
      (fun (e : P.entry) ->
        match e.P.eoutcome with
        | P.Committed _ -> incr vec_committed
        | o -> ctx.H.fail "vec pass: %s" (P.outcome_to_string o))
      rv.P.entries;
    let _, probe = fuzz_module seed in
    match Ir.Faultgen.inject ~kinds:Ir.Faultgen.observable_kinds ~seed probe with
    | None -> ()
    | Some desc -> (
      incr planted;
      let _, m = fuzz_module seed in
      let r = P.run ~config m [ reorder_pass seed ] in
      match r.P.entries with
      | [ { P.eoutcome = P.Rolled_back _; etrace_diff = _ :: _; _ } ] ->
        incr caught;
        ctx.H.say "seed %-3d %s: rejected with witness\n" seed desc
      | [ e ] ->
        ctx.H.fail "%s: trace gate said %s (witness %d lines)" desc
          (P.outcome_to_string e.P.eoutcome)
          (List.length e.P.etrace_diff)
      | _ -> ctx.H.fail "expected one entry")
  in
  let at_end (ctx : H.ctx) =
    if !planted = 0 then
      ctx.H.fail "no Effect_reorder site in %d fuzz seeds: the sweep proved \
                  nothing"
        ctx.H.seeds;
    ctx.H.say "effect-reorder sweep: %d planted, %d caught by the trace gate\n"
      !planted !caught;
    ctx.H.say "vec sweep: %d fuzz seeds cleared the trace gate under the vec \
               pass\n"
      !vec_committed
  in
  H.gate "validate" ~seeds:50 on_kernel ~on_seed ~at_end

(* ------------------------------------------------------------------ *)
(* bounds                                                              *)
(* ------------------------------------------------------------------ *)

let ncores = 12
let min_hotness = 0.05
let min_work = 20000.0

(** Does [f] textually call itself?  Recursive activations interleave
    blocks of the same function name, which confuses the last-block
    invocation detector below — such functions are skipped, not checked. *)
let self_recursive (f : Ir.Func.t) =
  Ir.Func.fold_insts
    (fun acc (i : Ir.Instr.inst) ->
      acc
      ||
      match i.Ir.Instr.op with
      | Ir.Instr.Call (Ir.Instr.Glob g, _) -> g = f.Ir.Func.fname
      | _ -> false)
    false f

type measured = { mutable headx : int64; mutable invocations : int64 }

(** Run [m] under an [on_block] hook, counting per-loop header executions
    and loop invocations (a header execution entered from outside the
    loop's blocks).  Returns the counts even if the run trapped (e.g. ran
    out of fuel) — the boolean says whether it completed. *)
let measure (m : Ir.Irmod.t) ~fuel =
  let open Ir in
  let loops = Hashtbl.create 32 in
  List.iter
    (fun (f : Func.t) ->
      if not (self_recursive f) then
        List.iter
          (fun (l : Loopnest.loop) ->
            Hashtbl.replace loops
              (f.Func.fname, l.Loopnest.header)
              (l.Loopnest.blocks, { headx = 0L; invocations = 0L }))
          (Loopnest.compute f).Loopnest.loops)
    (Irmod.defined_functions m);
  let last = Hashtbl.create 8 in
  let on_block (f : Func.t) bid =
    (match Hashtbl.find_opt loops (f.Func.fname, bid) with
    | None -> ()
    | Some (blocks, c) ->
      c.headx <- Int64.succ c.headx;
      match Hashtbl.find_opt last f.Func.fname with
      | Some prev when Loopnest.IntSet.mem prev blocks -> ()
      | _ -> c.invocations <- Int64.succ c.invocations);
    Hashtbl.replace last f.Func.fname bid
  in
  let completed =
    match
      Interp.run_state ~fuel m ~configure:(fun st ->
          st.Interp.hooks.Interp.on_block <- Some on_block)
    with
    | _ -> true
    | exception Interp.Trap _ -> false
  in
  (loops, completed)

(** Check one module's bounds against its measured trips.  [affine_hit]
    counts exercised affine (exact-bound) loops across the sweep for the
    vacuity gate; [upper_hit] likewise for diffcon upper bounds. *)
let check_bounds (ctx : H.ctx) ~affine_hit ~upper_hit (m : Ir.Irmod.t) ~fuel =
  let open Ir in
  let counts, completed = measure m ~fuel in
  List.iter
    (fun (f : Func.t) ->
      List.iter
        (fun (lb : Bounds.loop_bound) ->
          match Hashtbl.find_opt counts (f.Func.fname, lb.Bounds.lheader) with
          | None -> () (* never measured: a self-recursive function *)
          | Some (_, c) -> (
            match lb.Bounds.lheadx with
            | Bounds.Unbounded ->
              if completed && Int64.compare c.headx 0L > 0 then
                ctx.H.fail
                  "%s: loop claimed Unbounded yet the program entered it \
                   (%Ld header executions) and terminated"
                  lb.Bounds.lkey c.headx
            | Bounds.Unknown -> ()
            | (Bounds.Exact _ | Bounds.Upper _) as trip -> (
              match Bounds.trip_const trip with
              | None -> () (* symbolic: no concrete value to compare *)
              | Some b ->
                let budget = Int64.mul b c.invocations in
                if Int64.compare c.headx budget > 0 then
                  ctx.H.fail
                    "%s: UNSOUND bound: measured %Ld header executions over \
                     %Ld invocations, static bound %Ld per invocation"
                    lb.Bounds.lkey c.headx c.invocations b
                else if Int64.compare c.invocations 0L > 0 then
                  if Bounds.trip_is_exact trip then begin
                    incr affine_hit;
                    if completed && not (Int64.equal c.headx budget) then
                      ctx.H.fail
                        "%s: IMPRECISE affine bound: measured %Ld header \
                         executions over %Ld invocations, exact claim was %Ld \
                         per invocation"
                        lb.Bounds.lkey c.headx c.invocations b
                  end
                  else incr upper_hit)))
        (Bounds.analyze f).Bounds.floops)
    (Irmod.defined_functions m)

(** Speedup of the standard pass stack on [k], planned statically
    ([no_profile]) or from an embedded profile, and whether the parallel
    run kept the reference behaviour. *)
let arm (k : H.kernel) ~no_profile =
  let r = Lazy.force k.H.reference in
  let m = H.compile k in
  if not no_profile then begin
    let p, _ = Noelle.Profiler.run ~fuel:k.H.kernel.Bsuite.Kernels.fuel m in
    Noelle.Profiler.embed p m
  end;
  ignore
    (Ntools.Passes.run_standard ~fuel:k.H.fuel ~ncores ~min_hotness ~min_work
       ~no_profile m);
  let arch = Noelle.Arch.measure ~physical_cores:ncores () in
  let par = Psim.Runtime.run_traced ~fuel:k.H.fuel ~arch m in
  ( Int64.to_float r.Ir.Obs.clock /. Int64.to_float par.Ir.Obs.clock,
    Ir.Obs.compare ~license:Ir.Obs.Permute_iterations r par )

let bounds () =
  let affine_hit = ref 0 and upper_hit = ref 0 in
  let total = ref 0 and agreed = ref 0 and mismatches = ref [] in
  let log_sum = ref 0.0 and arms = ref 0 in
  let on_kernel (ctx : H.ctx) (k : H.kernel) =
    (* soundness / precision of the static trips *)
    check_bounds ctx ~affine_hit ~upper_hit (H.compile k) ~fuel:k.H.fuel;
    (* technique/chunk decision parity *)
    let m = H.compile k in
    let p, _ = Noelle.Profiler.run ~fuel:k.H.kernel.Bsuite.Kernels.fuel m in
    Noelle.Profiler.embed p m;
    List.iter
      (fun (id, prof, stat) ->
        incr total;
        if Ntools.Planner.agree prof stat then incr agreed
        else
          mismatches :=
            Printf.sprintf "%s: %s: profiled %s vs static %s" k.H.name id
              (Ntools.Planner.technique_to_string prof.Ntools.Planner.pd_tech)
              (Ntools.Planner.technique_to_string stat.Ntools.Planner.pd_tech)
            :: !mismatches)
      (Ntools.Planner.head_to_head (Noelle.create m) m ~ncores ~min_hotness
         ~min_work);
    (* Psim speedup parity *)
    if k.H.name <> "deadcalls" then begin
      let speedup what ~no_profile =
        let s, verdict = arm k ~no_profile in
        (match verdict with
        | `Equal -> ()
        | `Timed_out msg | `Mismatch (msg, _) ->
          ctx.H.fail "%s arm changed program behaviour: %s" what msg);
        s
      in
      let prof = speedup "profiled" ~no_profile:false in
      let stat = speedup "profile-free" ~no_profile:true in
      let ratio = stat /. prof in
      log_sum := !log_sum +. log ratio;
      incr arms;
      ctx.H.say "%-16s profiled %5.2fx  static %5.2fx  ratio %.3f\n" k.H.name
        prof stat ratio
    end
  in
  let on_seed (ctx : H.ctx) seed =
    check_bounds ctx ~affine_hit ~upper_hit (snd (fuzz_module seed))
      ~fuel:fuzz_fuel
  in
  let at_end (ctx : H.ctx) =
    if !affine_hit = 0 then
      ctx.H.fail
        "no affine loop was exercised across %d kernels and %d fuzz seeds: \
         the sweep proved nothing"
        ctx.H.kernels ctx.H.seeds;
    ctx.H.say "bounds sweep: %d affine loops exact, %d diffcon upper bounds held\n"
      !affine_hit !upper_hit;
    let rate =
      if !total = 0 then 1.0 else float_of_int !agreed /. float_of_int !total
    in
    ctx.H.say "decision parity: %d/%d loops agree (%.0f%%)\n" !agreed !total
      (100.0 *. rate);
    List.iter (ctx.H.say "  mismatch: %s\n") (List.rev !mismatches);
    if rate < 0.8 then
      ctx.H.fail "decision parity %.0f%% below the 80%% bar (%d/%d loops)"
        (100.0 *. rate) !agreed !total;
    if !arms > 0 then begin
      let geomean = exp (!log_sum /. float_of_int !arms) in
      ctx.H.say "speedup geomean ratio (static/profiled): %.3f\n" geomean;
      if geomean < 0.9 || geomean > 1.1 then
        ctx.H.fail "speedup geomean ratio %.3f outside the 10%% band" geomean
    end
  in
  H.gate "bounds" ~seeds:50 on_kernel ~on_seed ~at_end

(* ------------------------------------------------------------------ *)
(* vec                                                                 *)
(* ------------------------------------------------------------------ *)

let must_vectorize = [ "jpeg-dct"; "lbm"; "blackscholes" ]

let vec_kernel (ctx : H.ctx) (k : H.kernel) =
  let m = H.compile k in
  let before = Ir.Trace.counter "vec.vectorized" in
  let outcomes = Ntools.Vec.run (Noelle.create m) m ~only_best:false () in
  let stats = List.filter_map (fun (_, r) -> Result.to_option r) outcomes in
  let delta = Int64.sub (Ir.Trace.counter "vec.vectorized") before in
  if stats <> [] then begin
    (match Ir.Verify.check m with
    | Ok () -> ()
    | Error e -> ctx.H.fail "verifier: %s" e);
    (match
       Ir.Obs.compare ~license:Ir.Obs.Permute_iterations
         (Lazy.force k.H.reference) (Ir.Obs.run ~fuel:k.H.fuel m)
     with
    | `Equal -> ()
    | `Timed_out msg -> ctx.H.fail "behaviour gate: %s" msg
    | `Mismatch (msg, witness) ->
      ctx.H.fail "behaviour gate: %s\n%s" msg (String.concat "\n" witness));
    (* no new static-analysis errors on the widened module *)
    let errs m = List.length (Noelle.Check.errors (Noelle.Check.run m)) in
    let before_errs = errs (H.compile k) and after_errs = errs m in
    if after_errs > before_errs then
      ctx.H.fail "noelle-check errors went %d -> %d" before_errs after_errs
  end;
  if List.mem k.H.name must_vectorize && delta <= 0L then
    ctx.H.fail "expected vec.vectorized > 0, loop left scalar";
  ctx.H.say "%-16s %d vectorized / %d considered%s\n" k.H.name
    (List.length stats) (List.length outcomes)
    (if List.exists (fun (s : Ntools.Vec.stats) -> s.Ntools.Vec.if_converted) stats
     then " (if-converted)"
     else "")

let vec =
  H.gate "vec" vec_kernel ~at_end:(fun ctx ->
      (* a sweep where predication never fires proves nothing about it *)
      if ctx.H.kernels = List.length Bsuite.Kernels.all
         && ctx.H.delta "vec.if_converted" = 0L
      then ctx.H.fail "no divergent kernel vectorized via if-conversion")

(* ------------------------------------------------------------------ *)

let all_gates () = [ lint; meta; validate (); bounds (); vec ]

let run selected limit seeds quiet =
  let gates =
    List.filter
      (fun g -> selected = [] || List.mem g.H.name selected)
      (all_gates ())
  in
  if H.run ?limit ?seeds ~quiet gates = [] then 0 else 1

let selected =
  let names = List.map (fun g -> (g.H.name, g.H.name)) (all_gates ()) in
  Arg.(value & opt (list (enum names)) [] & info [ "gate" ] ~docv:"GATES"
         ~doc:"comma-separated gates to run (default: all of lint, meta, \
               validate, bounds, vec)")
let limit =
  Arg.(value & opt (some int) None & info [ "limit" ] ~docv:"N"
         ~doc:"cap every gate at the first $(docv) kernels (sweep-end \
               assertions that need the full corpus are skipped)")
let seeds =
  Arg.(value & opt (some int) None & info [ "seeds" ] ~docv:"N"
         ~doc:"cap every gate at $(docv) fuzz seeds")
let quiet = Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"only report failures")

let cmd =
  Cmd.v
    (Cmd.info "noelle-gate"
       ~doc:"Corpus gates (lint, meta, validate, bounds, vec) over one harness")
    Term.(const run $ selected $ limit $ seeds $ quiet)

let () = exit (Cmd.eval' cmd)
