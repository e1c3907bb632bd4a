(** Tests of the observable-event oracle (DESIGN.md §12): trace shape and
    escape filtering, commutation licenses and their join, the exact and
    concurrent equivalence checkers with their minimal witnesses, the
    Effect_reorder fault class that only a trace gate can catch, a fuzz
    sweep showing the trace gate strictly stronger than the legacy output
    compare, the Psim replay protocol, and the behaviour comparator
    ({!Obs.compare}) every differential check goes through. *)

open Helpers
open Ir

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* two global cells, two stores with no dependence between them: the final
   memory image and the (empty) text output are insensitive to store
   order, so only the event trace distinguishes the two variants *)
let two_stores_src =
  {|
int g[4];
int h[4];
int main() {
  g[0] = 7;
  h[0] = 9;
  return 0;
}
|}

let two_stores_swapped_src =
  {|
int g[4];
int h[4];
int main() {
  h[0] = 9;
  g[0] = 7;
  return 0;
}
|}

(* stores into a non-escaping malloc'd buffer must stay OUT of the trace;
   the single global store and the print must be in it *)
let private_heap_src =
  {|
int g[2];
int main() {
  int *a = malloc(16);
  for (int i = 0; i < 16; i++) {
    a[i] = i * i;
  }
  g[0] = a[5];
  print(a[3]);
  return 0;
}
|}

let keys t = List.map (fun (e : Obs.event) -> Obs.action_key e.Obs.eact) t

let test_trace_shape () =
  let b = Obs.run ~fuel:100_000 (compile private_heap_src) in
  let t = b.Obs.trace in
  checkb "result" (b.Obs.result = Ok "exit=0\n9\n");
  checks "trace"
    "store @g[0] = 25 | call print(9) | exit 0"
    (String.concat " | " (keys t))

let test_exact_identity () =
  (* the gate must never reject the identity transformation *)
  let a = Obs.run ~fuel:100_000 (compile two_stores_src) in
  let b = Obs.run ~fuel:100_000 (compile two_stores_src) in
  match
    Obs.check ~license:Obs.Exact ~reference:a.Obs.trace ~candidate:b.Obs.trace
  with
  | Ok () -> ()
  | Error (msg, _) -> Alcotest.failf "identity rejected: %s" msg

let test_exact_witness () =
  let a = Obs.run ~fuel:100_000 (compile two_stores_src) in
  let b = Obs.run ~fuel:100_000 (compile two_stores_swapped_src) in
  (* the legacy oracle sees nothing... *)
  checkb "results agree" (a.Obs.result = b.Obs.result);
  (* ...the trace oracle produces a minimal witness *)
  match
    Obs.check ~license:Obs.Exact ~reference:a.Obs.trace ~candidate:b.Obs.trace
  with
  | Ok () -> Alcotest.fail "swapped stores accepted under the exact license"
  | Error (msg, witness) ->
    checkb "reason names the divergence point" (contains msg "diverges at event 0");
    checkb "witness shows the reference side"
      (List.exists (fun l -> contains l "- [0] store @g[0] = 7") witness);
    checkb "witness shows the candidate side"
      (List.exists (fun l -> contains l "+ [0] store @h[0] = 9") witness)

let test_trap_class_and_fuel_terminal () =
  checks "traps compare by class" (Obs.action_key (Obs.Trapped "inst 3: bad"))
    (Obs.action_key (Obs.Trapped "inst 9: worse"));
  let b = Obs.run ~fuel:40 (compile private_heap_src) in
  checkb "run reports the trap" (Result.is_error b.Obs.result);
  checkb "fuel exhausted" (Obs.fuel_exhausted b);
  match List.rev b.Obs.trace with
  | last :: _ -> checks "terminal" "out-of-fuel" (Obs.action_key last.Obs.eact)
  | [] -> Alcotest.fail "empty trace"

let test_license_join () =
  let all =
    [ Obs.Exact; Obs.Permute_iterations; Obs.Buffer_stages; Obs.Seq_segments ]
  in
  List.iter
    (fun l ->
      checkb "join is idempotent" (Obs.join l l = l);
      checkb "Exact is the identity" (Obs.join Obs.Exact l = l && Obs.join l Obs.Exact = l))
    all;
  checkb "mixing distinct concurrent licenses keeps only per-task order"
    (Obs.join Obs.Buffer_stages Obs.Seq_segments = Obs.Permute_iterations)

(* synthetic traces for the concurrent checker *)
let ev ?(task = -1) ?(seq = false) act =
  { Obs.etask = task; esection = (if task < 0 then -1 else 0); eseq = seq; eact = act }

let st g v = Obs.Store { sobj = "@" ^ g; soff = 0; svalue = string_of_int v }

let test_concurrent_check () =
  let reference = [ ev (st "a" 1); ev (st "b" 2); ev (st "c" 3) ] in
  (* cross-task interleaving is licensed: each task's stream is a
     subsequence of the reference *)
  let interleaved =
    [ ev ~task:1 (st "b" 2); ev ~task:0 (st "a" 1); ev ~task:0 (st "c" 3) ]
  in
  (match
     Obs.check ~license:Obs.Permute_iterations ~reference ~candidate:interleaved
   with
  | Ok () -> ()
  | Error (msg, _) -> Alcotest.failf "licensed interleaving rejected: %s" msg);
  (* a reorder WITHIN one task is never licensed *)
  let within =
    [ ev ~task:1 (st "b" 2); ev ~task:0 (st "c" 3); ev ~task:0 (st "a" 1) ]
  in
  (match
     Obs.check ~license:Obs.Permute_iterations ~reference ~candidate:within
   with
  | Ok () -> Alcotest.fail "in-task reorder accepted"
  | Error (msg, _) -> checkb "blames the task" (contains msg "task 0"));
  (* a dropped event shows up as a multiset difference *)
  let dropped = [ ev ~task:0 (st "a" 1); ev ~task:0 (st "c" 3) ] in
  (match
     Obs.check ~license:Obs.Permute_iterations ~reference ~candidate:dropped
   with
  | Ok () -> Alcotest.fail "dropped event accepted"
  | Error (msg, witness) ->
    checkb "multisets differ" (contains msg "multisets");
    checkb "witness names the dropped store"
      (List.exists (fun l -> contains l "store @b[0] = 2") witness));
  (* Helix: sequential-segment events keep GLOBAL order even across tasks *)
  let seq_swapped =
    [ ev ~task:1 ~seq:true (st "b" 2); ev ~task:0 (st "a" 1);
      ev ~task:0 ~seq:true (st "c" 3) ]
  in
  let seq_ref =
    [ ev (st "a" 1); ev ~seq:true (st "c" 3); ev ~seq:true (st "b" 2) ]
  in
  (match
     Obs.check ~license:Obs.Seq_segments ~reference:seq_ref ~candidate:seq_swapped
   with
  | Ok () -> Alcotest.fail "seq-segment reorder accepted under seq-segments"
  | Error (msg, _) -> checkb "blames the segments" (contains msg "sequential segments"));
  match
    Obs.check ~license:Obs.Permute_iterations ~reference:seq_ref
      ~candidate:seq_swapped
  with
  | Ok () -> ()
  | Error (msg, _) ->
    Alcotest.failf "same candidate must pass without the seq constraint: %s" msg

let reorder_pass seed : Noelle.Pipeline.pass =
  {
    Noelle.Pipeline.pname = "effect-reorder";
    papply =
      (fun m ->
        match Faultgen.inject ~kinds:Faultgen.observable_kinds ~seed m with
        | Some d -> d
        | None -> Alcotest.fail "no reorder site in test program");
    plicense = Obs.Exact;
  }

let test_effect_reorder_old_gate_misses () =
  (* the satellite claim, end to end: a planted effect reorder sails
     through the legacy output-compare gate and dies at the trace gate
     with a witness *)
  let config =
    { Noelle.Pipeline.default_config with Noelle.Pipeline.fuel = 200_000 }
  in
  let m = compile two_stores_src in
  let r = Noelle.Pipeline.run ~config m [ reorder_pass 1 ] in
  (match r.Noelle.Pipeline.entries with
  | [ e ] -> (
    match e.Noelle.Pipeline.eoutcome with
    | Noelle.Pipeline.Rolled_back reason ->
      checkb "rejected by the differential gate" (contains reason "differential");
      checkb "a minimal event-diff witness was recorded"
        (e.Noelle.Pipeline.etrace_diff <> [])
    | o ->
      Alcotest.failf "trace gate: expected rollback, got %s"
        (Noelle.Pipeline.outcome_to_string o))
  | es -> Alcotest.failf "expected 1 entry, got %d" (List.length es));
  checkb "final module ok after rollback" r.Noelle.Pipeline.final_ok;
  (* the legacy oracle alone — exit value + flat output — cannot tell
     the reordered module from the original *)
  let run m = Noelle.Pipeline.interp_exec m ~args:[] ~fuel:200_000 in
  let m' = compile two_stores_src in
  ignore ((reorder_pass 1).Noelle.Pipeline.papply m');
  checkb "legacy oracle blind to the reorder"
    ((run (compile two_stores_src)).Obs.result = (run m').Obs.result)

let test_fuzz_sweep_strictly_stronger () =
  (* over 50 generated programs: (a) the trace gate never rejects the
     identity, (b) every plantable effect reorder is invisible to the
     legacy oracle yet rejected by the trace oracle *)
  let fuel = 1_000_000 in
  let planted = ref 0 in
  for seed = 1 to 50 do
    let name = Printf.sprintf "fuzz%d" seed in
    let src = Bsuite.Generator.program seed in
    let m = Minic.Lower.compile ~name src in
    let ra = Obs.run ~fuel m in
    let again = Obs.run ~fuel (Minic.Lower.compile ~name src) in
    let reference = ra.Obs.trace in
    (match
       Obs.check ~license:Obs.Exact ~reference ~candidate:again.Obs.trace
     with
    | Ok () -> ()
    | Error (msg, _) -> Alcotest.failf "seed %d: identity rejected: %s" seed msg);
    if Result.is_ok ra.Obs.result then begin
      let m' = Minic.Lower.compile ~name src in
      match Faultgen.inject ~kinds:Faultgen.observable_kinds ~seed m' with
      | None -> ()
      | Some desc ->
        incr planted;
        let rb = Obs.run ~fuel m' in
        checkb
          (Printf.sprintf "seed %d: %s: legacy oracle blind" seed desc)
          (ra.Obs.result = rb.Obs.result);
        match
          Obs.check ~license:Obs.Exact ~reference ~candidate:rb.Obs.trace
        with
        | Ok () ->
          Alcotest.failf "seed %d: %s: trace oracle also blind" seed desc
        | Error (_, witness) ->
          checkb
            (Printf.sprintf "seed %d: witness non-empty" seed)
            (witness <> [])
    end
  done;
  checkb
    (Printf.sprintf "sweep planted enough reorders to mean something (%d)"
       !planted)
    (!planted >= 10)

let test_parallelizers_pass_trace_gate () =
  (* the full standard stack on a parallelizable kernel: every pass must
     clear the trace-equivalence gate *)
  let k =
    match Bsuite.Kernels.find "histogram" with
    | Some k -> k
    | None -> Alcotest.fail "histogram kernel missing"
  in
  let m = Bsuite.Kernels.compile k in
  let report =
    Ntools.Passes.run_standard ~fuel:(4 * k.Bsuite.Kernels.fuel) m
  in
  List.iter
    (fun (e : Noelle.Pipeline.entry) ->
      match e.Noelle.Pipeline.eoutcome with
      | Noelle.Pipeline.Committed _ -> ()
      | o ->
        Alcotest.failf "%s: %s" e.Noelle.Pipeline.epass
          (Noelle.Pipeline.outcome_to_string o))
    report.Noelle.Pipeline.entries;
  checkb "final ok" report.Noelle.Pipeline.final_ok

(* the replay protocol is the pipeline's final check: a parallel module's
   tagged schedule, run under Psim, against the pristine sequential run *)
let test_psim_replay_validation () =
  let k =
    match Bsuite.Kernels.find "histogram" with
    | Some k -> k
    | None -> Alcotest.fail "histogram kernel missing"
  in
  let fuel = 4 * k.Bsuite.Kernels.fuel in
  let reference = Obs.run ~fuel (Bsuite.Kernels.compile k) in
  let m = Bsuite.Kernels.compile k in
  ignore (Ntools.Passes.run_standard ~fuel m);
  (match
     Obs.compare ~license:Obs.Permute_iterations reference
       (Psim.Runtime.run_traced ~fuel m)
   with
  | `Equal -> ()
  | `Timed_out msg -> Alcotest.failf "replay ran out of fuel: %s" msg
  | `Mismatch (msg, witness) ->
    Alcotest.failf "replay rejected: %s\n%s" msg (String.concat "\n" witness));
  (* and the negative: replaying against an original whose effects were
     reordered must fail even under the DOALL license, because both
     streams live in one task *)
  let bad_original = compile two_stores_src in
  ignore
    (Faultgen.inject ~kinds:Faultgen.observable_kinds ~seed:1 bad_original);
  match
    Obs.compare ~license:Obs.Permute_iterations
      (Obs.run ~fuel:100_000 bad_original)
      (Psim.Runtime.run_traced ~fuel:100_000 (compile two_stores_src))
  with
  | `Mismatch (_, _ :: _) -> ()
  | _ -> Alcotest.fail "replay accepted a reordered original"

let print_then_return ret = Printf.sprintf "int main() { print(3); return %s; }" ret

let test_compare_sees_exit_value () =
  (* an output-only check passes this candidate: same text, other exit *)
  let reference = Obs.run ~fuel:10_000 (compile (print_then_return "0")) in
  let candidate = Obs.run ~fuel:10_000 (compile (print_then_return "1")) in
  match Obs.compare ~license:Obs.Permute_iterations reference candidate with
  | `Mismatch (msg, _) -> checkb "names both exits" (contains msg "exit=1")
  | _ -> Alcotest.fail "a changed exit value was accepted"

let test_compare_trapping_candidate () =
  let reference = Obs.run ~fuel:10_000 (compile (print_then_return "0")) in
  let candidate =
    Obs.run ~fuel:10_000 (compile ("int g[1];\n" ^ print_then_return "5 / g[0]"))
  in
  checkb "the candidate trapped" (Result.is_error candidate.Obs.result);
  match Obs.compare ~license:Obs.Exact reference candidate with
  | `Mismatch (msg, _) -> checkb "reports the trap" (contains msg "division by zero")
  | `Timed_out _ -> Alcotest.fail "a genuine trap is not fuel exhaustion"
  | `Equal -> Alcotest.fail "a trapping candidate was accepted"

let test_counters_registered () =
  Ir.Trace.enable ();
  let names =
    Fun.protect
      ~finally:(fun () ->
        Ir.Trace.disable ();
        Ir.Trace.reset ())
      (fun () ->
        ignore (Obs.run ~fuel:100_000 (compile private_heap_src));
        let reference = [ ev (st "a" 1) ] in
        ignore (Obs.check ~license:Obs.Exact ~reference ~candidate:reference);
        List.map fst (Ir.Trace.metrics ()))
  in
  List.iter
    (fun c -> checkb (c ^ " registered") (List.mem c names))
    [ "obs.events"; "obs.trace_compares" ]

(* The recorder's lookup on the interpreter's allocation index against
   the linear scan it replaced: a hash table of base -> (name, size),
   folded over in full, where an unnamed record is not observable.  On
   bump-allocated records (each starts at or past the end of the one
   below) both must render every address alike, zero-size records
   included. *)
let linear_render tbl addr =
  let hit =
    Hashtbl.fold
      (fun base (name, size) acc ->
        match acc with
        | Some _ -> acc
        | None ->
          if name <> "" && addr >= base && addr < base + size then Some (base, name) else None)
      tbl None
  in
  match hit with
  | _ when addr = 0 -> "null"
  | None -> "&_"
  | Some (base, name) when addr = base -> "&" ^ name
  | Some (base, name) -> Printf.sprintf "&%s+%d" name (addr - base)

(* each record, in base order, is allocated at its base by moving the
   bump pointer forward over the gap, then named *)
let check_lookup label objs =
  let tbl = Hashtbl.create 16 in
  let st = Interp.create (Irmod.create ()) in
  let r = Obs.attach ~sites:(Hashtbl.create 1) st in
  let ix = st.Interp.by_base in
  List.iter
    (fun (base, name, size) ->
      Hashtbl.replace tbl base (name, size);
      st.Interp.brk <- base;
      ignore (Interp.allocate st size);
      ix.Interp.recs.(Interp.alloc_at ix base).Interp.name <- name)
    objs;
  let top = List.fold_left (fun t (b, _, s) -> max t (b + s)) 0 objs in
  let probes =
    List.concat_map (fun (b, _, s) -> [ b - 1; b; b + s - 1; b + s ]) objs
    @ List.init (top + 3) Fun.id
  in
  List.iter
    (fun addr ->
      let got = Obs.render r (Interp.VP addr) and want = linear_render tbl addr in
      if got <> want then
        Alcotest.failf "%s: address %d renders %s, the scan says %s" label addr got want)
    probes

let test_object_lookup () =
  check_lookup "empty" [];
  check_lookup "one object" [ (16, "a", 4) ];
  check_lookup "zero-size objects"
    [ (16, "z0", 0); (17, "a", 3); (20, "z1", 0); (21, "z2", 0); (22, "b", 1) ];
  check_lookup "unnamed between named" [ (16, "a", 2); (18, "", 3); (21, "", 0); (22, "b", 2) ];
  (* randomized: bump-allocated bases with gaps, sizes 0-5, a third of
     them unnamed *)
  for seed = 1 to 200 do
    let rng = Random.State.make [| seed |] in
    let base = ref (16 + Random.State.int rng 4) in
    let objs =
      List.init (Random.State.int rng 12) (fun k ->
          let size = Random.State.int rng 6 in
          let name = if Random.State.int rng 3 = 0 then "" else Printf.sprintf "o%d" k in
          let o = (!base, name, size) in
          base := !base + max size 1 + Random.State.int rng 3;
          o)
    in
    check_lookup (Printf.sprintf "seed %d" seed) objs
  done

(* a non-escaping array allocated between two escaping mallocs: stores
   into it are no events, a pointer into it renders as [&_], and the
   mallocs are still heap#0 and heap#1 *)
let test_private_array () =
  let src =
    {|
int *g;
int *h;
int *l;
int main() {
  g = malloc(3);
  int local[4];
  h = malloc(2);
  for (int i = 0; i < 4; i++) { local[i] = i * 3; }
  g[0] = local[2];
  h[1] = local[3];
  l = (int*)((int)local + 1);
  return 0;
}
|}
  in
  let b = Obs.run ~fuel:100_000 (compile src) in
  checks "trace"
    "store @g[0] = &heap#0 | store @h[0] = &heap#1 | store heap#0[0] = 6 \
     | store heap#1[1] = 9 | store @l[0] = &_ | exit 0"
    (String.concat " | " (keys b.Obs.trace))

let suite =
  [
    tc "obs: trace shape and escape filtering" test_trace_shape;
    tc "obs: exact check accepts the identity" test_exact_identity;
    tc "obs: exact check yields a minimal witness" test_exact_witness;
    tc "obs: trap class and fuel terminal" test_trap_class_and_fuel_terminal;
    tc "obs: license join laws" test_license_join;
    tc "obs: concurrent checker licenses and rejections" test_concurrent_check;
    tc "obs: planted reorder beats the legacy gate only"
      test_effect_reorder_old_gate_misses;
    tc "obs: 50-seed sweep, trace gate strictly stronger"
      test_fuzz_sweep_strictly_stronger;
    tc "obs: parallelizers clear the trace gate" test_parallelizers_pass_trace_gate;
    tc "obs: psim replay validation" test_psim_replay_validation;
    tc "obs: compare sees the exit value" test_compare_sees_exit_value;
    tc "obs: compare reports a trapping candidate" test_compare_trapping_candidate;
    tc "obs: telemetry counters registered" test_counters_registered;
    tc "obs: ordered object lookup matches the linear scan" test_object_lookup;
    tc "obs: a private array between escaping mallocs" test_private_array;
  ]
