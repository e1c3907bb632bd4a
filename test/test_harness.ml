(** Bsuite.Harness: the one corpus-gate loop behind [noelle-gate].

    Toy gates over a kernel prefix pin down what the harness owns:
    failures name their gate and kernel and make the sweep fail, a
    kernel's pristine run is one {!Ir.Obs.run} that yields both the
    reference and the profile and runs once however many gates read
    either, and sweep-end assertions see only their own gate's counter
    deltas. *)

open Helpers
module H = Bsuite.Harness

let test_failure_names_kernel () =
  let fails =
    H.run ~limit:2 ~quiet:true
      [
        H.gate "toy" (fun ctx k ->
            if k.H.name = "crc32" then ctx.H.fail "planted");
        H.gate "raises" (fun _ k -> if k.H.name = "bitcount" then failwith "boom");
        H.gate "clean" (fun _ _ -> ());
      ]
  in
  check
    Alcotest.(list string)
    "every failure, named by gate and kernel"
    [ "raises: bitcount: raised Failure(\"boom\")"; "toy: crc32: planted" ]
    (List.sort compare fails)

let test_reference_shared () =
  let read _ (k : H.kernel) = ignore (H.reference k) in
  let runs () = Ir.Trace.counter "harness.reference_runs" in
  checkb "gates that never read it cost no reference run"
    (H.run ~limit:1 ~quiet:true [ H.gate "a" (fun _ _ -> ()) ] = []
    && runs () = 0L);
  checkb "two readers pass"
    (H.run ~limit:1 ~quiet:true [ H.gate "a" read; H.gate "b" read ] = []);
  check Alcotest.int64 "one reference run for two readers" 1L (runs ());
  checkb "a profile reader and a reference reader pass"
    (H.run ~limit:1 ~quiet:true
       [ H.gate "p" (fun _ k -> ignore (H.profile k)); H.gate "r" read ]
    = []);
  check Alcotest.int64 "one pristine run serves both" 1L (runs ())

(* every table of a profile, in a canonical order *)
let tables (p : Noelle.Profiler.t) =
  let sorted t = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t []) in
  let open Noelle.Profiler in
  ( (sorted p.block_counts, sorted p.edge_counts),
    (sorted p.fn_insts, sorted p.fn_calls, sorted p.call_pair),
    p.total_insts )

let test_profile_is_profiler_run () =
  List.iter
    (fun name ->
      let k = Option.get (Bsuite.Kernels.find name) in
      let p, _ = Noelle.Profiler.run ~fuel:k.Bsuite.Kernels.fuel (Bsuite.Kernels.compile k) in
      checkb (name ^ ": the harness profile is Profiler.run's")
        (tables (H.profile (H.kernel k)) = tables p))
    [ "crc32"; "histogram" ]

let test_per_gate_deltas () =
  let seen = ref [] in
  let bump _ _ = Ir.Trace.incr_m "vec.if_converted" in
  let assert_own name ctx =
    seen := (name, (ctx.H.delta "vec.if_converted", (ctx.H.kernels, ctx.H.seeds)))
            :: !seen;
    if ctx.H.delta "vec.if_converted" = 0L then ctx.H.fail "never if-converted"
  in
  let fails =
    H.run ~limit:3 ~seeds:1 ~quiet:true
      [
        H.gate "bumps" bump ~at_end:(assert_own "bumps");
        H.gate "reads" (fun _ _ -> ()) ~kernels:2 ~seeds:4
          ~on_seed:bump ~at_end:(assert_own "reads");
      ]
  in
  (* interleaved with a gate that bumps the counter on every kernel, the
     second gate's assertion still sees only its own (seed) increments *)
  check
    Alcotest.(list (pair string (pair int64 (pair int int))))
    "per-gate deltas and capped coverage"
    [ ("bumps", (3L, (3, 0))); ("reads", (1L, (2, 1))) ]
    (List.rev !seen);
  check Alcotest.(list string) "no failures" [] fails;
  let fails =
    H.run ~limit:1 ~quiet:true
      [ H.gate "bumps" bump; H.gate "reads" (fun _ _ -> ()) ~at_end:(assert_own "reads") ]
  in
  check Alcotest.(list string) "another gate's increments do not count"
    [ "reads: never if-converted" ] fails

let test_reference_is_obs_run () =
  let k = List.hd Bsuite.Kernels.all in
  let hk = H.kernel k in
  let r = H.reference hk in
  checkb "the reference is Obs.run at the gate fuel"
    (r = Ir.Obs.run ~fuel:hk.H.fuel (Bsuite.Kernels.compile k));
  let _, _, seq = Psim.Runtime.run_sequential ~fuel:hk.H.fuel (H.compile hk) in
  check Alcotest.int64 "its clock is the sequential cycle count" seq r.Ir.Obs.clock

let suite =
  [
    tc "harness: failure names gate and kernel" test_failure_names_kernel;
    tc "harness: one reference run per kernel" test_reference_shared;
    tc "harness: sweep-end reads per-gate deltas" test_per_gate_deltas;
    tc "harness: reference equals Obs.run" test_reference_is_obs_run;
    tc "harness: profile equals Profiler.run" test_profile_is_profiler_run;
  ]
