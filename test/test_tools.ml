(** Tests of the ten custom tools: semantics preservation, expected
    transformations, and the properties the paper's evaluation measures. *)

open Helpers
open Ir

(* ------------------------------------------------------------------ *)
(* LICM                                                                *)
(* ------------------------------------------------------------------ *)

let test_licm_all_kernels () =
  each_kernel (fun k m ->
      let expected = output ~fuel:k.Bsuite.Kernels.fuel m in
      let n = Noelle.create m in
      ignore (Ntools.Licm.run n m);
      verifies ("licm " ^ k.Bsuite.Kernels.kname) m;
      checks (k.Bsuite.Kernels.kname ^ ": LICM preserves output") expected
        (output ~fuel:k.Bsuite.Kernels.fuel m))

let test_licm_hoists_more_than_baseline () =
  (* the loop stores through an argument pointer; hoisting the invariant
     load of @g requires disproving the alias, which only the NOELLE
     stack (Andersen) can do — the baseline AA must give up on arg vs
     global *)
  let src =
    {|
int g[1] = {21};
int fill(int *p, int n) {
  int s = 0;
  for (int i = 0; i < n; i++) {
    int k = g[0];       // invariant load: needs p-vs-@g disambiguation
    p[i] = k;
    s += k;
  }
  return s;
}
int main() {
  int *buf = malloc(50);
  print(fill(buf, 50));
  return 0;
}
|}
  in
  let m1 = compile src in
  let n = Noelle.create m1 in
  let s_noelle = Ntools.Licm.run n m1 in
  let m2 = compile src in
  let s_llvm = Ntools.Licm_llvm.run m2 in
  checkb "NOELLE LICM hoists more"
    (s_noelle.Ntools.Licm.hoisted > s_llvm.Ntools.Licm_llvm.hoisted);
  (* both preserve semantics *)
  checks "same output" (output m1) (output m2)

let test_licm_llvm_all_kernels () =
  each_kernel (fun k m ->
      let expected = output ~fuel:k.Bsuite.Kernels.fuel m in
      ignore (Ntools.Licm_llvm.run m);
      verifies ("licm-llvm " ^ k.Bsuite.Kernels.kname) m;
      checks (k.Bsuite.Kernels.kname ^ ": baseline LICM preserves output") expected
        (output ~fuel:k.Bsuite.Kernels.fuel m))

(* ------------------------------------------------------------------ *)
(* Dead function elimination                                           *)
(* ------------------------------------------------------------------ *)

let test_deadfunc () =
  let k = Option.get (Bsuite.Kernels.find "deadcalls") in
  let m = Bsuite.Kernels.compile k in
  let expected = output m in
  let n = Noelle.create m in
  let s = Ntools.Deadfunc.run n m () in
  verifies "deadfunc" m;
  checks "output preserved" expected (output m);
  checkb "removed the dead helpers"
    (List.mem "helper_dead1" s.Ntools.Deadfunc.removed
    && List.mem "helper_dead3" s.Ntools.Deadfunc.removed
    && List.mem "fhelper_dead" s.Ntools.Deadfunc.removed);
  checkb "kept the used ones"
    (not (List.mem "helper_used" s.Ntools.Deadfunc.removed));
  checkb "kept the address-taken indirect target"
    (not (List.mem "via_ptr" s.Ntools.Deadfunc.removed));
  checkb "removed unreferenced indirect candidate"
    (List.mem "dead_via_ptr" s.Ntools.Deadfunc.removed);
  checkb "binary size shrank (4.5)" (Ntools.Deadfunc.reduction s > 0.0)

(* ------------------------------------------------------------------ *)
(* Parallelizers: semantics on the whole corpus                        *)
(* ------------------------------------------------------------------ *)

let parallel_preserves name apply =
  each_kernel (fun k m ->
      (* PRVG-dependent outputs are schedule-stable here because tasks run
         deterministically, but skip the rand-driven kernel for HELIX/DSWP
         anyway: rand order is what those loops must NOT reorder *)
      let expected = output ~fuel:k.Bsuite.Kernels.fuel m in
      let p, _ = Noelle.Profiler.run ~fuel:k.Bsuite.Kernels.fuel m in
      Noelle.Profiler.embed p m;
      let n = Noelle.create m in
      let _results = apply n m in
      verifies (name ^ " " ^ k.Bsuite.Kernels.kname) m;
      let got, _ = run_parallel ~fuel:(3 * k.Bsuite.Kernels.fuel) m in
      checks
        (Printf.sprintf "%s: %s preserves output" k.Bsuite.Kernels.kname name)
        expected got)

let test_doall_corpus () =
  parallel_preserves "DOALL" (fun n m -> ignore (Ntools.Doall.run n m ~ncores:12 ()))

let test_helix_corpus () =
  parallel_preserves "HELIX" (fun n m -> ignore (Ntools.Helix.run n m ~ncores:12 ()))

let test_dswp_corpus () =
  parallel_preserves "DSWP" (fun n m -> ignore (Ntools.Dswp.run n m ()))

let test_doall_speedup () =
  let k = Option.get (Bsuite.Kernels.find "blackscholes") in
  let m = Bsuite.Kernels.compile k in
  let _, _, seq = Psim.Runtime.run_sequential ~fuel:k.Bsuite.Kernels.fuel m in
  let p, _ = Noelle.Profiler.run ~fuel:k.Bsuite.Kernels.fuel m in
  Noelle.Profiler.embed p m;
  let n = Noelle.create m in
  let results = Ntools.Doall.run n m ~ncores:12 () in
  checkb "parallelized at least one loop"
    (List.exists (fun (_, r) -> Result.is_ok r) results);
  let _, par = run_parallel ~fuel:(3 * k.Bsuite.Kernels.fuel) m in
  checkb
    (Printf.sprintf "blackscholes DOALL speedup > 5 (got %.2f)"
       (Int64.to_float seq /. Int64.to_float par))
    (Int64.to_float seq /. Int64.to_float par > 5.0)

let test_doall_rejects_sequential () =
  let k = Option.get (Bsuite.Kernels.find "sha") in
  let m = Bsuite.Kernels.compile k in
  let n = Noelle.create m in
  let results = Ntools.Doall.run n m ~ncores:12 () in
  (* the hash recurrence loop must not be DOALL'd *)
  checkb "sha recurrence rejected"
    (List.exists
       (fun (id, r) ->
         Result.is_error r && String.length id > 0)
       results)

let test_helix_speedup_on_recurrence () =
  let k = Option.get (Bsuite.Kernels.find "swaptions") in
  let m = Bsuite.Kernels.compile k in
  let _, _, seq = Psim.Runtime.run_sequential ~fuel:k.Bsuite.Kernels.fuel m in
  let p, _ = Noelle.Profiler.run ~fuel:k.Bsuite.Kernels.fuel m in
  Noelle.Profiler.embed p m;
  (* DOALL cannot touch it *)
  let m_doall = Bsuite.Kernels.compile k in
  let p2, _ = Noelle.Profiler.run ~fuel:k.Bsuite.Kernels.fuel m_doall in
  Noelle.Profiler.embed p2 m_doall;
  let nd = Noelle.create m_doall in
  checkb "DOALL rejects the Monte-Carlo loop"
    (not
       (List.exists (fun (_, r) -> Result.is_ok r) (Ntools.Doall.run nd m_doall ())));
  (* HELIX can *)
  let n = Noelle.create m in
  let results = Ntools.Helix.run n m ~ncores:12 () in
  let ok =
    List.filter_map (fun (_, r) -> Result.to_option r) results
  in
  checkb "HELIX parallelizes it" (ok <> []);
  checkb "with a sequential segment"
    (List.exists (fun (s : Ntools.Helix.stats) -> s.Ntools.Helix.nsegments >= 1) ok);
  let _, par = run_parallel ~fuel:(3 * k.Bsuite.Kernels.fuel) m in
  checkb
    (Printf.sprintf "HELIX speedup > 1.5 (got %.2f)"
       (Int64.to_float seq /. Int64.to_float par))
    (Int64.to_float seq /. Int64.to_float par > 1.5)

let test_dswp_pipeline () =
  let k = Option.get (Bsuite.Kernels.find "ferret") in
  let m = Bsuite.Kernels.compile k in
  let _, _, seq = Psim.Runtime.run_sequential ~fuel:k.Bsuite.Kernels.fuel m in
  let p, _ = Noelle.Profiler.run ~fuel:k.Bsuite.Kernels.fuel m in
  Noelle.Profiler.embed p m;
  let n = Noelle.create m in
  let results = Ntools.Dswp.run n m () in
  let ok = List.filter_map (fun (_, r) -> Result.to_option r) results in
  checkb "DSWP builds a pipeline" (ok <> []);
  checkb "with queues"
    (List.exists (fun (s : Ntools.Dswp.stats) -> s.Ntools.Dswp.nqueues >= 1) ok);
  let _, par = run_parallel ~fuel:(3 * k.Bsuite.Kernels.fuel) m in
  checkb "not slower than 0.9x" (Int64.to_float seq /. Int64.to_float par > 0.9)

(* ------------------------------------------------------------------ *)
(* Perspective                                                          *)
(* ------------------------------------------------------------------ *)

let test_perspective () =
  let k = Option.get (Bsuite.Kernels.find "histogram") in
  let m = Bsuite.Kernels.compile k in
  let expected = output ~fuel:k.Bsuite.Kernels.fuel m in
  let p, _ = Noelle.Profiler.run ~fuel:k.Bsuite.Kernels.fuel m in
  Noelle.Profiler.embed p m;
  Ntools.Perspective.profile_conflicts ~fuel:k.Bsuite.Kernels.fuel m;
  (* DOALL alone must reject the histogram loop (apparent conflicts) *)
  let m2 = Bsuite.Kernels.compile k in
  let p2, _ = Noelle.Profiler.run ~fuel:k.Bsuite.Kernels.fuel m2 in
  Noelle.Profiler.embed p2 m2;
  let n2 = Noelle.create m2 in
  let doall_oks =
    List.filter (fun (_, r) -> Result.is_ok r) (Ntools.Doall.run n2 m2 ())
  in
  (* the init and sum loops may be parallelized, but the update loop cannot *)
  checkb "DOALL cannot take the histogram update loop"
    (List.length doall_oks < 3);
  let n = Noelle.create m in
  let results = Ntools.Perspective.run n m ~ncores:12 () in
  let ok = List.filter_map (fun (_, r) -> Result.to_option r) results in
  checkb "Perspective speculates it" (ok <> []);
  checkb "speculation was needed"
    (List.exists (fun (s : Ntools.Perspective.stats) -> s.Ntools.Perspective.speculated_edges > 0) ok);
  verifies "perspective" m;
  let got, _ = run_parallel ~fuel:(3 * k.Bsuite.Kernels.fuel) m in
  checks "outputs equal (speculation validated)" expected got

let test_memprofile_detects_conflicts () =
  (* a loop with a genuine cross-iteration dependence must be flagged *)
  let m =
    compile
      {|
int a[100];
int main() {
  a[0] = 1;
  for (int i = 1; i < 100; i++) { a[i] = a[i-1] + 1; }
  print(a[99]);
  return 0;
}
|}
  in
  Ntools.Perspective.profile_conflicts m;
  let n = Noelle.create m in
  let lp =
    List.find
      (fun lp ->
        Noelle.Profiler.available m |> ignore;
        (Noelle.Loop.structure lp).Noelle.Loopstructure.depth = 1)
      (Noelle.loops n (Irmod.func m "main"))
  in
  checkb "recurrence loop flagged as conflicting"
    (not (Ntools.Perspective.loop_is_clean m (Noelle.Loop.structure lp)))

(* ------------------------------------------------------------------ *)
(* Baseline auto-parallelizer                                          *)
(* ------------------------------------------------------------------ *)

let test_autopar_baseline_flat () =
  (* the gcc/icc stand-in finds (nearly) nothing on the corpus: the
     Figure 5 flat bars *)
  let total = ref 0 and ok = ref 0 in
  each_kernel (fun _k m ->
      let vs = Ntools.Autopar_baseline.run m in
      total := !total + List.length vs;
      ok := !ok + Ntools.Autopar_baseline.parallelized vs);
  checkb
    (Printf.sprintf "baseline parallelizes almost nothing (%d/%d)" !ok !total)
    (!ok * 20 < !total)

let test_autopar_accepts_canonical_dowhile () =
  (* a textbook do-while loop with provably private data is accepted, so
     the baseline is not a strawman *)
  let m =
    compile
      {|
int a[100];
int b[100];
int main() {
  int i = 0;
  do {
    a[i] = b[i] + 1;
    i++;
  } while (i < 100);
  print(a[5]);
  return 0;
}
|}
  in
  let vs = Ntools.Autopar_baseline.run m in
  checkb "canonical do-while accepted" (Ntools.Autopar_baseline.parallelized vs >= 1)

(* ------------------------------------------------------------------ *)
(* CARAT                                                               *)
(* ------------------------------------------------------------------ *)

let test_carat_preserves_and_guards () =
  let k = Option.get (Bsuite.Kernels.find "dijkstra") in
  let m = Bsuite.Kernels.compile k in
  let expected = output ~fuel:k.Bsuite.Kernels.fuel m in
  let n = Noelle.create m in
  let s = Ntools.Carat.run n m in
  verifies "carat" m;
  checkb "some accesses guarded"
    (s.Ntools.Carat.guards_inserted + s.Ntools.Carat.range_guards > 0);
  checkb "some accesses proven safe" (s.Ntools.Carat.proven_safe > 0);
  let _, out, _, rt = Ntools.Toolrt.run ~fuel:(3 * k.Bsuite.Kernels.fuel) m in
  checks "guarded program output" expected (String.trim out);
  checkb "guards executed dynamically" (rt.Ntools.Toolrt.guards_executed > 0L);
  checkb "no faults on a correct program" (Int64.equal rt.Ntools.Toolrt.guard_faults 0L)

let test_carat_catches_oob () =
  let m =
    compile
      {|
int main() {
  int *p = malloc(8);
  for (int i = 0; i < 8; i++) p[i] = i;
  free(p);
  print(p[3]);    // use after free
  return 0;
}
|}
  in
  let n = Noelle.create m in
  ignore (Ntools.Carat.run n m);
  match Ntools.Toolrt.run m with
  | exception Interp.Trap msg ->
    checkb "CARAT guard caught the bad access"
      (String.length msg >= 5 && String.sub msg 0 5 = "CARAT")
  | _ -> Alcotest.fail "expected a CARAT guard fault"

let test_carat_merges_range_guards () =
  let m =
    compile
      {|
int main() {
  int *buf = malloc(1000);
  int s = 0;
  for (int i = 0; i < 1000; i++) {
    buf[i] = i;
  }
  for (int i = 0; i < 1000; i++) {
    s += buf[i];
  }
  print(s);
  return 0;
}
|}
  in
  let n = Noelle.create m in
  let s = Ntools.Carat.run n m in
  checkb "loop guards merged into range guards" (s.Ntools.Carat.range_guards >= 2);
  let _, out, _, rt = Ntools.Toolrt.run m in
  checks "output" "499500" (String.trim out);
  (* merged guards: dynamic count should be tiny compared to 2000 accesses *)
  checkb "few dynamic guards" (rt.Ntools.Toolrt.guards_executed < 100L)

(* ------------------------------------------------------------------ *)
(* COOS                                                                *)
(* ------------------------------------------------------------------ *)

let test_coos_bounds_gap () =
  let k = Option.get (Bsuite.Kernels.find "susan") in
  let m = Bsuite.Kernels.compile k in
  let expected = output ~fuel:k.Bsuite.Kernels.fuel m in
  let n = Noelle.create m in
  let s = Ntools.Coos.run n m ~budget:400 () in
  verifies "coos" m;
  checkb "callbacks inserted" (s.Ntools.Coos.callbacks_inserted > 0);
  let _, out, _, rt = Ntools.Toolrt.run ~fuel:(3 * k.Bsuite.Kernels.fuel) m in
  checks "COOS preserves output" expected (String.trim out);
  checkb "callbacks fired" (rt.Ntools.Toolrt.callbacks > 0L);
  (* the max gap must be bounded: generously, budget * 4 accounts for
     block granularity and call boundaries *)
  checkb
    (Printf.sprintf "max gap %d bounded" rt.Ntools.Toolrt.max_gap)
    (rt.Ntools.Toolrt.max_gap <= 1600)

let test_coos_uninstrumented_has_big_gaps () =
  let k = Option.get (Bsuite.Kernels.find "susan") in
  let m = Bsuite.Kernels.compile k in
  let _, _, _, rt = Ntools.Toolrt.run ~fuel:k.Bsuite.Kernels.fuel m in
  (* without instrumentation no callback ever fires *)
  checkb "no callbacks" (Int64.equal rt.Ntools.Toolrt.callbacks 0L)

(* ------------------------------------------------------------------ *)
(* Time-Squeezer                                                       *)
(* ------------------------------------------------------------------ *)

let test_time_squeezer () =
  each_kernel (fun k m ->
      if k.Bsuite.Kernels.kname = "adpcm" || k.Bsuite.Kernels.kname = "dijkstra" then begin
        let expected = output ~fuel:k.Bsuite.Kernels.fuel m in
        let p, _ = Noelle.Profiler.run ~fuel:k.Bsuite.Kernels.fuel m in
        Noelle.Profiler.embed p m;
        let n = Noelle.create m in
        let s = Ntools.Timesqueezer.run n m in
        verifies ("time " ^ k.Bsuite.Kernels.kname) m;
        checks (k.Bsuite.Kernels.kname ^ ": TIME preserves output") expected
          (output ~fuel:k.Bsuite.Kernels.fuel m);
        checkb "estimated cycles do not regress"
          (s.Ntools.Timesqueezer.est_cycles_after
           <= s.Ntools.Timesqueezer.est_cycles_before +. 1e-6)
      end)

let test_time_swaps_cmps () =
  let m =
    compile
      {|
int main() {
  int s = 0;
  for (int i = 0; i < 10; i++) {
    if (5 < i) s++;       // constant on the left: swap candidate
  }
  print(s);
  return 0;
}
|}
  in
  let n = Noelle.create m in
  let s = Ntools.Timesqueezer.run n m in
  checkb "swapped the immediate-left compare" (s.Ntools.Timesqueezer.cmps_swapped >= 1);
  checks "semantics kept" "4" (output m)

(* ------------------------------------------------------------------ *)
(* PRVJeeves                                                           *)
(* ------------------------------------------------------------------ *)

let test_prvjeeves () =
  let k = Option.get (Bsuite.Kernels.find "montecarlo") in
  (* reference run with the costed runtime *)
  let m_ref = Bsuite.Kernels.compile k in
  let _, _, ref_cycles, _ = Ntools.Toolrt.run ~fuel:k.Bsuite.Kernels.fuel m_ref in
  let m = Bsuite.Kernels.compile k in
  let p, _ = Noelle.Profiler.run ~fuel:k.Bsuite.Kernels.fuel m in
  Noelle.Profiler.embed p m;
  let n = Noelle.create m in
  let s = Ntools.Prvjeeves.run n m () in
  verifies "prvj" m;
  checkb "found the rand sites" (List.length s.Ntools.Prvjeeves.sites = 2);
  checkb "replaced hot masked sites" (s.Ntools.Prvjeeves.changed >= 1);
  let _, _, new_cycles, _ = Ntools.Toolrt.run ~fuel:k.Bsuite.Kernels.fuel m in
  checkb
    (Printf.sprintf "cheaper generator saves cycles (%Ld -> %Ld)" ref_cycles new_cycles)
    (new_cycles < ref_cycles)

let test_prvj_keeps_cold_sites () =
  let m =
    compile
      {|
int main() {
  srand(1);
  int cold = rand() % 16;    // executed once: PRO prunes it
  print(cold);
  return 0;
}
|}
  in
  let p, _ = Noelle.Profiler.run m in
  Noelle.Profiler.embed p m;
  let n = Noelle.create m in
  let s = Ntools.Prvjeeves.run n m () in
  checki "no change to cold sites" 0 s.Ntools.Prvjeeves.changed

let suite =
  [
    tc "LICM corpus" test_licm_all_kernels;
    tc "LICM beats baseline (fig 4)" test_licm_hoists_more_than_baseline;
    tc "LICM-llvm corpus" test_licm_llvm_all_kernels;
    tc "DEAD (4.5)" test_deadfunc;
    tc "DOALL corpus semantics" test_doall_corpus;
    tc "HELIX corpus semantics" test_helix_corpus;
    tc "DSWP corpus semantics" test_dswp_corpus;
    tc "DOALL speedup" test_doall_speedup;
    tc "DOALL rejects recurrences" test_doall_rejects_sequential;
    tc "HELIX on Monte-Carlo" test_helix_speedup_on_recurrence;
    tc "DSWP pipeline" test_dswp_pipeline;
    tc "Perspective speculates" test_perspective;
    tc "memory profile detects conflicts" test_memprofile_detects_conflicts;
    tc "autopar baseline flat (fig 5)" test_autopar_baseline_flat;
    tc "autopar accepts canonical" test_autopar_accepts_canonical_dowhile;
    tc "CARAT guards + preserves" test_carat_preserves_and_guards;
    tc "CARAT catches use-after-free" test_carat_catches_oob;
    tc "CARAT merges range guards" test_carat_merges_range_guards;
    tc "COOS bounds gaps" test_coos_bounds_gap;
    tc "COOS baseline has no callbacks" test_coos_uninstrumented_has_big_gaps;
    tc "TIME corpus" test_time_squeezer;
    tc "TIME swaps compares" test_time_swaps_cmps;
    tc "PRVJ saves cycles" test_prvjeeves;
    tc "PRVJ keeps cold sites" test_prvj_keeps_cold_sites;
  ]

(* ------------------------------------------------------------------ *)
(* Memory-object cloning (the paper's §4.4 future-work feature)        *)
(* ------------------------------------------------------------------ *)

let test_perspective_privatization () =
  let k = Option.get (Bsuite.Kernels.find "blocksort") in
  let m = Bsuite.Kernels.compile k in
  let expected = output ~fuel:k.Bsuite.Kernels.fuel m in
  let p, _ = Noelle.Profiler.run ~fuel:k.Bsuite.Kernels.fuel m in
  Noelle.Profiler.embed p m;
  (* plain DOALL must reject the scratch-buffer loop *)
  (let m0 = Bsuite.Kernels.compile k in
   let p0, _ = Noelle.Profiler.run ~fuel:k.Bsuite.Kernels.fuel m0 in
   Noelle.Profiler.embed p0 m0;
   let n0 = Noelle.create m0 in
   let oks =
     List.filter (fun (_, r) -> Result.is_ok r) (Ntools.Doall.run n0 m0 ~ncores:12 ())
   in
   checkb "DOALL cannot take the scratch loop" (List.length oks <= 1));
  (* Perspective clones the scratch object *)
  Ntools.Perspective.profile_conflicts ~fuel:k.Bsuite.Kernels.fuel m;
  let ls_of lp = Noelle.Loop.structure lp in
  let n = Noelle.create m in
  let f = Irmod.func m "main" in
  checkb "profile marks tmp privatizable somewhere"
    (List.exists
       (fun lp -> List.mem "tmp" (Ntools.Perspective.loop_privatizable m (ls_of lp)))
       (Noelle.loops n f));
  let results = Ntools.Perspective.run n m ~ncores:12 () in
  let ok = List.filter_map (fun (_, r) -> Result.to_option r) results in
  checkb "Perspective privatized the scratch buffer"
    (List.exists
       (fun (s : Ntools.Perspective.stats) ->
         List.mem "tmp" s.Ntools.Perspective.cloned_objects)
       ok);
  verifies "perspective privatization" m;
  let got, par = run_parallel ~fuel:(4 * k.Bsuite.Kernels.fuel) m in
  checks "outputs identical with cloned objects" expected got;
  let m_ref = Bsuite.Kernels.compile k in
  let _, _, seq = Psim.Runtime.run_sequential ~fuel:k.Bsuite.Kernels.fuel m_ref in
  checkb
    (Printf.sprintf "cloning yields real speedup (%.2f)"
       (Int64.to_float seq /. Int64.to_float par))
    (Int64.to_float seq /. Int64.to_float par > 3.0)

let test_privatization_rejects_live_scratch () =
  (* if the scratch contents are read after the loop, cloning is illegal
     and the profile must say so *)
  let src =
    {|
int data[1024];
int tmp[16];
int out[64];
int main() {
  for (int i = 0; i < 1024; i++) data[i] = (i * 7) & 255;
  for (int b = 0; b < 64; b++) {
    for (int j = 0; j < 16; j++) tmp[j] = data[b*16 + j] * 2;
    out[b] = tmp[0];
  }
  int post = tmp[3];    // scratch content observed after the loop
  int s = post;
  for (int b = 0; b < 64; b++) s += out[b];
  print(s);
  return 0;
}
|}
  in
  let m = compile src in
  let expected = output m in
  let p, _ = Noelle.Profiler.run m in
  Noelle.Profiler.embed p m;
  Ntools.Perspective.profile_conflicts m;
  let n = Noelle.create m in
  let f = Irmod.func m "main" in
  checkb "post-loop read poisons privatizability"
    (List.for_all
       (fun lp ->
         not
           (List.mem "tmp"
              (Ntools.Perspective.loop_privatizable m (Noelle.Loop.structure lp))))
       (Noelle.loops n f));
  ignore (Ntools.Perspective.run n m ~ncores:4 ~min_hotness:0.0 ~min_work:0.0 ());
  verifies "live-scratch program" m;
  let got, _ = run_parallel m in
  checks "still correct" expected got

(* ------------------------------------------------------------------ *)
(* VEC — predicated loop vectorization (DESIGN.md §16)                 *)
(* ------------------------------------------------------------------ *)

let vec_ok results = List.filter_map (fun (_, r) -> Result.to_option r) results

let test_vec_corpus () =
  each_kernel (fun k m ->
      let expected = output ~fuel:k.Bsuite.Kernels.fuel m in
      let n = Noelle.create m in
      ignore (Ntools.Vec.run n m ~only_best:false ());
      verifies ("vec " ^ k.Bsuite.Kernels.kname) m;
      checks (k.Bsuite.Kernels.kname ^ ": VEC preserves output") expected
        (output ~fuel:(4 * k.Bsuite.Kernels.fuel) m))

let test_vec_straightline () =
  (* trip 10 is not a multiple of any lane width: the widened loop takes
     the first 10/W groups and the scalar epilogue the remainder *)
  let src =
    {|
int a[10];
int main() {
  float s = 0.0;
  for (int i = 0; i < 10; i++) {
    a[i] = 3 * i + 1;
    s = s + 0.5 * i;
  }
  for (int i = 0; i < 10; i++) print(a[i]);
  print_float(s);
  return 0;
}
|}
  in
  let m = compile src in
  let expected = output m in
  let n = Noelle.create m in
  let ok =
    vec_ok (Ntools.Vec.run n m ~only_best:false ~min_work:0.0 ())
  in
  checkb "at least one loop vectorized" (ok <> []);
  let s = List.hd ok in
  checkb "lane-group factor is a real width" (s.Ntools.Vec.width >= 2);
  checkb "straight-line body needs no predication"
    (not s.Ntools.Vec.if_converted);
  verifies "vec straightline" m;
  checks "output preserved across epilogue split" expected (output m)

let test_vec_if_converts_divergent () =
  (* dijkstra-style conditional minimum update: the body diverges, so
     vectorization must go through if-conversion (masked store); the
     last loop nests a branch in a predicated arm, whose condition the
     folded edge predicates must follow *)
  let src =
    {|
int d[64];
int main() {
  for (int i = 0; i < 64; i++) d[i] = 1000 - 7 * i;
  for (int j = 0; j < 64; j++) {
    int nd = 3 * j + 10;
    if (nd < d[j]) { d[j] = nd; }
  }
  int s = 0;
  for (int j = 0; j < 64; j++) s += d[j];
  print(s);
  for (int i = 0; i < 64; i++) {
    int v = 0;
    if (i * 9 >= 120) { v = i + i; } else { if (i % 5 != 2) { v = 43; } else { v = 8; } }
    s = s + v;
  }
  print(s);
  return 0;
}
|}
  in
  let m = compile src in
  let expected = output m in
  let n = Noelle.create m in
  let ok =
    vec_ok (Ntools.Vec.run n m ~only_best:false ~min_work:0.0 ())
  in
  checkb "divergent loop vectorized"
    (List.exists (fun (s : Ntools.Vec.stats) -> s.Ntools.Vec.if_converted) ok);
  checkb "masked the conditional store"
    (List.exists (fun (s : Ntools.Vec.stats) -> s.Ntools.Vec.masked > 0) ok);
  verifies "vec if-conversion" m;
  checks "output preserved under predication" expected (output m)

let test_dswp_after_vec () =
  (* widened loops compute lane indices in their header; DSWP pops
     cross-stage values after the header, so it must refuse a partition
     that hands a header instruction another stage's value *)
  let k = Option.get (Bsuite.Kernels.find "lbm") in
  let m = Bsuite.Kernels.compile k in
  let n = Noelle.create m in
  ignore (Ntools.Vec.run n m ~ncores:4 ~min_work:0.0 ());
  Noelle.invalidate n;
  ignore (Ntools.Dswp.run n m ~min_hotness:0.0 ~min_work:0.0 ());
  verifies "dswp over widened loops" m

let test_vec_rejects_divergent_call () =
  (* a print on one arm is an observable side effect that predication
     cannot mask: the loop must be rejected, not silently reordered *)
  let src =
    {|
int main() {
  for (int i = 0; i < 100; i++) {
    if (i % 3 == 0) { print(i); }
  }
  return 0;
}
|}
  in
  let m = compile src in
  let n = Noelle.create m in
  let results = Ntools.Vec.run n m ~only_best:false ~min_work:0.0 () in
  checkb "divergent print rejected" (vec_ok results = []);
  checkb "rejection is reported"
    (List.exists (fun (_, r) -> Result.is_error r) results)

let test_vec_rejects_sequential () =
  (* loop-carried recurrence: lanes are not independent *)
  let src =
    {|
int main() {
  int x = 1;
  for (int i = 0; i < 50; i++) { x = (x * 3 + i) % 1000; }
  print(x);
  return 0;
}
|}
  in
  let m = compile src in
  let n = Noelle.create m in
  let results = Ntools.Vec.run n m ~only_best:false ~min_work:0.0 () in
  checkb "recurrence not vectorized" (vec_ok results = [])

let test_vec_trace_exact () =
  (* lane-serial groups + address-masked predication keep the observable
     event stream exact — not merely equivalent under a reorder license *)
  let k = Option.get (Bsuite.Kernels.find "dijkstra") in
  let m_ref = Bsuite.Kernels.compile k in
  let _, _, reference = Obs.run ~fuel:k.Bsuite.Kernels.fuel m_ref in
  let m = Bsuite.Kernels.compile k in
  let n = Noelle.create m in
  ignore (Ntools.Vec.run n m ~only_best:false ~min_work:0.0 ());
  let _, _, candidate = Obs.run ~fuel:(4 * k.Bsuite.Kernels.fuel) m in
  match Obs.check ~license:Obs.Exact ~reference ~candidate with
  | Ok () -> ()
  | Error (msg, _) -> Alcotest.failf "vec trace not exact: %s" msg

let suite_extra =
  [
    tc "PERS memory-object cloning" test_perspective_privatization;
    tc "PERS rejects live scratch" test_privatization_rejects_live_scratch;
    tc "VEC corpus semantics" test_vec_corpus;
    tc "VEC widened loop + epilogue" test_vec_straightline;
    tc "VEC if-converts divergence" test_vec_if_converts_divergent;
    tc "DSWP over widened loops verifies" test_dswp_after_vec;
    tc "VEC rejects divergent print" test_vec_rejects_divergent_call;
    tc "VEC rejects recurrences" test_vec_rejects_sequential;
    tc "VEC trace-exact" test_vec_trace_exact;
  ]
