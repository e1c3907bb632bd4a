(** Noelle.Serve: crash-consistent sharded artifact store, the serve
    loop, kill-and-recover soak, overload shedding (DESIGN.md §14). *)

open Helpers
open Ir
module Store = Serve.Store
module Workload = Serve.Workload

let tmp_root name = Filename.concat (Filename.get_temp_dir_name ()) ("noelle_serve_" ^ name)

let fresh_root name =
  let root = tmp_root name in
  Store.remove_tree root;
  root

let key ?(kind = "pdg") fn =
  { Store.kmod = "m"; kshard = "shard0"; kfn = fn; kkind = kind }

let corpus_src =
  {|
int work(int n) {
  int s = 0;
  for (int i = 0; i < n; i++) { s = s + i; }
  return s;
}
int main() {
  int a[16];
  for (int i = 0; i < 16; i++) { a[i] = work(i); }
  int s = 0;
  for (int i = 0; i < 16; i++) { s = s + a[i]; }
  print(s);
  return 0;
}
|}

let mini_corpus () = [ ("m", compile ~name:"m" corpus_src) ]

(* ------------------------------------------------------------------ *)
(* Store unit tests                                                    *)
(* ------------------------------------------------------------------ *)

let test_store_roundtrip () =
  let st = Store.open_store (fresh_root "rt") in
  Store.write st (key "f") ~fp:"aa" ~afp:"bb" ~payload:"1 2 mem\n3 4 ctrl";
  (match Store.lookup st (key "f") ~fp:"aa" ~afp:"bb" ~now:0 with
  | Store.Hit p -> checks "payload survives" "1 2 mem\n3 4 ctrl" p
  | _ -> Alcotest.fail "expected Hit");
  (* stale on code fingerprint, stale on analysis dependency *)
  (match Store.lookup st (key "f") ~fp:"zz" ~afp:"bb" ~now:0 with
  | Store.Miss_stale was -> checks "stamped-for fp" "aa" was
  | _ -> Alcotest.fail "expected Miss_stale on fp");
  (match Store.lookup st (key "f") ~fp:"aa" ~afp:"other" ~now:0 with
  | Store.Miss_stale _ -> ()
  | _ -> Alcotest.fail "expected Miss_stale on afp");
  (match Store.lookup st (key "g") ~fp:"aa" ~afp:"bb" ~now:0 with
  | Store.Miss_absent -> ()
  | _ -> Alcotest.fail "expected Miss_absent");
  Store.close st

let corrupt_file path f =
  let s = In_channel.with_open_bin path In_channel.input_all in
  let oc = open_out_bin path in
  output_string oc (f s);
  close_out oc

let test_store_corrupt_quarantine () =
  let root = fresh_root "corrupt" in
  let st = Store.open_store root in
  Store.write st (key "f") ~fp:"aa" ~afp:"-" ~payload:"payload";
  let path = Filename.concat root "m/shard0/f.pdg.art" in
  (* flip one payload byte: checksum must catch it, lookup must
     quarantine-and-miss, and the quarantine dir must hold the evidence *)
  corrupt_file path (fun s ->
      let b = Bytes.of_string s in
      Bytes.set b (String.length s - 1) 'X';
      Bytes.to_string b);
  (match Store.lookup st (key "f") ~fp:"aa" ~afp:"-" ~now:0 with
  | Store.Miss_corrupt why -> checks "reason" "payload checksum mismatch" why
  | _ -> Alcotest.fail "expected Miss_corrupt");
  checkb "artifact moved aside" (not (Sys.file_exists path));
  checki "quarantine holds it" 1
    (Array.length (Sys.readdir (Filename.concat root "quarantine")));
  checki "qcount" 1 st.Store.qcount;
  (* quarantined artifacts are out of service: next lookup is a plain miss *)
  (match Store.lookup st (key "f") ~fp:"aa" ~afp:"-" ~now:0 with
  | Store.Miss_absent -> ()
  | _ -> Alcotest.fail "expected Miss_absent after quarantine");
  Store.close st

let test_store_startup_sweep () =
  let root = fresh_root "sweep" in
  let st = Store.open_store root in
  Store.write st (key "f") ~fp:"aa" ~afp:"-" ~payload:"payload";
  Store.write st (key "g") ~fp:"cc" ~afp:"-" ~payload:"other";
  Store.close st;
  (* torn write shapes: one artifact truncated to zero length, one cut
     mid-payload — the reopen sweep must quarantine both, keep the rest *)
  corrupt_file (Filename.concat root "m/shard0/f.pdg.art") (fun _ -> "");
  let st = Store.open_store root in
  checki "zero-length quarantined at startup" 1 st.Store.last_recovery.Store.r_quarantined;
  checki "intact artifact survives" 1 st.Store.last_recovery.Store.r_live;
  Store.close st;
  corrupt_file (Filename.concat root "m/shard0/g.pdg.art") (fun s ->
      String.sub s 0 (String.length s - 3));
  let st = Store.open_store root in
  checki "truncated quarantined at startup" 1 st.Store.last_recovery.Store.r_quarantined;
  Store.close st

(** Kill at each of the three sub-points inside a write; recovery must
    yield byte-equivalent-or-recomputed state, never a torn artifact. *)
let test_store_kill_points () =
  List.iter
    (fun point ->
      let root = fresh_root (Printf.sprintf "kill%d" point) in
      let st = Store.open_store root in
      Store.write st (key "f") ~fp:"aa" ~afp:"-" ~payload:"original";
      Store.arm st Faultgen.Kill_mid_write ~seed:point ~now:0 ~stall_ticks:0;
      (match Store.write st (key "g") ~fp:"bb" ~afp:"-" ~payload:"victim" with
      | () -> Alcotest.fail "armed kill did not fire"
      | exception Store.Killed _ -> ());
      let st = Store.open_store root in
      checkb "recovery saw the pending intent"
        (st.Store.last_recovery.Store.r_pending >= 1);
      (* no torn temp file may survive *)
      checkb "no .tmp leftovers"
        (not (Sys.file_exists (Filename.concat root "m/shard0/g.pdg.art.tmp")));
      (* the victim is either absent (kill before rename) or fully valid
         (kill after rename): never corrupt, never half-written *)
      (match Store.lookup st (key "g") ~fp:"bb" ~afp:"-" ~now:0 with
      | Store.Miss_absent -> ()
      | Store.Hit p -> checks "post-rename artifact is complete" "victim" p
      | Store.Miss_corrupt why -> Alcotest.failf "torn artifact survived: %s" why
      | Store.Miss_stale _ -> Alcotest.fail "stale artifact after recovery");
      (* the unrelated artifact is untouched *)
      (match Store.lookup st (key "f") ~fp:"aa" ~afp:"-" ~now:0 with
      | Store.Hit p -> checks "bystander intact" "original" p
      | _ -> Alcotest.fail "bystander artifact lost");
      Store.close st)
    [ 0; 1; 2 ]

let test_store_stall_retry () =
  let root = fresh_root "stall" in
  let st = Store.open_store root in
  Store.write st (key "f") ~fp:"aa" ~afp:"-" ~payload:"p";
  Store.arm st Faultgen.Stall_shard ~seed:0 ~now:0 ~stall_ticks:5;
  (match Store.lookup st (key "f") ~fp:"aa" ~afp:"-" ~now:2 with
  | exception Store.Transient _ -> ()
  | _ -> Alcotest.fail "expected Transient while stalled");
  (* past the expiry tick the shard answers again *)
  (match Store.lookup st (key "f") ~fp:"aa" ~afp:"-" ~now:6 with
  | Store.Hit _ -> ()
  | _ -> Alcotest.fail "expected Hit after stall expiry");
  Store.close st

(* ------------------------------------------------------------------ *)
(* Shared reconcile helper (satellite)                                 *)
(* ------------------------------------------------------------------ *)

let test_reconcile_artifact () =
  checkb "same fp keeps"
    (Noelle.reconcile_artifact ~current:(Some "x") ~stamped:"x" = `Keep);
  checkb "moved fp drops"
    (Noelle.reconcile_artifact ~current:(Some "y") ~stamped:"x" = `Drop);
  checkb "missing subject drops"
    (Noelle.reconcile_artifact ~current:None ~stamped:"x" = `Drop)

(* ------------------------------------------------------------------ *)
(* Workload generator                                                  *)
(* ------------------------------------------------------------------ *)

let test_workload_deterministic () =
  let mods = [ "a"; "b" ] in
  let w1 = Workload.generate ~seed:7 ~mods ~requests:50 in
  let w2 = Workload.generate ~seed:7 ~mods ~requests:50 in
  checkb "same seed, same stream" (w1.Workload.reqs = w2.Workload.reqs);
  let w3 = Workload.generate ~seed:8 ~mods ~requests:50 in
  checkb "different seed, different stream" (w1.Workload.reqs <> w3.Workload.reqs);
  checki "length" 50 (List.length w1.Workload.reqs);
  (* both request flavours appear *)
  checkb "has edits"
    (List.exists (function Workload.Edit _ -> true | _ -> false) w1.Workload.reqs);
  checkb "has queries"
    (List.exists (function Workload.Query _ -> true | _ -> false) w1.Workload.reqs)

(* ------------------------------------------------------------------ *)
(* Serve loop                                                          *)
(* ------------------------------------------------------------------ *)

let test_warm_store_hits () =
  let w = Workload.generate ~seed:3 ~mods:[ "m" ] ~requests:30 in
  (* cold store, then a fresh process: pristine corpus, warm store *)
  let r1, r2 = Serve.replay ~corpus_of:mini_corpus ~root:(tmp_root "warm") w in
  checki "all served (cold)" 30 r1.Serve.rserved;
  checki "all served (warm)" 30 r2.Serve.rserved;
  checkb "warm store answers more from disk" (r2.Serve.rhits > r1.Serve.rhits);
  checki "no shedding in closed loop" 0 (r1.Serve.rshed + r2.Serve.rshed);
  (* identical request streams over identical corpus state: answers match *)
  checkb "warm answers ≡ cold answers"
    (Serve.compare_answers r1.Serve.ranswers r2.Serve.ranswers = None)

let test_edit_invalidates () =
  let root = fresh_root "edit" in
  let sv = Serve.create ~root (mini_corpus ()) in
  let q = Workload.Query { qmod = "m"; qfn = 0; qkind = Workload.Qdeps } in
  let a1 = Serve.handle_request sv 0 q in
  let a2 = Serve.handle_request sv 1 q in
  checks "repeat query hits the store" "hit" a2.Serve.asource;
  checks "hit digest matches computed" a1.Serve.atext a2.Serve.atext;
  let e = Workload.Edit { emod = "m"; efn = 0; eseed = 42 } in
  ignore (Serve.handle_request sv 2 e);
  let a3 = Serve.handle_request sv 3 q in
  checks "post-edit query recomputes" "computed" a3.Serve.asource;
  checkb "post-edit digest moved" (a3.Serve.atext <> a1.Serve.atext);
  Serve.Store.close sv.Serve.store

(** An open breaker sheds dependence queries to degraded answers and
    must never persist them: overload cannot poison the store. *)
let test_shed_not_persisted () =
  let root = fresh_root "shed" in
  let sv = Serve.create ~root (mini_corpus ()) in
  sv.Serve.breaker_open <- true;
  let q = Workload.Query { qmod = "m"; qfn = 0; qkind = Workload.Qdeps } in
  let a = Serve.handle_request sv 0 q in
  checkb "shed answer marked degraded" a.Serve.adegraded;
  checks "source" "degraded" a.Serve.asource;
  checki "nothing written to the store" 0 (List.length (Store.artifact_files sv.Serve.store));
  (* breaker closed again: the exact answer is computed, persisted, and
     its dependences are a subset of the degraded superset *)
  sv.Serve.breaker_open <- false;
  let e = Serve.handle_request sv 1 q in
  checks "exact afterwards" "computed" e.Serve.asource;
  let sub = Noelle.Pdg.payload_deps e.Serve.apayload in
  let sup = Noelle.Pdg.payload_deps a.Serve.apayload in
  checkb "degraded is a conservative superset"
    (List.for_all (fun d -> List.mem d sup) sub);
  Serve.Store.close sv.Serve.store

let test_sink_skips_degraded () =
  let m = compile ~name:"m" corpus_src in
  (* budget 0: every alias query is over budget, the PDG is degraded *)
  let mgr = Noelle.create ~analysis_budget:0 m in
  let fired = ref 0 in
  Noelle.set_artifact_sink mgr
    (Some (fun ~kind:_ ~fn:_ ~fp:_ ~payload:_ -> incr fired));
  let f = Option.get (Irmod.func_opt m "main") in
  let p = Noelle.pdg mgr f in
  checkb "budget-0 build degraded" p.Noelle.Pdg.degraded;
  checki "degraded result never reaches the sink" 0 !fired;
  (* bounds are always sound: the sink fires *)
  ignore (Noelle.bounds mgr f);
  checki "bounds reach the sink" 1 !fired

(* the sink renders payloads only when installed; what it receives is
   the (kind, fn, fp, payload) of each artifact, as computed directly *)
let test_sink_tuples () =
  let k = Option.get (Bsuite.Kernels.find "deadcalls") in
  let m = compile ~name:k.Bsuite.Kernels.kname k.Bsuite.Kernels.src in
  let mgr = Noelle.create m in
  let got = ref [] in
  Noelle.set_artifact_sink mgr
    (Some (fun ~kind ~fn ~fp ~payload -> got := (kind, fn, fp, payload) :: !got));
  let plain = Noelle.create m in
  let want =
    List.concat_map
      (fun f ->
        ignore (Noelle.pdg mgr f);
        ignore (Noelle.bounds mgr f);
        let fn = f.Func.fname and fp = Fingerprint.func_fp f in
        [ ("pdg", fn, fp, Noelle.Pdg.payload (Noelle.pdg plain f));
          ("bounds", fn, fp, Bounds.summary_payload (Noelle.bounds plain f)) ])
      (Irmod.defined_functions m)
  in
  checkb "several functions" (List.length want > 8);
  checkb "same tuples, in order" (want = List.rev !got)

let test_soak_mini () =
  let ok, stats, results =
    Serve.soak
      ~corpus_of:(fun () -> mini_corpus () @ [ ("n", compile ~name:"n" corpus_src) ])
      ~root:(fresh_root "soak") ~seeds:4 ~modules:2 ~requests:30
      ~progress:(fun _ -> ())
      ()
  in
  List.iter
    (fun r ->
      match r.Serve.smismatch with
      | None -> ()
      | Some m -> Alcotest.failf "seed %d: %s" r.Serve.sseed m)
    results;
  checkb "all seeds recovered ≡ cold" ok;
  checkb "kills actually fired" (stats.Serve.t_kills > 0);
  checki "every kill recovered" stats.Serve.t_kills stats.Serve.t_recoveries

let test_overload_gate () =
  let ok, r =
    Serve.overload
      ~corpus_of:(fun () -> mini_corpus ())
      ~root:(fresh_root "over") ~seed:1 ~modules:1 ~requests:120 ()
  in
  checkb "gate passes" ok;
  checkb "breaker opened" (r.Serve.rbreaker_opens >= 1);
  checkb "queries shed" (r.Serve.rshed > 0);
  checki "all requests served" 120 r.Serve.rserved;
  checki "no conservativeness violations" 0 (List.length r.Serve.rviolations);
  (* shed answers, and only shed answers, are flagged degraded *)
  List.iter
    (fun (a : Serve.answer) ->
      checkb "degraded iff shed" (a.Serve.adegraded = (a.Serve.asource = "degraded")))
    r.Serve.ranswers

(* ------------------------------------------------------------------ *)
(* Request-scoped observability                                        *)
(* ------------------------------------------------------------------ *)

(** Walk the trace of a multi-request workload: every span/event emitted
    while serving — store phases, manager demand entry points, Andersen /
    PDG / Bounds spans — must carry its request's correlation id.  The
    corpus is compiled before tracing starts: its frontend spans are set-up,
    not serving. *)
let test_correlation_ids () =
  let module T = Ir.Trace in
  let corpus = mini_corpus () in
  T.enable ();
  Fun.protect ~finally:(fun () -> T.disable (); T.reset ())
  @@ fun () ->
  let root = fresh_root "rid" in
  let w = Workload.generate ~seed:5 ~mods:[ "m" ] ~requests:25 in
  let sv = Serve.create ~root corpus in
  let r = Serve.run sv w () in
  Serve.Store.close sv.Serve.store;
  checki "all served" 25 r.Serve.rserved;
  let evs = T.events () in
  checkb "trace nonempty" (evs <> []);
  let rid (e : Ir.Trace.event) = List.assoc_opt "rid" e.Ir.Trace.eargs in
  List.iter
    (fun (e : Ir.Trace.event) ->
      match rid e with
      | Some r ->
        checkb
          (Printf.sprintf "%s rid well-formed (%s)" e.Ir.Trace.ename r)
          (String.length r > 4 && String.sub r 0 4 = "req-")
      | None ->
        Alcotest.failf "event %s (cat %s) has no correlation id"
          e.Ir.Trace.ename e.Ir.Trace.ecat)
    evs;
  let rids = List.sort_uniq compare (List.filter_map rid evs) in
  checkb "multiple requests traced" (List.length rids >= 2);
  (* phase spans and deep analysis spans both present and stamped *)
  let has cat pfx =
    List.exists
      (fun (e : Ir.Trace.event) ->
        e.Ir.Trace.ecat = cat
        && String.length e.Ir.Trace.ename >= String.length pfx
        && String.sub e.Ir.Trace.ename 0 (String.length pfx) = pfx
        && rid e <> None)
      evs
  in
  checkb "store_lookup phase stamped" (has "serve" "serve.phase.store_lookup");
  checkb "recompute phase stamped" (has "serve" "serve.phase.recompute");
  checkb "analysis spans stamped" (has "analysis" "noelle.");
  (* per-kind latency histograms populated *)
  List.iter
    (fun kind ->
      match Ir.Trace.histogram ("serve.latency_us." ^ kind) with
      | Some h -> checkb (kind ^ " latencies observed") (h.Ir.Trace.hcount > 0)
      | None -> Alcotest.failf "no latency histogram for %s" kind)
    [ "edit"; "deps"; "bounds"; "loops" ]

(** Flight ring → dump → replay round-trip on a healthy server. *)
let test_flight_dump_replay () =
  let root = fresh_root "flight" in
  Ir.Trace.flight_reset ();
  let sv = Serve.create ~root (mini_corpus ()) in
  checkb "fresh root: nothing to replay" (sv.Serve.flight_replay = None);
  let q i k = Serve.handle_request sv i (Workload.Query { qmod = "m"; qfn = i; qkind = k }) in
  ignore (q 0 Workload.Qdeps);
  ignore (q 1 Workload.Qbounds);
  ignore (q 2 Workload.Qloops);
  Serve.Store.close sv.Serve.store;
  ignore (Serve.dump_flight root);
  match Serve.replay_flight root with
  | None -> Alcotest.fail "dump did not replay"
  | Some fi ->
    checkb "last request named" (fi.Serve.fi_req = Some (2, "req-2"));
    checkb "no kill recorded" (fi.Serve.fi_kill = None);
    checkb "waypoints retained" (fi.Serve.fi_events >= 3)

(** Deterministic kill forensics: at each kill sub-point the dumped
    flight ring must name the in-flight request and the exact point. *)
let test_flight_kill_forensics () =
  List.iter
    (fun point ->
      let root = fresh_root (Printf.sprintf "fkill%d" point) in
      Ir.Trace.flight_reset ();
      let sv = ref (Serve.create ~root (mini_corpus ())) in
      (* a compute query that writes through the sink, with a kill armed
         at sub-point [point] (arm seed = point, kill_point = seed mod 3) *)
      Store.arm (!sv).Serve.store Faultgen.Kill_mid_write ~seed:point ~now:0
        ~stall_ticks:0;
      let q = Workload.Query { qmod = "m"; qfn = 1; qkind = Workload.Qdeps } in
      (match Serve.handle_request !sv 7 q with
      | _ -> Alcotest.fail "armed kill did not fire"
      | exception Store.Killed msg ->
        checkb "kill names its point"
          (Scanf.sscanf msg "kill-mid-write@%d" (fun p -> p) = point));
      ignore (Serve.dump_flight root);
      sv := Serve.restart !sv ~root;
      (match (!sv).Serve.flight_replay with
      | None -> Alcotest.fail "recovery found no flight dump"
      | Some fi ->
        checkb
          (Printf.sprintf "point %d: in-flight request named" point)
          (fi.Serve.fi_req = Some (7, "req-7"));
        checkb
          (Printf.sprintf "point %d: kill point named with rid" point)
          (fi.Serve.fi_kill = Some (point, "req-7")));
      Serve.Store.close (!sv).Serve.store)
    [ 0; 1; 2 ]

let test_counters_registered () =
  Ir.Trace.enable ();
  let root = fresh_root "counters" in
  let sv = Serve.create ~root (mini_corpus ()) in
  ignore (Serve.run sv (Workload.generate ~seed:0 ~mods:[ "m" ] ~requests:10) ());
  Serve.Store.close sv.Serve.store;
  let names = List.map fst (Ir.Trace.metrics ()) in
  List.iter
    (fun c -> checkb (c ^ " registered") (List.mem c names))
    [ "serve.requests"; "serve.queries"; "serve.edits"; "serve.store.hits";
      "serve.store.writes"; "serve.shed"; "serve.recoveries";
      "serve.quarantined" ];
  Ir.Trace.disable ()


(* ------------------------------------------------------------------ *)
(* SLO spec, measurement and evaluation                                *)
(* ------------------------------------------------------------------ *)

module Slo = Serve.Slo

let spec_file name contents =
  let path = Filename.concat (Filename.get_temp_dir_name ()) ("noelle_slo_" ^ name) in
  Out_channel.with_open_text path (fun oc -> output_string oc contents);
  path

(** A malformed spec is an error naming the file and the key, never a
    spec with the offending budget silently dropped. *)
let slo_spec_error ~file ~contents ~key () =
  let path =
    match contents with
    | Some c -> spec_file file c
    | None -> Filename.concat (Filename.get_temp_dir_name ()) file
  in
  match Slo.load path with
  | Ok _ -> Alcotest.failf "%s accepted" file
  | Error e ->
    List.iter
      (fun m ->
        checkb (Printf.sprintf "error %S names %S" e m) (Noelle.Pipeline.contains e m))
      (path :: Option.to_list key)

let slo_spec_error_cases =
  [ ("misspelled budget key", "typo.json",
     Some {|{"kinds":{"edit":{"p99us":1}}}|}, Some "kinds.edit.p99us");
    ("string budget", "string.json",
     Some {|{"kinds":{"deps":{"p99_us":"1"}}}|}, Some "kinds.deps.p99_us");
    ("non-object kinds", "kinds.json", Some {|{"kinds":[1,2]}|}, Some "kinds");
    ("missing file", "noelle_slo_missing.json", None, None) ]

let test_slo_spec_ok () =
  match
    Slo.load (spec_file "ok.json" {|{"kinds":{"edit":{"p99_us":7}},"max_shed_pct":2.5}|})
  with
  | Error e -> Alcotest.failf "well-formed spec refused: %s" e
  | Ok spec ->
    checkb "budget read" (spec.Slo.p99_us = [ ("edit", 7L) ]);
    checkb "shed max read" (spec.Slo.max_shed_pct = 2.5);
    checki "absent deadline max is unconstrained" max_int
      spec.Slo.max_deadline_misses

let row kind p99 =
  { Slo.kind; count = 10; sum = 0L; p50 = 1L; p95 = 1L; p99; p999 = p99 }

let test_slo_evaluate () =
  let spec =
    { Slo.p99_us = [ ("edit", 100L); ("deps", 100L) ]; max_shed_pct = 5.0;
      max_deadline_misses = 2 }
  in
  let clean =
    { Slo.rows = [ row "edit" 100L; row "deps" 50L; row "loops" 9999L ];
      shed_pct = 5.0; deadline_misses = 2 }
  in
  checki "clean window: no violations" 0 (List.length (Slo.evaluate spec clean));
  let only w = match Slo.evaluate spec w with [ v ] -> v | vs ->
    Alcotest.failf "expected one violation, got %d" (List.length vs) in
  let has v m = checkb (Printf.sprintf "%S mentions %S" v m) (Noelle.Pipeline.contains v m) in
  has (only { clean with rows = [ row "edit" 101L; row "deps" 50L ] }) "edit: p99 101us exceeds";
  has (only { clean with rows = [ row "edit" 100L ] }) "deps: budgeted but never measured";
  has (only { clean with shed_pct = 5.1 }) "shed";
  has (only { clean with deadline_misses = 3 }) "deadline misses 3"

(** Samples observed before the measured call — another bench section,
    an earlier run — stay out of the window. *)
let test_slo_measure_window () =
  Ir.Trace.enable ();
  Fun.protect ~finally:(fun () -> Ir.Trace.disable (); Ir.Trace.reset ())
  @@ fun () ->
  for _ = 1 to 50 do Ir.Trace.observe (Slo.hist_name "edit") 1_000_000L done;
  Ir.Trace.observe (Slo.hist_name "deps") 5L;
  Ir.Trace.add "serve.queries" 10;
  Ir.Trace.add "serve.shed" 10;
  let x, w =
    Slo.measure (fun () ->
        for _ = 1 to 4 do Ir.Trace.observe (Slo.hist_name "edit") 100L done;
        Ir.Trace.add "serve.queries" 4;
        Ir.Trace.add "serve.shed" 1;
        42)
  in
  checki "result passed through" 42 x;
  match w.Slo.rows with
  | [ r ] ->
    checks "only the kind observed inside" "edit" r.Slo.kind;
    checki "count of this window" 4 r.Slo.count;
    checkb "sum of this window" (r.Slo.sum = 400L);
    checkb "p99 from this window" (Int64.compare r.Slo.p999 1000L < 0);
    checkb "shed share of this window" (w.Slo.shed_pct = 25.0)
  | rows -> Alcotest.failf "expected one row, got %d" (List.length rows)

let suite =
  [
    Alcotest.test_case "store: write/lookup roundtrip + staleness" `Quick
      test_store_roundtrip;
    Alcotest.test_case "store: corrupt artifact quarantined on lookup" `Quick
      test_store_corrupt_quarantine;
    Alcotest.test_case "store: startup sweep quarantines torn writes" `Quick
      test_store_startup_sweep;
    Alcotest.test_case "store: kill at every write sub-point recovers" `Quick
      test_store_kill_points;
    Alcotest.test_case "store: stalled shard is transient, then heals" `Quick
      test_store_stall_retry;
    Alcotest.test_case "reconcile_artifact: one audited keep/drop decision"
      `Quick test_reconcile_artifact;
    Alcotest.test_case "workload: deterministic from seed" `Quick
      test_workload_deterministic;
    Alcotest.test_case "serve: warm store answers from disk, identically"
      `Quick test_warm_store_hits;
    Alcotest.test_case "serve: edits invalidate stored artifacts" `Quick
      test_edit_invalidates;
    Alcotest.test_case "serve: shed answers conservative, never persisted"
      `Quick test_shed_not_persisted;
    Alcotest.test_case "serve: manager sink skips degraded results" `Quick
      test_sink_skips_degraded;
    Alcotest.test_case "serve: sink receives each artifact's tuple" `Quick
      test_sink_tuples;
    Alcotest.test_case "serve: mini soak — recovered ≡ cold" `Quick
      test_soak_mini;
    Alcotest.test_case "serve: overload sheds, never wrong" `Quick
      test_overload_gate;
    Alcotest.test_case "serve: every traced event carries its rid" `Quick
      test_correlation_ids;
    Alcotest.test_case "serve: flight dump/replay round-trip" `Quick
      test_flight_dump_replay;
    Alcotest.test_case "serve: flight names request + kill point" `Quick
      test_flight_kill_forensics;
    Alcotest.test_case "serve: telemetry counters registered" `Quick
      test_counters_registered;
    Alcotest.test_case "slo: well-formed spec loads" `Quick test_slo_spec_ok;
    Alcotest.test_case "slo: evaluate flags each objective" `Quick
      test_slo_evaluate;
    Alcotest.test_case "slo: measure ignores earlier samples" `Quick
      test_slo_measure_window;
  ]
  @ List.map
      (fun (what, file, contents, key) ->
        Alcotest.test_case ("slo: malformed spec refused: " ^ what) `Quick
          (slo_spec_error ~file ~contents ~key))
      slo_spec_error_cases
