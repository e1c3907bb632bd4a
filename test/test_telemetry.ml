(** Noelle.Telemetry: the tracing/metrics spine.  Covers the span stack
    (nesting, ordering, depth), counter monotonicity, the no-op path when
    the sink is off, Chrome-trace export round-tripped through the repo's
    own JSON parser, Psim's structured task events, and the
    span-per-pass + gate-tag contract of the transactional pipeline. *)

open Helpers
module T = Noelle.Telemetry
module Trace = Ir.Trace

(** Record an instant event (the program itself emits none). *)
let instant ?(cat = "") name =
  let open Trace in
  if !on then
    record
      { ename = name; ecat = cat; eph = Instant; ets = now_us () -. !t0;
        edur = 0.0; etid = !cur_tid; edepth = !depth; eargs = [] }

(** Run [f] with the sink installed, always disabling and resetting after,
    so telemetry state never leaks between tests (or into the no-op ones). *)
let traced f =
  Trace.enable ();
  Fun.protect
    ~finally:(fun () ->
      Trace.disable ();
      Trace.reset ())
    f

(* a DOALL-parallelizable program: two independent counted loops *)
let loopy_src =
  {|
int main() {
  int *a = malloc(64);
  int s = 0;
  for (int i = 0; i < 64; i++) {
    a[i] = i * 3 - 1;
  }
  for (int i = 0; i < 64; i++) {
    s += a[i];
  }
  print(s);
  return 0;
}
|}

let find_event name =
  List.find_opt (fun (e : Trace.event) -> e.Trace.ename = name) (Trace.events ())

(* ------------------------------------------------------------------ *)
(* Core recording                                                      *)
(* ------------------------------------------------------------------ *)

let test_noop_path () =
  (* NOELLE_TRACE unset in the test environment: everything must be off *)
  checkb "sink off by default" (not (Trace.enabled ()));
  Trace.incr_m "noop.counter";
  Trace.add "noop.counter" 7;
  Trace.observe "noop.hist" 5L;
  let v = Trace.span ~cat:"t" "noop.span" (fun () -> 41 + 1) in
  checki "span still runs its body" 42 v;
  instant "noop.instant";
  checki "no events recorded" 0 (List.length (Trace.events ()));
  checki "registry stays empty" 0 (List.length (Trace.metrics ()));
  checkb "counter reads back 0" (Int64.equal 0L (Trace.counter "noop.counter"))

let test_span_nesting () =
  traced @@ fun () ->
  let r =
    Trace.span ~cat:"outer" "a" (fun () ->
        let x = Trace.span ~cat:"inner" "b" (fun () -> 1) in
        let y = Trace.span ~cat:"inner" "c" (fun () -> 2) in
        x + y)
  in
  checki "value" 3 r;
  (* events close innermost-first: b, c, then a *)
  let names = List.map (fun (e : Trace.event) -> e.Trace.ename) (Trace.events ()) in
  checkb "close order b,c,a" (names = [ "b"; "c"; "a" ]);
  let get n = Option.get (find_event n) in
  checki "outer depth" 0 (get "a").Trace.edepth;
  checki "inner depth b" 1 (get "b").Trace.edepth;
  checki "inner depth c" 1 (get "c").Trace.edepth;
  let a = get "a" and b = get "b" and c = get "c" in
  checkb "children start inside parent" (b.Trace.ets >= a.Trace.ets && c.Trace.ets >= a.Trace.ets);
  checkb "parent spans its children"
    (a.Trace.ets +. a.Trace.edur >= c.Trace.ets +. c.Trace.edur);
  checkb "siblings ordered" (c.Trace.ets >= b.Trace.ets)

let test_span_exception_safe () =
  traced @@ fun () ->
  (match Trace.span "boom" (fun () -> failwith "kaput") with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "exception swallowed");
  match find_event "boom" with
  | None -> Alcotest.fail "span not closed on exception"
  | Some e ->
    checkb "tagged raised" (List.mem_assoc "raised" e.Trace.eargs);
    checki "depth restored" 0
      (let s = Trace.begin_span "probe" in
       let d = s.Trace.sdepth in
       Trace.end_span s;
       d)

let test_counter_monotonic () =
  traced @@ fun () ->
  Trace.incr_m "m.c";
  Trace.add "m.c" 4;
  Trace.add "m.c" 0;
  Trace.add "m.c" (-3);
  checkb "adds accumulate, <=0 ignored" (Int64.equal 5L (Trace.counter "m.c"));
  Trace.set_gauge "m.g" 2.5;
  (match List.assoc_opt "m.g" (Trace.gauges ()) with
  | Some v -> checkb "gauge holds last value" (v = 2.5)
  | None -> Alcotest.fail "gauge missing");
  Trace.observe "m.h" 5L;
  Trace.observe "m.h" 1000L;
  Trace.observe "m.h" (-7L);
  match Trace.histogram "m.h" with
  | None -> Alcotest.fail "histogram missing"
  | Some h ->
    checki "observation count" 3 h.Trace.hcount;
    checkb "sum clamps negatives" (Int64.equal 1005L h.Trace.hsum);
    (* HDR buckets: 5 < sub_count is exact (bucket 5); 1000 lands in
       [960,1024) = bucket 63; -7 clamps into bucket 0 *)
    checki "bucket 5" 1 h.Trace.hbuckets.(Trace.bucket_of 5L);
    checki "bucket of 5 is exact" 5 (Trace.bucket_of 5L);
    checki "bucket 63" 1 h.Trace.hbuckets.(63);
    checki "bucket of 1000" 63 (Trace.bucket_of 1000L);
    checki "bucket 0" 1 h.Trace.hbuckets.(0)

let test_hdr_buckets () =
  (* bucket geometry: lower bounds partition, widths within 12.5% *)
  for i = 0 to Trace.nbuckets - 2 do
    checkb
      (Printf.sprintf "bucket %d contiguous" i)
      (Int64.add (Trace.bucket_lower i) (Trace.bucket_width i)
      = Trace.bucket_lower (i + 1))
  done;
  List.iter
    (fun v ->
      let b = Trace.bucket_of v in
      let lo = Trace.bucket_lower b in
      let hi = Int64.add lo (Trace.bucket_width b) in
      checkb
        (Printf.sprintf "%Ld in its bucket" v)
        (Int64.compare lo v <= 0 && Int64.compare v hi < 0))
    [ 0L; 1L; 7L; 8L; 9L; 15L; 16L; 17L; 100L; 1000L; 65535L; 1_000_000L;
      123_456_789L ]

let test_quantile_accuracy () =
  traced @@ fun () ->
  (* known synthetic distribution: a deterministic LCG spanning five
     decades; the bucket-midpoint estimator must stay within 12.5%
     relative error of the exact order statistic *)
  let n = 10_000 in
  let s = ref 42L in
  let vals =
    Array.init n (fun _ ->
        s :=
          Int64.add (Int64.mul !s 6364136223846793005L) 1442695040888963407L;
        Int64.rem (Int64.shift_right_logical !s 33) 1_000_000L)
  in
  Array.iter (fun v -> Trace.observe "q.hist" v) vals;
  let sorted = Array.copy vals in
  Array.sort Int64.compare sorted;
  let h = Option.get (Trace.histogram "q.hist") in
  List.iter
    (fun q ->
      let exact =
        sorted.(max 0 (int_of_float (ceil (q *. float_of_int n)) - 1))
      in
      let est = Trace.quantile h q in
      let rel =
        Float.abs (Int64.to_float est -. Int64.to_float exact)
        /. Float.max 1.0 (Int64.to_float exact)
      in
      checkb
        (Printf.sprintf "p%g within 12.5%% (exact=%Ld est=%Ld rel=%.4f)"
           (q *. 100.) exact est rel)
        (rel <= 0.125))
    [ 0.5; 0.95; 0.99; 0.999 ];
  (* degenerate cases *)
  let e = { Trace.hcount = 0; hsum = 0L; hbuckets = Array.make Trace.nbuckets 0 } in
  checkb "empty histogram quantile is 0" (Trace.quantile e 0.99 = 0L)

(* ------------------------------------------------------------------ *)
(* Exporters                                                           *)
(* ------------------------------------------------------------------ *)

let test_chrome_json_roundtrip () =
  traced @@ fun () ->
  Trace.span ~cat:"analysis" ~args:[ ("k", "v\"quoted\"\n") ] "weird \"name\"\ttab"
    (fun () -> ());
  instant ~cat:"mark" "i1";
  let s = Trace.to_chrome_json () in
  (* parse back with the repo's own JSON parser, not string matching *)
  let triples = T.validate_chrome_json s in
  checki "two events survive" 2 (List.length triples);
  checkb "escaped name round-trips"
    (List.exists (fun (n, c, ph) -> n = "weird \"name\"\ttab" && c = "analysis" && ph = "X")
       triples);
  checkb "instant present" (List.exists (fun (n, _, ph) -> n = "i1" && ph = "i") triples);
  let layers = T.layers_of triples in
  (* layers_of counts complete events only *)
  checkb "one analysis span" (layers = [ ("analysis", 1) ])

let test_metrics_roundtrip () =
  traced @@ fun () ->
  Trace.add "r.alpha" 3;
  Trace.add "r.beta" 10;
  Trace.observe "r.hist" 6L;
  let a = T.parse_metrics (Trace.metrics_to_json ()) in
  checkb "counter value parses" (List.assoc_opt "r.alpha" a = Some 3.0);
  checkb "histogram expands to .sum" (List.assoc_opt "r.hist.sum" a = Some 6.0);
  checkb "histogram expands to .count" (List.assoc_opt "r.hist.count" a = Some 1.0);
  checkb "histogram expands to .p99" (List.assoc_opt "r.hist.p99" a = Some 6.0);
  (* now diff against a second dump with one changed, one new, one gone *)
  Trace.reset ();
  Trace.enable ();
  Trace.add "r.alpha" 9;
  Trace.add "r.gamma" 1;
  let b = T.parse_metrics (Trace.metrics_to_json ()) in
  let deltas = T.diff_metrics a b in
  let find n = List.find (fun (d : T.delta) -> d.T.dname = n) deltas in
  checkb "changed" ((find "r.alpha").T.dafter = Some 9.0);
  checkb "disappeared" ((find "r.beta").T.dafter = None);
  checkb "appeared" ((find "r.gamma").T.dbefore = None)

let test_hist_json_roundtrip () =
  traced @@ fun () ->
  (* empty histogram: registered (via a 0-observation? not possible) —
     emulate by observing then checking a sparse spread round-trips *)
  Trace.observe "h.sparse" 0L;
  Trace.observe "h.sparse" 7L;
  Trace.observe "h.sparse" 1_000_000L;
  let doc = Trace.Json.parse (Trace.metrics_to_json ()) in
  let h = Option.get (Trace.Json.member "h.sparse" doc) in
  checkb "type histogram"
    (Option.bind (Trace.Json.member "type" h) Trace.Json.to_string = Some "histogram");
  checkb "count" (Option.bind (Trace.Json.member "count" h) Trace.Json.to_num = Some 3.0);
  checkb "sum"
    (Option.bind (Trace.Json.member "sum" h) Trace.Json.to_num = Some 1_000_007.0);
  (* buckets keyed by lower bound; only populated ones serialized *)
  let buckets =
    match Trace.Json.member "buckets" h with Some (Trace.Json.Obj kvs) -> kvs | _ -> []
  in
  checki "exactly three sparse buckets" 3 (List.length buckets);
  checkb "unit bucket 0 present" (List.mem_assoc "0" buckets);
  checkb "unit bucket 7 present" (List.mem_assoc "7" buckets);
  List.iter
    (fun (k, v) ->
      let lo = Int64.of_string k in
      let b = Ir.Trace.bucket_of lo in
      checkb ("key is its bucket's lower bound: " ^ k)
        (Ir.Trace.bucket_lower b = lo);
      checkb ("bucket count 1: " ^ k) (Trace.Json.to_num v = Some 1.0))
    buckets;
  (* percentile members present and inside the value range *)
  (match Option.bind (Trace.Json.member "p999" h) Trace.Json.to_num with
  | Some p -> checkb "p999 near max" (p >= 900_000.0 && p <= 1_100_000.0)
  | None -> Alcotest.fail "p999 missing");
  (* a histogram-free dump still parses (no histogram members emitted) *)
  Trace.reset ();
  Trace.enable ();
  Trace.add "h.only.counter" 1;
  let doc2 = Trace.Json.parse (Trace.metrics_to_json ()) in
  checkb "no stray histogram" (Trace.Json.member "h.sparse" doc2 = None)

let test_diff_metrics_histograms () =
  (* diff_metrics on histogram-bearing snapshots: count/sum deltas and
     quantile shifts must surface, not be skipped *)
  traced @@ fun () ->
  Trace.observe "d.lat" 100L;
  Trace.observe "d.lat" 100L;
  let a = T.parse_metrics (Trace.metrics_to_json ()) in
  Trace.reset ();
  Trace.enable ();
  Trace.observe "d.lat" 100L;
  Trace.observe "d.lat" 100L;
  Trace.observe "d.lat" 100_000L;
  let b = T.parse_metrics (Trace.metrics_to_json ()) in
  let deltas = T.diff_metrics a b in
  let find n = List.find_opt (fun (d : T.delta) -> d.T.dname = n) deltas in
  (match find "d.lat.count" with
  | Some d -> checkb "count delta 2 -> 3" (d.T.dbefore = Some 2.0 && d.T.dafter = Some 3.0)
  | None -> Alcotest.fail "no count delta");
  (match find "d.lat.sum" with
  | Some d -> checkb "sum delta" (d.T.dafter = Some 100_200.0)
  | None -> Alcotest.fail "no sum delta");
  (match find "d.lat.p999" with
  | Some d ->
    checkb "p999 shifted up"
      (match (d.T.dbefore, d.T.dafter) with
      | Some x, Some y -> y > x
      | _ -> false)
  | None -> Alcotest.fail "no p999 shift");
  checkb "p50 stable, not reported" (find "d.lat.p50" = None)

(* ------------------------------------------------------------------ *)
(* Request context and flight recorder                                  *)
(* ------------------------------------------------------------------ *)

let test_request_context () =
  traced @@ fun () ->
  checkb "no ambient rid" (!Trace.cur_rid = None);
  Trace.with_request "req-7" (fun () ->
      checkb "rid ambient" (!Trace.cur_rid = Some "req-7");
      instant "inner.mark";
      Trace.span ~cat:"analysis" "inner.span" (fun () ->
          Trace.with_request "req-8" (fun () -> instant "nested.mark")));
  checkb "rid restored" (!Trace.cur_rid = None);
  instant "outer.mark";
  let rid name =
    Option.bind (find_event name) (fun e ->
        List.assoc_opt "rid" e.Trace.eargs)
  in
  checkb "instant stamped" (rid "inner.mark" = Some "req-7");
  checkb "span stamped at close" (rid "inner.span" = Some "req-7");
  checkb "nested override" (rid "nested.mark" = Some "req-8");
  checkb "outside unstamped" (rid "outer.mark" = None)

let test_flight_recorder () =
  (* always-on: works with the trace sink off *)
  Trace.flight_reset ();
  checkb "sink off" (not (Trace.enabled ()));
  Trace.flight "f.a" ~args:[ ("k", "v") ];
  Trace.with_request "req-3" (fun () -> Trace.flight "f.b");
  let evs = Trace.flight_events () in
  checki "two waypoints" 2 (List.length evs);
  checkb "chronological" ((List.nth evs 0).Trace.fname = "f.a");
  checkb "rid captured" ((List.nth evs 1).Trace.frid = Some "req-3");
  checkb "args kept" ((List.nth evs 0).Trace.fargs = [ ("k", "v") ]);
  (* ring wraps at the cap, keeping the newest *)
  Trace.flight_reset ();
  for i = 0 to Trace.flight_cap + 9 do
    Trace.flight (Printf.sprintf "w%d" i)
  done;
  let evs = Trace.flight_events () in
  checki "capped" Trace.flight_cap (List.length evs);
  checkb "oldest evicted" ((List.hd evs).Trace.fname = "w10");
  checkb "newest kept"
    ((List.nth evs (Trace.flight_cap - 1)).Trace.fname
    = Printf.sprintf "w%d" (Trace.flight_cap + 9));
  (* JSON dump parses and reports the drop count *)
  let doc = Trace.Json.parse (Trace.flight_to_json ()) in
  checkb "dropped counted"
    (Option.bind (Trace.Json.member "dropped" doc) Trace.Json.to_num = Some 10.0);
  checki "events serialized" Trace.flight_cap
    (List.length
       (Option.get
          (Option.bind (Trace.Json.member "flightEvents" doc) Trace.Json.to_list)));
  Trace.flight_reset ();
  checki "reset empties" 0 (List.length (Trace.flight_events ()))

(* ------------------------------------------------------------------ *)
(* Instrumented layers                                                 *)
(* ------------------------------------------------------------------ *)

let test_manager_hit_miss () =
  traced @@ fun () ->
  let m = compile loopy_src in
  let n = Noelle.create m in
  let f = Ir.Irmod.func m "main" in
  ignore (Noelle.pdg n f);
  ignore (Noelle.pdg n f);
  checkb "two queries" (Int64.equal 2L (Trace.counter "noelle.pdg.queries"));
  checkb "first query misses" (Int64.equal 1L (Trace.counter "noelle.pdg.miss"));
  checkb "second query hits" (Int64.equal 1L (Trace.counter "noelle.pdg.hit"));
  checkb "pdg span recorded with source tag"
    (List.exists
       (fun (e : Trace.event) ->
         e.Trace.ename = "noelle.pdg:main"
         && List.assoc_opt "source" e.Trace.eargs = Some "computed")
       (Trace.events ()))

let test_pipeline_span_per_pass () =
  traced @@ fun () ->
  let m = compile loopy_src in
  let report = Ntools.Passes.run_standard m in
  List.iter
    (fun (e : Noelle.Pipeline.entry) ->
      match find_event ("pass:" ^ e.Noelle.Pipeline.epass) with
      | None -> Alcotest.failf "no span for pass %s" e.Noelle.Pipeline.epass
      | Some ev ->
        checkb (e.Noelle.Pipeline.epass ^ " has outcome tag")
          (List.mem_assoc "outcome" ev.Trace.eargs);
        checkb (e.Noelle.Pipeline.epass ^ " has verify tag")
          (List.mem_assoc "verify" ev.Trace.eargs);
        checkb (e.Noelle.Pipeline.epass ^ " has differential tag")
          (List.mem_assoc "differential" ev.Trace.eargs))
    report.Noelle.Pipeline.entries;
  checkb "committed counter matches report"
    (Int64.equal
       (Int64.of_int
          (List.length
             (List.filter
                (fun (e : Noelle.Pipeline.entry) ->
                  match e.Noelle.Pipeline.eoutcome with
                  | Noelle.Pipeline.Committed _ -> true
                  | _ -> false)
                report.Noelle.Pipeline.entries)))
       (Trace.counter "pipeline.committed"))

let test_psim_events () =
  (* pure render round-trip: the structured events must reproduce the old
     string log byte for byte *)
  let log =
    [ Psim.Runtime.Task_died { tid = 2; attempt = 1; cycle = 431L };
      Psim.Runtime.Task_ok { tid = 2; attempt = 2 };
      Psim.Runtime.Section_abandoned { reason = "no luck" };
    ]
  in
  checks "render"
    "task 2 attempt 1: died at cycle 431\ntask 2 attempt 2: ok\ntask -1 attempt 0: section abandoned: no luck"
    (Psim.Runtime.dispositions_to_string log);
  (* a real resilient run under tracing: task swimlane events + counters *)
  traced @@ fun () ->
  let original = compile loopy_src in
  let m = compile loopy_src in
  let n = Noelle.create m in
  let results = Ntools.Doall.run n m ~ncores:4 ~min_hotness:0.0 ~min_work:0.0 () in
  checkb "DOALL parallelized" (List.exists (fun (_, r) -> Result.is_ok r) results);
  let fault = Psim.Runtime.seeded_fault ~seed:1 () in
  let r = Psim.Runtime.run_resilient ~fault ~original m in
  checkb "stayed parallel" (r.Psim.Runtime.rmode = `Parallel);
  checkb "every task eventually ok"
    (List.exists
       (function Psim.Runtime.Task_ok _ -> true | _ -> false)
       (Psim.Runtime.dispositions r.Psim.Runtime.rrun.Ir.Interp.setup));
  checkb "psim sections counted" (Int64.compare (Trace.counter "psim.sections") 0L > 0);
  let task_events =
    List.filter
      (fun (e : Trace.event) ->
        e.Trace.ecat = "psim" && String.length e.Trace.ename > 5
        && String.sub e.Trace.ename 0 5 = "task:")
      (Trace.events ())
  in
  checkb "per-task swimlane events present" (task_events <> []);
  checkb "tasks ride their own tid rows"
    (List.for_all (fun (e : Trace.event) -> e.Trace.etid > 0) task_events);
  checkb "task events carry cycle counts"
    (List.for_all
       (fun (e : Trace.event) -> List.mem_assoc "cycles" e.Trace.eargs)
       task_events)

let suite =
  let tc name f = Alcotest.test_case name `Quick f in
  [
    tc "no-op path when sink is off" test_noop_path;
    tc "span nesting and ordering" test_span_nesting;
    tc "span closes on exception" test_span_exception_safe;
    tc "counters, gauges, histograms" test_counter_monotonic;
    tc "HDR bucket geometry" test_hdr_buckets;
    tc "quantile accuracy on synthetic distribution" test_quantile_accuracy;
    tc "Chrome JSON round-trip" test_chrome_json_roundtrip;
    tc "metrics dump parse and diff" test_metrics_roundtrip;
    tc "histogram JSON round-trip (sparse buckets)" test_hist_json_roundtrip;
    tc "diff_metrics reports histogram deltas" test_diff_metrics_histograms;
    tc "request context stamps correlation ids" test_request_context;
    tc "flight recorder ring" test_flight_recorder;
    tc "manager hit/miss attribution" test_manager_hit_miss;
    tc "pipeline span per pass with gate tags" test_pipeline_span_per_pass;
    tc "psim structured events and swimlanes" test_psim_events;
  ]
