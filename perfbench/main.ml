(** The repository benchmark: three seeded workloads (compile, analyze,
    serve), measured end to end with tracing off and layer by layer with
    tracing on.  See NOTES.md for why each workload exists and which
    end-to-end metric each layer metric should move.

    Usage (normally through run.py, which builds this file first):
      main.exe --workload compile|analyze|serve --seed N --seconds S --trace 0|1
      main.exe --record-digests      # rewrite perfbench/analyze_digests.txt

    A run repeats "set up, run one batch, check the batch" until the
    batches have taken [--seconds] of measured time.  With [--trace 1]
    batches alternate untraced / traced: spans and counters come from the
    traced batches, latencies from the untraced ones, and the gap between
    their batch times is the tracing overhead.  The last line of standard
    output is one JSON object with the run's metrics. *)

open Ir

(* ------------------------------------------------------------------ *)
(* Tracing: benchmark-side spans, self time, per-batch counters        *)
(* ------------------------------------------------------------------ *)

let cat = "perfbench"

(** Span [name] around a call into one layer (a no-op with tracing off). *)
let layer name f = Trace.span ~cat name f

let with_trace traced f =
  Trace.on := traced;
  Fun.protect ~finally:(fun () -> Trace.on := false) f

(* per-span self time in seconds, summed over the traced batches *)
let self_s : (string, float) Hashtbl.t = Hashtbl.create 32

let bump tbl k v =
  Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k))

let get tbl k = Option.value ~default:0. (Hashtbl.find_opt tbl k)

(* the program's own spans that the benchmark also reports *)
let is_serve_phase n = String.starts_with ~prefix:"serve.phase." n

(** Fold the buffered spans into {!self_s} and empty the buffer, so the
    1M-event cap applies per operation, not per run.  A span's self time
    is its duration minus the time its child spans cover; only benchmark
    spans and the program's [serve.phase.*] spans take part. *)
let collect () =
  let evs =
    List.filter
      (fun (e : Trace.event) ->
        e.Trace.eph = Trace.Complete && e.Trace.etid = 0
        && (e.Trace.ecat = cat || is_serve_phase e.Trace.ename))
      (Trace.events ())
    |> List.sort (fun (a : Trace.event) b ->
           compare (a.Trace.ets, -.a.Trace.edur) (b.Trace.ets, -.b.Trace.edur))
  in
  let finish (e, child) = bump self_s e.Trace.ename ((e.Trace.edur -. !child) /. 1e6) in
  let stack = ref [] in
  List.iter
    (fun (e : Trace.event) ->
      let rec pop () =
        match !stack with
        | ((p : Trace.event), _) as top :: rest when p.Trace.ets +. p.Trace.edur <= e.Trace.ets ->
          finish top;
          stack := rest;
          pop ()
        | _ -> ()
      in
      pop ();
      (match !stack with (_, child) :: _ -> child := !child +. e.Trace.edur | [] -> ());
      stack := (e, ref 0.) :: !stack)
    evs;
  List.iter finish !stack;
  Trace.buf := [];
  Trace.buf_len := 0

(** Run one operation with timing; returns its result (or the exception
    it raised, which counts as a failed operation) and its wall ms.
    Compile and analyze operations start from a compacted heap
    ([Gc.compact], untimed), so one operation's garbage does not slow the
    next and the shuffled order of a draw does not change its cost. *)
let timed ~traced name f =
  let r, ms =
    with_trace traced (fun () ->
        Trace.time_ms (fun () ->
            try Ok (layer name f) with e -> Error (Printexc.to_string e)))
  in
  collect ();
  (r, ms)

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

(** Nearest-rank percentile ([p] in 0..1) of a non-empty sample. *)
let percentile p (xs : float list) =
  match xs with
  | [] -> 0.
  | _ ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0. else (a.((n - 1) / 2) +. a.(n / 2)) /. 2.
let sum = List.fold_left ( +. ) 0.

(** Peak resident set of this process, MB ([VmHWM]). *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %f kB" (fun kb -> kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> 0.
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* ------------------------------------------------------------------ *)
(* Per-batch bookkeeping shared by the workloads                       *)
(* ------------------------------------------------------------------ *)

type batch = {
  setup_ms : float;
  op_ms : float list;  (** wall time of each timed operation *)
  attempted : int;
  failed : int;
}

(* workload-derived per-layer values summed over traced batches *)
let layer_sum : (string, float) Hashtbl.t = Hashtbl.create 32

(* latency samples (ms) by label, from untraced batches *)
let samples : (string, float list) Hashtbl.t = Hashtbl.create 8

let sample label ms =
  Hashtbl.replace samples label
    (ms :: Option.value ~default:[] (Hashtbl.find_opt samples label))

(** With [--plant-error], the first check of the run sees a corrupted
    answer: the self-test that a wrong answer raises [failed]. *)
let plant = ref false

let planted s =
  if !plant then begin
    plant := false;
    s ^ "#planted"
  end
  else s

let fail_if bad what =
  if bad then prerr_endline ("perfbench: FAILED " ^ what);
  bad

(* ------------------------------------------------------------------ *)
(* Workload: compile                                                   *)
(* ------------------------------------------------------------------ *)

(* One kernel is drawn from each group, and the draw's order is shuffled.
   Members of a group cost about the same to compile (within 10%), so
   every draw does about the same work: a small sequential kernel,
   blackscholes, and a costly kernel whose loops parallelize.
   blackscholes is in every draw because it is the median kernel, so
   op_p50_ms measures the same kernel whatever the seed.  Every member
   peaks at 8-13 MB (a whole-corpus draw would range over 8-146 MB), so
   peak_rss_mb does not depend on the seed either. *)
let compile_groups =
  [ [ "patricia"; "basicmath" ]; [ "blackscholes" ]; [ "swaptions"; "namd" ] ]

let compile_draw seed =
  let rng = Random.State.make [| seed; 0xc0 |] in
  let picks =
    List.map (fun g -> List.nth g (Random.State.int rng (List.length g))) compile_groups
  in
  List.map (fun name -> (Random.State.bits rng, name)) picks
  |> List.sort compare
  |> List.map (fun (_, name) -> Option.get (Bsuite.Kernels.find name))

let compile_batch ~seed ~traced =
  let draw = compile_draw seed in
  (* the reference: sequential interpreter on the pristine kernel *)
  let refs, setup_ms =
    with_trace traced (fun () ->
        Trace.time_ms (fun () ->
            List.map
              (fun (k : Bsuite.Kernels.kernel) ->
                let v, out, seq =
                  Psim.Runtime.run_sequential ~fuel:k.fuel (Bsuite.Kernels.compile k)
                in
                (k, Interp.v_to_string v ^ "\n" ^ out, seq))
              draw))
  in
  collect ();
  let failed = ref 0 and ops = ref [] in
  List.iter
    (fun ((k : Bsuite.Kernels.kernel), ref_out, seq) ->
      let fuel = 4 * k.fuel in
      let gate_runs = ref 0 in
      Gc.compact ();
      let r, ms =
        timed ~traced "kernel" (fun () ->
            let m = layer "minic" (fun () -> Bsuite.Kernels.compile k) in
            layer "profile" (fun () ->
                let p, _ = Noelle.Profiler.run ~fuel:k.fuel m in
                Noelle.Profiler.embed p m);
            let n = Noelle.create m in
            let config = Ntools.Passes.config ~fuel n in
            let exec m ~args ~fuel =
              incr gate_runs;
              layer "gate" (fun () -> config.Noelle.Pipeline.exec m ~args ~fuel)
            in
            let passes =
              List.map
                (fun (p : Noelle.Pipeline.pass) ->
                  { p with
                    Noelle.Pipeline.papply =
                      (fun m -> layer ("tools." ^ p.Noelle.Pipeline.pname)
                                  (fun () -> p.Noelle.Pipeline.papply m)) })
                (Ntools.Passes.standard ~vec:true n)
            in
            let report =
              layer "pipeline" (fun () ->
                  Noelle.Pipeline.run ~config:{ config with Noelle.Pipeline.exec } m passes)
            in
            let v, out, par, _ = layer "psim" (fun () -> Psim.Runtime.run ~fuel m) in
            (m, report, Interp.v_to_string v ^ "\n" ^ out, par))
      in
      ops := ms :: !ops;
      Printf.printf "  %-14s %.3f s\n" k.kname (ms /. 1000.);
      let bad =
        match r with
        | Error e -> fail_if true (k.kname ^ ": raised " ^ e)
        | Ok (m, report, out, par) ->
          if traced then begin
            let committed = List.length (Noelle.Pipeline.committed report) in
            bump layer_sum "pipeline.committed" (float_of_int committed);
            bump layer_sum "pipeline.rolled_back"
              (float_of_int (List.length report.Noelle.Pipeline.entries - committed));
            bump layer_sum "gate.runs" (float_of_int !gate_runs);
            (* every interpreter run of this kernel (profile, gate runs,
               final Psim) executes about the reference's instruction count *)
            bump layer_sum "interp.dyn_insts"
              (Int64.to_float seq *. float_of_int (!gate_runs + 2));
            bump layer_sum "psim.seq_cycles" (Int64.to_float seq);
            bump layer_sum "psim.par_cycles" (Int64.to_float par);
            bump layer_sum "psim.log_speedup" (log (Int64.to_float seq /. Int64.to_float par));
            bump layer_sum "psim.kernels" 1.
          end;
          fail_if (Result.is_error (Verify.check m)) (k.kname ^ ": does not verify")
          || fail_if (not report.Noelle.Pipeline.final_ok) (k.kname ^ ": final module not ok")
          || fail_if (planted out <> ref_out) (k.kname ^ ": Psim output differs from reference")
      in
      if bad then incr failed)
    refs;
  { setup_ms; op_ms = List.rev !ops; attempted = List.length refs; failed = !failed }

let compile_describe seed =
  String.concat ", "
    (List.map (fun (k : Bsuite.Kernels.kernel) -> k.kname) (compile_draw seed))

(* ------------------------------------------------------------------ *)
(* Workload: analyze                                                   *)
(* ------------------------------------------------------------------ *)

let digests_file = "perfbench/analyze_digests.txt"

(* Two size classes of generated modules.  The large one is big enough to
   show the superlinear frontend and analysis work.  Each class keeps only
   programs in a narrow band of instruction counts, so that every draw
   from its pool does about the same work. *)
type size_class = {
  cname : string;
  gcfg : Bsuite.Generator.cfg;
  insts : int * int;  (** accepted instruction counts, inclusive *)
  pool : int;  (** modules recorded in {!digests_file} *)
  draw : int;  (** modules drawn per seed *)
}

let classes =
  [ { cname = "small"; gcfg = Bsuite.Generator.default_cfg; insts = (140, 180);
      pool = 48; draw = 32 };
    { cname = "large";
      gcfg = { Bsuite.Generator.default_cfg with max_depth = 3; max_stmts = 18; arrays = 6 };
      insts = (1000, 1150); pool = 24; draw = 16 } ]

let class_cfg name = (List.find (fun c -> c.cname = name) classes).gcfg

(** The fixed analysis of one module, in the order a NOELLE user asks
    for it; returns the manager and the module's functions with their
    loops. *)
let analyze_module name src =
  let m = layer "minic" (fun () -> Minic.Lower.compile ~name src) in
  let n = Noelle.create m in
  layer "andersen" (fun () -> ignore (Noelle.andersen n));
  let fns =
    List.map
      (fun f ->
        layer "pdg" (fun () -> ignore (Noelle.pdg n f));
        let loops =
          layer "loops" (fun () ->
              ignore (Noelle.loopnest n f);
              Noelle.loops n f)
        in
        layer "bounds" (fun () -> ignore (Noelle.bounds n f));
        layer "loopabs" (fun () ->
            List.iter
              (fun l ->
                ignore (Noelle.invariants n l);
                ignore (Noelle.induction_variables n l);
                ignore (Noelle.scc_dag n l))
              loops);
        (f, loops))
      (Irmod.defined_functions m)
  in
  layer "callgraph" (fun () -> ignore (Noelle.callgraph n));
  (m, n, fns)

(** Answer digest: PDG and bound payloads, loop / invariant / IV / SCC
    counts, per function (all cache hits on the analyzed manager). *)
let answer_digest n fns =
  let b = Buffer.create 4096 in
  List.iter
    (fun ((f : Func.t), loops) ->
      Buffer.add_string b f.Func.fname;
      Buffer.add_string b (Noelle.Pdg.payload (Noelle.pdg n f));
      Buffer.add_string b (Bounds.summary_payload (Noelle.bounds n f));
      List.iter
        (fun l ->
          Buffer.add_string b
            (Printf.sprintf "|loop inv=%d iv=%d scc=%d"
               (Noelle.Invariants.count (Noelle.invariants n l))
               (List.length (Noelle.induction_variables n l))
               (List.length (Noelle.scc_dag n l).Noelle.Sccdag.sccs)))
        loops)
    fns;
  Digest.to_hex (Digest.string (Buffer.contents b))

let module_name cls gseed = Printf.sprintf "%s%d" cls gseed

(** Rewrite {!digests_file}: the module pool of each class with the
    answer digest each module must keep. *)
let record_digests () =
  let oc = open_out digests_file in
  output_string oc "# class generator-seed answer-digest (main.exe --record-digests)\n";
  List.iter
    (fun c ->
      let lo, hi = c.insts in
      let rec scan gseed found =
        if found < c.pool then begin
          let src = Bsuite.Generator.program ~cfg:c.gcfg gseed in
          (* about 9 source bytes per instruction: skip compiling the rest *)
          let len = String.length src in
          let fits =
            len >= 7 * lo && len <= 12 * hi
            && (let n = Irmod.total_insts (Minic.Lower.compile src) in
                n >= lo && n <= hi)
          in
          if fits then begin
            let _, n, fns = analyze_module (module_name c.cname gseed) src in
            Printf.fprintf oc "%s %d %s\n" c.cname gseed (answer_digest n fns)
          end;
          scan (gseed + 1) (if fits then found + 1 else found)
        end
      in
      scan 1 0)
    classes;
  close_out oc

let load_digests () =
  let ic = open_in digests_file in
  let rec go acc =
    match input_line ic with
    | l when String.length l > 0 && l.[0] = '#' -> go acc
    | l -> go (Scanf.sscanf l "%s %d %s" (fun c s d -> (c, s, d)) :: acc)
    | exception End_of_file -> List.rev acc
  in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> go [])

(** The seed's draw: a seeded subset of each class's pool. *)
let analyze_draw seed =
  let rng = Random.State.make [| seed; 0xa7 |] in
  let pool = load_digests () in
  List.concat_map
    (fun c ->
      let a = Array.of_list (List.filter (fun (cls, _, _) -> cls = c.cname) pool) in
      for i = Array.length a - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let t = a.(i) in
        a.(i) <- a.(j);
        a.(j) <- t
      done;
      Array.to_list (Array.sub a 0 c.draw))
    classes

let analyze_batch ~seed ~traced =
  let inputs, setup_ms =
    with_trace traced (fun () ->
        Trace.time_ms (fun () ->
            List.map
              (fun (cls, gseed, digest) ->
                (module_name cls gseed,
                 Bsuite.Generator.program ~cfg:(class_cfg cls) gseed, digest))
              (analyze_draw seed)))
  in
  collect ();
  let failed = ref 0 and ops = ref [] in
  List.iter
    (fun (name, src, expected) ->
      Gc.compact ();
      let r, ms = timed ~traced "module" (fun () -> analyze_module name src) in
      ops := ms :: !ops;
      let bad =
        match r with
        | Error e -> fail_if true (name ^ ": raised " ^ e)
        | Ok (m, n, fns) ->
          if traced then begin
            bump layer_sum "minic.insts" (float_of_int (Irmod.total_insts m));
            List.iter
              (fun (f, _) ->
                let p = Noelle.pdg n f in
                bump layer_sum "pdg.mem_pairs_total" (float_of_int p.Noelle.Pdg.mem_pairs_total);
                bump layer_sum "pdg.mem_pairs_disproved"
                  (float_of_int p.Noelle.Pdg.mem_pairs_disproved))
              fns
          end;
          fail_if (Noelle.degraded n) (name ^ ": degraded")
          || fail_if (planted (answer_digest n fns) <> expected) (name ^ ": answer digest changed")
      in
      if bad then incr failed)
    inputs;
  { setup_ms; op_ms = List.rev !ops; attempted = List.length inputs; failed = !failed }

let analyze_describe seed =
  String.concat " " (List.map (fun (c, s, _) -> module_name c s) (analyze_draw seed))

(* ------------------------------------------------------------------ *)
(* Workload: serve                                                     *)
(* ------------------------------------------------------------------ *)

(* The request count is part of the workload: every edit plants an
   instruction, so functions, and request cost, grow along a stream.  A
   batch serves [serve_streams] streams of 2000 requests, each from an
   empty store, so one seed's mix does not decide the latencies; each
   batch leaves 80 samples beyond its p99. *)
let serve_requests = 2000
let serve_streams = 4

let tmp_root = Printf.sprintf ".bench_tmp/serve-%d" (Unix.getpid ())

let serve_corpus () =
  List.map
    (fun name -> (name, Bsuite.Kernels.compile (Option.get (Bsuite.Kernels.find name))))
    Serve.Workload.default_pool

let serve_stream seed j =
  Serve.Workload.generate ~seed:((seed * 8) + j) ~mods:Serve.Workload.default_pool
    ~requests:serve_requests

(** The oracle: replay the stream on a fresh corpus without any store,
    answering each query from a fresh manager over the module as edited
    so far.  An edit's answer is the edited function's fingerprint, a
    query's the digest of its payload. *)
let serve_oracle (w : Serve.Workload.t) =
  let corpus = serve_corpus () in
  let mgrs = Hashtbl.create 8 in
  let mgr name =
    match Hashtbl.find_opt mgrs name with
    | Some n -> n
    | None ->
      let n = Noelle.create (List.assoc name corpus) in
      Hashtbl.replace mgrs name n;
      n
  in
  List.map
    (function
      | Serve.Workload.Edit { emod; efn; eseed } ->
        let f = Serve.apply_edit (List.assoc emod corpus) ~efn ~eseed in
        Hashtbl.remove mgrs emod;
        Fingerprint.func_fp f
      | Serve.Workload.Query { qmod; qfn; qkind } ->
        let f = Serve.nth_fn (List.assoc qmod corpus) qfn in
        let n = mgr qmod in
        Digest.string
          (match qkind with
          | Serve.Workload.Qdeps -> Noelle.Pdg.payload (Noelle.pdg n f)
          | Serve.Workload.Qbounds -> Bounds.summary_payload (Noelle.bounds n f)
          | Serve.Workload.Qloops -> Serve.loops_payload f (Noelle.loopnest n f)))
    w.Serve.Workload.reqs

(* every batch of a run serves the same streams: replay each once *)
let oracle_cache : (int, string list) Hashtbl.t = Hashtbl.create 4

let serve_check (w : Serve.Workload.t) (answers : Serve.answer list) =
  let expected =
    match Hashtbl.find_opt oracle_cache w.Serve.Workload.wseed with
    | Some e -> e
    | None ->
      let e = serve_oracle w in
      Hashtbl.replace oracle_cache w.Serve.Workload.wseed e;
      e
  in
  List.fold_left2
    (fun failed (a : Serve.answer) want ->
      let ok =
        if a.Serve.asource = "edit" then String.ends_with ~suffix:want (planted a.Serve.atext)
        else (not a.Serve.adegraded) && a.Serve.asource <> "degraded"
             && planted a.Serve.apayload = want
      in
      if fail_if (not ok) a.Serve.areq then failed + 1 else failed)
    0 answers expected

(** One stream from an empty store; returns (set-up ms, request ms,
    failed requests). *)
let serve_one ~traced (w : Serve.Workload.t) =
  Serve.Store.remove_tree tmp_root;
  Gc.compact ();
  let sv, setup_ms =
    with_trace traced (fun () ->
        Trace.time_ms (fun () ->
            let corpus = serve_corpus () in
            layer "serve.create" (fun () -> Serve.create ~root:tmp_root corpus)))
  in
  collect ();
  let ops = ref [] and answers = ref [] and failed = ref 0 in
  List.iteri
    (fun idx req ->
      let r, ms =
        timed ~traced "serve.request" (fun () -> Serve.handle_request sv idx req)
      in
      ops := ms :: !ops;
      match r with
      | Error e ->
        ignore (fail_if true (Serve.Workload.req_to_string req ^ ": raised " ^ e));
        incr failed
      | Ok a ->
        (* keep a digest, not the payload, so that the benchmark's own
           live data stays small while the program is timed *)
        answers := { a with Serve.apayload = Digest.string a.Serve.apayload } :: !answers;
        if not traced then begin
          sample (Serve.kind_label req) ms;
          sample a.Serve.asource ms
        end)
    w.Serve.Workload.reqs;
  Serve.Store.close sv.Serve.store;
  Serve.Store.remove_tree tmp_root;
  let answers = List.rev !answers in
  if traced then begin
    let count src =
      float_of_int (List.length (List.filter (fun a -> a.Serve.asource = src) answers))
    in
    bump layer_sum "store.hits" (count "hit");
    bump layer_sum "store.queries" (count "hit" +. count "computed" +. count "degraded")
  end;
  let failed =
    if !failed > 0 then !failed else serve_check w answers
  in
  (setup_ms, List.rev !ops, failed)

let serve_batch ~seed ~traced =
  let runs = List.init serve_streams (fun j -> serve_one ~traced (serve_stream seed j)) in
  {
    setup_ms = sum (List.map (fun (s, _, _) -> s) runs);
    op_ms = List.concat_map (fun (_, o, _) -> o) runs;
    attempted = serve_streams * serve_requests;
    failed = List.fold_left (fun n (_, _, f) -> n + f) 0 runs;
  }

let serve_describe seed =
  Printf.sprintf "%d streams of %d requests over %s; first requests: %s" serve_streams
    serve_requests (String.concat "," Serve.Workload.default_pool)
    (String.concat ", "
       (List.init serve_streams (fun j ->
            Serve.Workload.req_to_string (List.hd (serve_stream seed j).Serve.Workload.reqs))))

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

(* existing program counters reported per batch by the traced run *)
let program_counters =
  [ "andersen.constraints"; "andersen.delta_props"; "pdg.alias_queries";
    "pdg.pairs_skipped_bucketing"; "pdg.alias_memo_hits"; "bounds.queries";
    "noelle.cache.hit"; "noelle.cache.miss"; "noelle.invalidate.kept";
    "noelle.invalidate.dropped"; "obs.events"; "psim.tasks";
    "serve.store.hits"; "serve.store.misses"; "serve.store.stale";
    "serve.store.writes"; "serve.computed"; "serve.shed" ]

let tools = [ "licm"; "dead"; "vec"; "doall"; "helix"; "dswp" ]

(** Per-layer metrics of a traced run: (name, unit, value). *)
let layer_metrics ~traced_batches ~untraced ~traced ~counters =
  let per_batch v = v /. float_of_int (max 1 traced_batches) in
  let busy name = per_batch (get self_s name) in
  let lsum name = per_batch (get layer_sum name) in
  let ratio a b = if b = 0. then 0. else a /. b in
  let p q label = percentile q (Option.value ~default:[] (Hashtbl.find_opt samples label)) in
  let interp_s = busy "profile" +. busy "gate" +. busy "psim" in
  let analysis =
    [ "minic"; "andersen"; "pdg"; "loops"; "bounds"; "loopabs"; "callgraph" ]
  in
  let batch_s l = median (List.map (fun b -> sum b.op_ms /. 1000.) l) in
  [ ("minic.busy_s", "s", busy "minic");
    ("minic.insts", "count", lsum "minic.insts");
    ("profile.busy_s", "s", busy "profile");
    ("interp.dyn_insts", "count", lsum "interp.dyn_insts");
    ("interp.msteps_per_s", "Msteps/s", ratio (lsum "interp.dyn_insts" /. 1e6) interp_s) ]
  @ List.map (fun t -> ("tools." ^ t ^ ".busy_s", "s", busy ("tools." ^ t))) tools
  @ [ ("gate.busy_s", "s", busy "gate");
      ("gate.runs", "count", lsum "gate.runs");
      ("pipeline.other_s", "s", busy "pipeline");
      ("pipeline.committed", "count", lsum "pipeline.committed");
      ("pipeline.rolled_back", "count", lsum "pipeline.rolled_back");
      ("psim.busy_s", "s", busy "psim");
      ("psim.seq_cycles", "count", lsum "psim.seq_cycles");
      ("psim.par_cycles", "count", lsum "psim.par_cycles");
      ("psim.speedup_geomean", "x",
       if lsum "psim.kernels" = 0. then 0.
       else exp (lsum "psim.log_speedup" /. lsum "psim.kernels")) ]
  @ List.map (fun a -> (a ^ ".busy_s", "s", busy a)) (List.tl analysis)
  @ [ ("analyze.kinsts_per_s", "kinst/s",
       ratio (lsum "minic.insts" /. 1000.) (List.fold_left (fun s a -> s +. busy a) 0. analysis));
      ("pdg.disproved_pct", "%",
       100. *. ratio (lsum "pdg.mem_pairs_disproved") (lsum "pdg.mem_pairs_total")) ]
  @ List.map
      (fun k -> ("serve." ^ k ^ ".p99_ms", "ms", p 0.99 k))
      [ "edit"; "deps"; "bounds"; "loops" ]
  @ [ ("serve.hit.p50_ms", "ms", p 0.5 "hit");
      ("serve.computed.p50_ms", "ms", p 0.5 "computed");
      ("store.hit_pct", "%", 100. *. ratio (lsum "store.hits") (lsum "store.queries"));
      ("serve.create_s", "s", busy "serve.create") ]
  @ List.map
      (fun ph -> ("serve.phase." ^ ph ^ "_s", "s", busy ("serve.phase." ^ ph)))
      [ "store_lookup"; "recompute"; "persist" ]
  @ List.map
      (fun c -> (c, "count", Int64.to_float (Option.value ~default:0L (List.assoc_opt c counters))))
      program_counters
  @ [ ("trace.overhead_pct", "%", 100. *. (ratio (batch_s traced) (batch_s untraced) -. 1.));
      ("trace.dropped", "count", Int64.to_float (Trace.counter "trace.dropped")) ]

(** End-to-end metrics of an untraced run. *)
let e2e_metrics (bs : batch list) ~attempted ~failed =
  let per_batch f = median (List.map f bs) in
  [ ("setup_s", "s", per_batch (fun b -> b.setup_ms /. 1000.));
    ("batch_s", "s", per_batch (fun b -> sum b.op_ms /. 1000.));
    ("op_p50_ms", "ms", per_batch (fun b -> percentile 0.5 b.op_ms));
    ("ok_pct", "%", 100. *. float_of_int (attempted - failed) /. float_of_int attempted);
    ("peak_rss_mb", "MB", peak_rss_mb ()) ]

let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun (n, u, v) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_num v) u)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed (String.concat ", " m)

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let counter_delta before after =
  List.filter_map
    (fun (k, v) ->
      let d = Int64.sub v (Option.value ~default:0L (List.assoc_opt k before)) in
      if k = "trace.dropped" || d = 0L then None else Some (k, d))
    after

let run workload seed seconds trace =
  let batch, describe =
    match workload with
    | "compile" -> (compile_batch, compile_describe)
    | "analyze" -> (analyze_batch, analyze_describe)
    | "serve" -> (serve_batch, serve_describe)
    | w -> failwith ("unknown workload " ^ w)
  in
  Printf.printf "perfbench: workload %s, seed %d, draw: %s\n%!" workload seed (describe seed);
  if trace then begin
    Trace.enable ();
    Trace.on := false
  end;
  let untraced = ref [] and traced = ref [] and measured = ref 0. in
  let counts = ref [] in
  while !measured < seconds || !untraced = [] || (trace && !traced = []) do
    let is_traced = trace && List.length !untraced > List.length !traced in
    let before = Trace.counters () in
    let b = batch ~seed ~traced:is_traced in
    let s = sum b.op_ms /. 1000. in
    measured := !measured +. s;
    Printf.printf "batch %d%s: setup %.3f s, %d ops in %.3f s, %d failed\n%!"
      (List.length !untraced + List.length !traced)
      (if is_traced then " (traced)" else "") (b.setup_ms /. 1000.) b.attempted s b.failed;
    if is_traced then begin
      counts := counter_delta before (Trace.counters ()) :: !counts;
      traced := b :: !traced
    end
    else untraced := b :: !untraced
  done;
  let all = !untraced @ !traced in
  let attempted = List.fold_left (fun n b -> n + b.attempted) 0 all in
  let failed = List.fold_left (fun n b -> n + b.failed) 0 all in
  let deterministic = List.for_all (( = ) (List.hd (!counts @ [ [] ]))) !counts in
  let metrics =
    if not trace then e2e_metrics !untraced ~attempted ~failed
    else begin
      let counters = List.hd !counts in
      let ms =
        layer_metrics ~traced_batches:(List.length !traced) ~untraced:!untraced
          ~traced:!traced ~counters
      in
      Printf.printf "\nself time per traced batch (s), share of batch:\n";
      let total = Hashtbl.fold (fun _ v acc -> acc +. v) self_s 0. in
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) self_s []
      |> List.sort (fun (_, a) (_, b) -> compare b a)
      |> List.iter (fun (k, v) ->
             Printf.printf "  %-28s %10.4f %6.1f%%\n" k
               (v /. float_of_int (List.length !traced))
               (100. *. v /. total));
      let cycles =
        List.filter (fun (n, _, _) -> n = "psim.seq_cycles" || n = "psim.par_cycles") ms
      in
      Printf.printf "counts digest (same seed, same digest): %s\n"
        (Digest.to_hex (Digest.string (Marshal.to_string (counters, cycles) [])));
      ignore (fail_if (not deterministic) "counts differ between traced batches");
      ignore (fail_if (Trace.counter "trace.dropped" > 0L) "trace events dropped");
      ms
    end
  in
  List.iter (fun (n, u, v) -> Printf.printf "  %-28s %14.4f %s\n" n v u) metrics;
  let correct =
    failed = 0 && deterministic && Trace.counter "trace.dropped" = 0L
  in
  print_result ~correct ~attempted ~failed metrics

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let record = ref false in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "compile|analyze|serve");
      ("--seed", Arg.Set_int seed, "N  seed of the workload draw");
      ("--seconds", Arg.Set_float seconds, "S  measured time to fill with batches");
      ("--trace", Arg.Set_int trace, "0|1  per-layer run with tracing on");
      ("--plant-error", Arg.Set plant, " corrupt the first checked answer (self-test)");
      ("--record-digests", Arg.Set record, " rewrite " ^ digests_file) ]
    (fun a -> raise (Arg.Bad a))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  if !record then record_digests ()
  else begin
    at_exit (fun () ->
        Serve.Store.remove_tree tmp_root;
        try Sys.rmdir (Filename.dirname tmp_root) with Sys_error _ -> ());
    run !workload !seed !seconds (!trace = 1)
  end
