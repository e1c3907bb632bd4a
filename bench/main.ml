(** Benchmark harness: regenerates every table and figure of the paper's
    evaluation (see DESIGN.md §4 for the experiment index and
    EXPERIMENTS.md for paper-vs-measured numbers).

    Usage:
      dune exec bench/main.exe                 # all sections
      dune exec bench/main.exe -- figure5      # one section
      dune exec bench/main.exe -- --emit-test-script  # write run_all_tests.sh
      dune exec bench/main.exe -- --json figure3      # + BENCH_figure3.json
    Sections: table1 table2 table3 table4 figure3 figure4 iv figure5 spec
    dead construct *)

let ncores = 12
let arch = Noelle.Arch.measure ~physical_cores:ncores ()

let banner title = Printf.printf "\n== %s ==\n" title

(* ------------------------------------------------------------------ *)
(* --json: machine-readable benchmark rows                              *)
(* ------------------------------------------------------------------ *)

(** With [--json], instrumented sections also write BENCH_<section>.json:
    one row per benchmark with wall-clock ms, the telemetry-counter
    deltas (PDG queries, Andersen constraints, psim cycles, ...) its run
    produced, and any gauges it set (derived rates and percentiles —
    kept out of the counter namespace so [--compare] can hold counters
    to exact equality while giving wall-dependent gauges a ratio
    tolerance). *)
let json_mode = ref false

type row = {
  rname : string;
  rwall_ms : float;
  rcounters : (string * int64) list;  (** deltas over the row's run *)
  rgauges : (string * float) list;  (** gauges set/changed by the row *)
}

let json_rows : row list ref = ref []

(** Run one benchmark body, recording a JSON row when [--json] is on. *)
let bench_row name f =
  if not !json_mode then f ()
  else begin
    let before = Ir.Trace.counters () in
    let gbefore = Ir.Trace.gauges () in
    let x, ms = Ir.Trace.time_ms f in
    let deltas =
      List.filter_map
        (fun (k, v) ->
          let v0 = Option.value ~default:0L (List.assoc_opt k before) in
          if Int64.compare v v0 > 0 then Some (k, Int64.sub v v0) else None)
        (Ir.Trace.counters ())
    in
    let gauges =
      List.filter
        (fun (k, v) -> List.assoc_opt k gbefore <> Some v)
        (Ir.Trace.gauges ())
    in
    json_rows :=
      { rname = name; rwall_ms = ms; rcounters = deltas; rgauges = gauges }
      :: !json_rows;
    x
  end

let q s = "\"" ^ Ir.Trace.json_escape s ^ "\""

let row_to_json (r : row) =
  Printf.sprintf "{\"name\":%s,\"wall_ms\":%.3f,\"counters\":{%s},\"gauges\":{%s}}"
    (q r.rname) r.rwall_ms
    (String.concat ","
       (List.map (fun (k, v) -> Printf.sprintf "%s:%Ld" (q k) v) r.rcounters))
    (String.concat ","
       (List.map (fun (k, v) -> Printf.sprintf "%s:%.3f" (q k) v) r.rgauges))

(* ------------------------------------------------------------------ *)
(* --compare: bench-history regression gate                            *)
(* ------------------------------------------------------------------ *)

(** With [--compare], sections run fresh and are diffed against the
    checked-in BENCH_<section>.json baselines instead of overwriting
    them: counters must match exactly (they are deterministic functions
    of the seeded workloads); wall clock and gauges get a generous ratio
    tolerance (they measure the machine, not the algorithm); every
    section's {!required_keys} must be present in both the fresh rows and
    the baseline.  The fresh rows land in [_bench/].  Any failure exits
    non-zero — this is [make bench-regress]. *)
let compare_mode = ref false

let compare_failures : string list ref = ref []

(* wall/gauge tolerances: CI machines differ, the gate is for
   asymptotics; rows/values under the floor are too small to compare *)
let wall_ratio_tol = 8.0
let wall_floor_ms = 20.0
let gauge_ratio_tol = 8.0
let gauge_floor = 50.0

let load_baseline section : row list option =
  let file = Printf.sprintf "BENCH_%s.json" section in
  if not (Sys.file_exists file) then None
  else begin
    let module J = Ir.Trace.Json in
    let ic = open_in_bin file in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    let doc = J.parse s in
    let rows =
      Option.bind (J.member "benchmarks" doc) J.to_list
      |> Option.value ~default:[]
    in
    Some
      (List.filter_map
         (fun r ->
           match Option.bind (J.member "name" r) J.to_string with
           | None -> None
           | Some name ->
             let wall =
               Option.value ~default:0.0
                 (Option.bind (J.member "wall_ms" r) J.to_num)
             in
             let nums field =
               match J.member field r with
               | Some (J.Obj kvs) ->
                 List.filter_map
                   (fun (k, v) ->
                     Option.map (fun f -> (k, f)) (J.to_num v))
                   kvs
               | _ -> []
             in
             Some
               {
                 rname = name;
                 rwall_ms = wall;
                 rcounters =
                   List.map (fun (k, f) -> (k, Int64.of_float f)) (nums "counters");
                 rgauges = nums "gauges";
               })
         rows)
  end

(** p999 of a few-hundred-sample histogram is literally the slowest
    request — one GC pause or disk hiccup moves it 30x.  Keep it in the
    baseline (structural presence still checked) but exempt it from the
    ratio comparison. *)
let gauge_ratio_exempt k =
  let suf = "p999_us" in
  String.length k >= String.length suf
  && String.sub k (String.length k - String.length suf) (String.length suf)
     = suf

let ratio_ok ~tol ~floor a b =
  (a <= floor && b <= floor)
  || (a > 0.0 && b > 0.0 && a /. b <= tol && b /. a <= tol)

(** Diff fresh rows against a baseline; returns human-readable failures. *)
let diff_rows ~section (fresh : row list) (base : row list) : string list =
  let fails = ref [] in
  let fail fmt =
    Printf.ksprintf (fun s -> fails := Printf.sprintf "%s: %s" section s :: !fails) fmt
  in
  List.iter
    (fun (r : row) ->
      match List.find_opt (fun b -> b.rname = r.rname) base with
      | None -> fail "row %s missing from baseline (new benchmark? refresh with make bench-json)" r.rname
      | Some { rwall_ms = bwall; rcounters = bcounters; rgauges = bgauges; _ } ->
        (* counters: exact both directions *)
        List.iter
          (fun (k, v) ->
            match List.assoc_opt k bcounters with
            | Some bv when Int64.equal bv v -> ()
            | Some bv -> fail "%s counter %s: baseline %Ld, now %Ld" r.rname k bv v
            | None -> fail "%s counter %s appeared (now %Ld)" r.rname k v)
          r.rcounters;
        List.iter
          (fun (k, bv) ->
            if List.assoc_opt k r.rcounters = None then
              fail "%s counter %s disappeared (baseline %Ld)" r.rname k bv)
          bcounters;
        (* wall: ratio tolerance *)
        if not (ratio_ok ~tol:wall_ratio_tol ~floor:wall_floor_ms bwall r.rwall_ms)
        then
          fail "%s wall %.1fms vs baseline %.1fms (> %.0fx)" r.rname r.rwall_ms
            bwall wall_ratio_tol;
        (* gauges: ratio tolerance; appearing/disappearing is structural *)
        List.iter
          (fun (k, v) ->
            match List.assoc_opt k bgauges with
            | Some _ when gauge_ratio_exempt k -> ()
            | Some bv when ratio_ok ~tol:gauge_ratio_tol ~floor:gauge_floor bv v
              -> ()
            | Some bv -> fail "%s gauge %s: %.1f vs baseline %.1f" r.rname k v bv
            | None -> fail "%s gauge %s appeared" r.rname k)
          r.rgauges;
        List.iter
          (fun (k, _) ->
            if List.assoc_opt k r.rgauges = None then
              fail "%s gauge %s disappeared" r.rname k)
          bgauges)
    fresh;
  List.iter
    (fun b ->
      if not (List.exists (fun r -> r.rname = b.rname) fresh) then
        fail "row %s in baseline but not produced by this run" b.rname)
    base;
  List.rev !fails

(** Keys each section must carry, as a counter or gauge of at least one
    row, in both the fresh rows and the baseline: the sparse engine
    actually ran (delta propagations, bucketing skips), and the bounds,
    serving, SLO and vectorizer metrics are logged. *)
let required_keys =
  [ ("figure3", [ "andersen.delta_props"; "pdg.pairs_skipped_bucketing" ]);
    ("scaling", [ "andersen.delta_props" ]);
    ("bounds", [ "bounds.queries"; "bounds.loops_exact" ]);
    ( "serve",
      [ "serve.queries"; "serve.store.hits"; "serve.shed"; "serve.quarantined";
        "serve.bench.qps"; "serve.bench.recovery_us" ] );
    ( "slo",
      "serve.bench.trace_overhead_pct"
      :: List.map
           (Printf.sprintf "serve.bench.slo.%s.p99_us")
           [ "edit"; "deps"; "bounds"; "loops" ] );
    ( "figure5",
      [ "vec.loops_considered"; "vec.vectorized"; "vec.if_converted";
        "fig5.blackscholes.vec" ] ) ]

(** Sections where no PDG build or points-to solve may fall back to a
    degraded answer: no row name or metric key may mention "degraded". *)
let no_degraded = [ "figure3"; "scaling"; "bounds" ]

let mentions_degraded k = Noelle.Pipeline.contains k "degraded"

let required section =
  Option.value ~default:[] (List.assoc_opt section required_keys)

let row_keys r = List.map fst r.rcounters @ List.map fst r.rgauges

(** Required-key and no-degraded failures over [rows]; [what] names the
    rows' origin. *)
let key_failures ~section ~what (rows : row list) =
  let keys = List.concat_map row_keys rows in
  List.filter_map
    (fun k ->
      if List.mem k keys then None
      else Some (Printf.sprintf "%s: %s lacks required key %s" section what k))
    (required section)
  @
  if not (List.mem section no_degraded) then []
  else
    List.filter_map
      (fun r ->
        Option.map
          (Printf.sprintf "%s: %s row %s: degraded %s" section what r.rname)
          (List.find_opt mentions_degraded (r.rname :: row_keys r)))
      rows

(** The comparator must actually be able to fail: inject a one-count
    counter regression into the fresh rows, drop each required key, and
    (where degraded answers are banned) plant a degraded counter — each
    must be detected. *)
let self_check ~section (fresh : row list) (base : row list) : string list =
  match fresh with
  | [] -> []
  | r0 :: rest ->
    let missed what =
      Printf.sprintf "%s: SELF-CHECK FAILED: %s not detected" section what
    in
    (* a synthetic counter the baseline cannot contain: its appearance
       must always be flagged, and it cannot coincidentally cancel a
       real regression the way perturbing an existing counter could *)
    let perturbed =
      { r0 with rcounters = ("bench.selfcheck.injected", 1L) :: r0.rcounters }
    in
    let keys = key_failures ~section ~what:"fresh run" in
    let drop k r =
      { r with
        rcounters = List.remove_assoc k r.rcounters;
        rgauges = List.remove_assoc k r.rgauges }
    in
    let degraded =
      { r0 with rcounters = ("pdg.degraded", 1L) :: r0.rcounters } :: rest
    in
    (if diff_rows ~section (perturbed :: rest) base = [] then
       [ missed "injected counter regression" ]
     else [])
    @ List.filter_map
        (fun k ->
          if keys (List.map (drop k) fresh) = [] then
            Some (missed ("dropped required key " ^ k))
          else None)
        (required section)
    @
    if List.mem section no_degraded && keys degraded = [] then
      [ missed "planted pdg.degraded counter" ]
    else []

let write_rows file section rows =
  let oc = open_out file in
  Printf.fprintf oc "{\"section\":%s,\"benchmarks\":[%s]}\n" (q section)
    (String.concat "," (List.map row_to_json rows));
  close_out oc;
  Printf.printf "  wrote %s (%d rows)\n" file (List.length rows)

let finish_section section =
  if !json_mode then begin
    let rows = List.rev !json_rows in
    json_rows := [];
    let file = Printf.sprintf "BENCH_%s.json" section in
    if rows <> [] then
      if !compare_mode then begin
        if not (Sys.file_exists "_bench") then Sys.mkdir "_bench" 0o755;
        write_rows (Filename.concat "_bench" file) section rows;
        match load_baseline section with
        | None ->
          compare_failures :=
            Printf.sprintf "%s: no checked-in %s baseline" section file
            :: !compare_failures
        | Some base ->
          let fails =
            diff_rows ~section rows base
            @ key_failures ~section ~what:"fresh run" rows
            @ key_failures ~section ~what:"baseline" base
            @ self_check ~section rows base
          in
          compare_failures := List.rev_append fails !compare_failures;
          Printf.printf "  compare %s: %d rows vs %s — %s\n" section
            (List.length rows) file
            (if fails = [] then "ok (self-check armed)"
             else Printf.sprintf "%d FAILURES" (List.length fails))
      end
      else write_rows file section rows
  end

(* ------------------------------------------------------------------ *)
(* LoC counting (tables 1-3)                                           *)
(* ------------------------------------------------------------------ *)

(** Count non-blank lines of a source file; returns 0 when the source
    tree is not available (running outside the repo). *)
let loc path =
  try
    let ic = open_in path in
    let n = ref 0 in
    (try
       while true do
         let l = String.trim (input_line ic) in
         if String.length l > 0 then incr n
       done
     with End_of_file -> ());
    close_in ic;
    !n
  with Sys_error _ -> 0

let find_root () =
  let rec up d k =
    if k = 0 then None
    else if Sys.file_exists (Filename.concat d "lib/core/pdg.ml") then Some d
    else up (Filename.concat d "..") (k - 1)
  in
  up "." 6

let table1 () =
  banner "Table 1: NOELLE's abstractions (measured LoC of this reproduction)";
  match find_root () with
  | None -> print_endline "  (source tree not found; skipping LoC count)"
  | Some root ->
    let abstractions =
      [ ("PDG", [ "depgraph.ml"; "pdg.ml" ], "-");
        ("aSCCDAG", [ "sccdag.ml"; "ascc.ml" ], "PDG");
        ("Call graph (CG)", [ "callgraph.ml" ], "PDG");
        ("Environment (ENV)", [ "env.ml" ], "PDG");
        ("Task (T)", [ "task.ml" ], "ENV");
        ("Data-flow engine (DFE)", [ "dfe.ml" ], "-");
        ("Loop structure (LS)", [ "loopstructure.ml" ], "-");
        ("Profiler (PRO)", [ "profiler.ml" ], "LS");
        ("Scheduler (SCD)", [ "scheduler.ml" ], "PDG, LS, DFE");
        ("Invariant (INV)", [ "invariants.ml" ], "PDG, LS");
        ("Induction variable (IV)", [ "indvars.ml" ], "LS, INV, aSCCDAG");
        ("IV stepper (IVS)", [ "ivstepper.ml" ], "LS, INV, IV");
        ("Reduction (RD)", [ "reduction.ml" ], "aSCCDAG, INV, IV");
        ("Loop (L)", [ "loop.ml" ], "LS, PDG, IV, INV, aSCCDAG, RD");
        ("Forest (FR)", [ "forest.ml" ], "L, CG");
        ("Loop builder (LB)", [ "loopbuilder.ml" ], "FR, L, DFE, IV, IVS, INV");
        ("Islands (ISL)", [ "islands.ml" ], "PDG, CG");
        ("Architecture (AR)", [ "arch.ml" ], "-");
        ("Baselines (Alg.1, LLVM IV)", [ "invariants_llvm.ml"; "indvars_llvm.ml" ], "-");
        ("Manager (noelle-load layer)", [ "noelle.ml" ], "-");
      ]
    in
    let total = ref 0 in
    Printf.printf "  %-34s %6s  %s\n" "Abstraction" "LoC" "Depends on";
    List.iter
      (fun (name, files, deps) ->
        let n =
          List.fold_left
            (fun acc file -> acc + loc (Filename.concat root ("lib/core/" ^ file)))
            0 files
        in
        total := !total + n;
        Printf.printf "  %-34s %6d  %s\n" name n deps)
      abstractions;
    Printf.printf "  %-34s %6d\n" "TOTAL (paper: 26142)" !total

let table2 () =
  banner "Table 2: NOELLE's tools (measured LoC)";
  match find_root () with
  | None -> print_endline "  (source tree not found; skipping)"
  | Some root ->
    let tools =
      [ ("noelle-whole-IR", "bin/noelle_whole_ir.ml");
        ("noelle-rm-lc-dependences", "bin/noelle_rm_lc_deps.ml");
        ("noelle-prof-coverage", "bin/noelle_prof_coverage.ml");
        ("noelle-meta-prof-embed", "bin/noelle_meta_prof_embed.ml");
        ("noelle-meta-pdg-embed", "bin/noelle_meta_pdg_embed.ml");
        ("noelle-meta-clean", "bin/noelle_meta_clean.ml");
        ("noelle-load", "bin/noelle_load.ml");
        ("noelle-arch", "bin/noelle_arch.ml");
        ("noelle-linker", "bin/noelle_linker.ml");
        ("noelle-bin", "bin/noelle_bin.ml");
        ("(frontend) minicc", "bin/minicc.ml");
      ]
    in
    let total = ref 0 in
    List.iter
      (fun (name, file) ->
        let n = loc (Filename.concat root file) in
        total := !total + n;
        Printf.printf "  %-28s %6d\n" name n)
      tools;
    Printf.printf "  %-28s %6d  (paper total: 5143)\n" "TOTAL" !total

let table3 () =
  banner "Table 3: custom tools, LoC with NOELLE (paper LLVM-only baselines cited)";
  match find_root () with
  | None -> print_endline "  (source tree not found; skipping)"
  | Some root ->
    (* paper's LLVM-only LoC per tool; our measured NOELLE-based LoC *)
    let rows =
      [ ("Time Squeezer (TIME)", [ "timesqueezer.ml" ], 510);
        ("Compiler-based timing (COOS)", [ "coos.ml" ], 1641);
        ("Loop Invariant Code Motion (LICM)", [ "licm.ml" ], 2317);
        ("DOALL", [ "doall.ml" ], 5512);
        ("Dead Function Elimination (DEAD)", [ "deadfunc.ml" ], 7512);
        ("DSWP", [ "dswp.ml" ], 8525);
        ("HELIX", [ "helix.ml" ], 15453);
        ("PRVJeeves (PRVJ)", [ "prvjeeves.ml" ], 17863);
        ("CARAT", [ "carat.ml" ], 21899);
        ("Perspective (PERS)", [ "perspective.ml" ], 33998);
      ]
    in
    Printf.printf "  %-36s %10s %8s %10s\n" "Custom tool" "paper-LLVM" "NOELLE" "reduction";
    List.iter
      (fun (name, files, llvm_loc) ->
        let n =
          List.fold_left
            (fun acc f -> acc + loc (Filename.concat root ("lib/tools/" ^ f)))
            0 files
        in
        Printf.printf "  %-36s %10d %8d %9.1f%%\n" name llvm_loc n
          (100.0 *. float_of_int (llvm_loc - n) /. float_of_int llvm_loc))
      rows;
    (* the machinery the loop transforms share (candidate selection, task
       plumbing, the one loop driver): no paper row of its own *)
    Printf.printf "  %-36s %10s %8d\n" "shared loop driver (Parutil)" "-"
      (loc (Filename.concat root "lib/tools/parutil.ml"));
    (* the one pair we implemented both ways in this repo *)
    let licm_llvm =
      loc (Filename.concat root "lib/tools/licm_llvm.ml")
      + loc (Filename.concat root "lib/core/invariants_llvm.ml")
    in
    let licm_noelle = loc (Filename.concat root "lib/tools/licm.ml") in
    Printf.printf
      "  in-repo pair: LICM baseline (alg.1 + driver) %d vs NOELLE %d LoC (-%.1f%%)\n"
      licm_llvm licm_noelle
      (100.0 *. float_of_int (licm_llvm - licm_noelle) /. float_of_int licm_llvm)

(* ------------------------------------------------------------------ *)
(* Table 4: abstraction-usage matrix, measured                          *)
(* ------------------------------------------------------------------ *)

let table4 () =
  banner "Table 4: abstractions requested per custom tool (measured by the manager)";
  (* run every tool over a representative module under one manager *)
  let k = Option.get (Bsuite.Kernels.find "ferret") in
  let mk () =
    let m = Bsuite.Kernels.compile k in
    let p, _ = Noelle.Profiler.run ~fuel:k.Bsuite.Kernels.fuel m in
    Noelle.Profiler.embed p m;
    m
  in
  let usage : (string * string, unit) Hashtbl.t = Hashtbl.create 64 in
  let collect (n : Noelle.t) =
    List.iter (fun p -> Hashtbl.replace usage p ()) (Noelle.usage_pairs n)
  in
  let with_tool f = let m = mk () in let n = Noelle.create m in f n m; collect n in
  with_tool (fun n m -> ignore (Ntools.Doall.run n m ~ncores ()));
  with_tool (fun n m -> ignore (Ntools.Helix.run n m ~ncores ()));
  with_tool (fun n m -> ignore (Ntools.Dswp.run n m ()));
  with_tool (fun n m -> ignore (Ntools.Licm.run n m));
  with_tool (fun n m -> ignore (Ntools.Deadfunc.run n m ()));
  with_tool (fun n m -> ignore (Ntools.Carat.run n m));
  with_tool (fun n m -> ignore (Ntools.Coos.run n m ()));
  with_tool (fun n m -> ignore (Ntools.Timesqueezer.run n m));
  with_tool (fun n m -> ignore (Ntools.Prvjeeves.run n m ()));
  with_tool (fun n m ->
      Ntools.Perspective.profile_conflicts ~fuel:k.Bsuite.Kernels.fuel m;
      ignore (Ntools.Perspective.run n m ~ncores ()));
  let tools = [ "HELIX"; "DSWP"; "CARAT"; "COOS"; "PRVJ"; "DOALL"; "LICM"; "TIME"; "DEAD"; "PERS" ] in
  let abstractions =
    [ "PDG"; "aSCCDAG"; "CG"; "ENV"; "T"; "DFE"; "PRO"; "SCD"; "L"; "LB"; "IV";
      "IVS"; "INV"; "FR"; "ISL"; "RD"; "AR"; "LS" ]
  in
  Printf.printf "  %-6s" "tool";
  List.iter (fun a -> Printf.printf " %-7s" a) abstractions;
  print_newline ();
  List.iter
    (fun t ->
      Printf.printf "  %-6s" t;
      List.iter
        (fun a -> Printf.printf " %-7s" (if Hashtbl.mem usage (t, a) then "x" else ""))
        abstractions;
      print_newline ())
    tools;
  (* the paper's headline: every abstraction used by more than one tool *)
  let users a = List.length (List.filter (fun t -> Hashtbl.mem usage (t, a)) tools) in
  let multi = List.filter (fun a -> users a >= 2) abstractions in
  Printf.printf "  abstractions used by >= 2 tools: %d / %d\n" (List.length multi)
    (List.length abstractions)

(* ------------------------------------------------------------------ *)
(* Figures 3 / 4 and the 4.3 IV experiment                              *)
(* ------------------------------------------------------------------ *)

let corpus () =
  List.filter
    (fun (k : Bsuite.Kernels.kernel) -> k.Bsuite.Kernels.kname <> "deadcalls")
    Bsuite.Kernels.all

let figure3 () =
  banner "Figure 3: % of potential memory dependences disproved (LLVM-AA vs NOELLE)";
  Printf.printf "  %-14s %-8s %10s %10s\n" "benchmark" "suite" "LLVM" "NOELLE";
  let bsum = ref 0.0 and nsum = ref 0.0 and cnt = ref 0 in
  List.iter
    (fun (k : Bsuite.Kernels.kernel) ->
      bench_row k.Bsuite.Kernels.kname @@ fun () ->
      let m = Bsuite.Kernels.compile k in
      let rate ?pts stack =
        let tot = ref 0 and dis = ref 0 in
        List.iter
          (fun f ->
            let p = Noelle.Pdg.build ?pts ~stack m f in
            tot := !tot + p.Noelle.Pdg.mem_pairs_total;
            dis := !dis + p.Noelle.Pdg.mem_pairs_disproved)
          (Ir.Irmod.defined_functions m);
        if !tot = 0 then 1.0 else float_of_int !dis /. float_of_int !tot
      in
      let b = rate Ir.Andersen.baseline_stack in
      (* the NOELLE arm shares one points-to solution between the alias
         stack and the PDG builder's bucketing/memoization layer *)
      let a = Ir.Andersen.analyze m in
      let n = rate ~pts:a [ Ir.Alias.baseline; Ir.Andersen.analysis a ] in
      bsum := !bsum +. b;
      nsum := !nsum +. n;
      incr cnt;
      Printf.printf "  %-14s %-8s %9.1f%% %9.1f%%\n" k.Bsuite.Kernels.kname
        (Bsuite.Kernels.suite_name k.Bsuite.Kernels.suite)
        (100.0 *. b) (100.0 *. n))
    (corpus ());
  Printf.printf "  %-14s %-8s %9.1f%% %9.1f%%\n" "AVERAGE" ""
    (100.0 *. !bsum /. float_of_int !cnt)
    (100.0 *. !nsum /. float_of_int !cnt);
  (* two whole-corpus rows isolating the bucketing win: identical NOELLE
     stack, PDGs built with and without the points-to classes, so the
     pdg.alias_queries delta of each row is directly comparable *)
  if !json_mode then begin
    let sweep name pts_on =
      bench_row name @@ fun () ->
      List.iter
        (fun (k : Bsuite.Kernels.kernel) ->
          let m = Bsuite.Kernels.compile k in
          let a = Ir.Andersen.analyze m in
          let stack = [ Ir.Alias.baseline; Ir.Andersen.analysis a ] in
          let pts = if pts_on then Some a else None in
          List.iter
            (fun f -> ignore (Noelle.Pdg.build ?pts ~stack m f))
            (Ir.Irmod.defined_functions m))
        (corpus ())
    in
    sweep "corpus-unbucketed" false;
    sweep "corpus-bucketed" true
  end

let figure4 () =
  banner "Figure 4: loop invariants found (LLVM Algorithm 1 vs NOELLE Algorithm 2)";
  Printf.printf "  %-14s %-8s %8s %8s\n" "benchmark" "suite" "LLVM" "NOELLE";
  let t1 = ref 0 and t2 = ref 0 in
  List.iter
    (fun (k : Bsuite.Kernels.kernel) ->
      bench_row k.Bsuite.Kernels.kname @@ fun () ->
      let m = Bsuite.Kernels.compile k in
      let n = Noelle.create m in
      let c1 = ref 0 and c2 = ref 0 in
      List.iter
        (fun f ->
          List.iter
            (fun lp ->
              let ls = Noelle.Loop.structure lp in
              c1 := !c1 + Noelle.Invariants_llvm.count m ls;
              c2 := !c2 + Noelle.Invariants.count (Noelle.invariants n lp))
            (Noelle.loops n f))
        (Ir.Irmod.defined_functions m);
      t1 := !t1 + !c1;
      t2 := !t2 + !c2;
      Printf.printf "  %-14s %-8s %8d %8d\n" k.Bsuite.Kernels.kname
        (Bsuite.Kernels.suite_name k.Bsuite.Kernels.suite) !c1 !c2)
    (corpus ());
  Printf.printf "  %-14s %-8s %8d %8d\n" "TOTAL" "" !t1 !t2

let iv_experiment () =
  banner "Section 4.3: governing induction variables (LLVM detector vs NOELLE)";
  let t1 = ref 0 and t2 = ref 0 and loops = ref 0 in
  List.iter
    (fun (k : Bsuite.Kernels.kernel) ->
      let m = Bsuite.Kernels.compile k in
      let n = Noelle.create m in
      List.iter
        (fun f ->
          List.iter
            (fun lp ->
              incr loops;
              let ls = Noelle.Loop.structure lp in
              t1 := !t1 + Noelle.Indvars_llvm.governing_count ls;
              if Noelle.Indvars.governing_iv (Noelle.induction_variables n lp) <> None
              then incr t2)
            (Noelle.loops n f))
        (Ir.Irmod.defined_functions m))
    (corpus ());
  Printf.printf "  loops analyzed: %d\n" !loops;
  Printf.printf "  governing IVs, LLVM-style detector (do-while only): %d\n" !t1;
  Printf.printf "  governing IVs, NOELLE (SCC-based, any shape):       %d\n" !t2;
  Printf.printf "  (paper: 11 vs 385 over 41 benchmarks)\n"

(* ------------------------------------------------------------------ *)
(* Figure 5: parallelization speedups                                   *)
(* ------------------------------------------------------------------ *)

let speedup_of (k : Bsuite.Kernels.kernel) apply =
  let fuel = k.Bsuite.Kernels.fuel in
  let m = Bsuite.Kernels.compile k in
  (* the profiled run is the sequential run: its instruction total is
     the sequential cycle count *)
  let p, ref_out = Noelle.Profiler.run ~fuel m in
  Noelle.Profiler.embed p m;
  let n = Noelle.create m in
  let transformed = apply n m in
  if not transformed then (1.0, true)
  else begin
    Ir.Verify.verify_module m;
    let _, out, par, _ = Psim.Runtime.run ~fuel:(4 * fuel) ~arch m in
    ( Int64.to_float p.Noelle.Profiler.total_insts /. Int64.to_float par,
      String.equal out ref_out )
  end

let any_ok results = List.exists (fun (_, r) -> Result.is_ok r) results

(** Modeled vec speedup for one kernel: vectorize every vectorizable
    loop (forced with [~only_best:false] — the per-technique comparison
    wants the vec number even where DOALL wins), score each widened loop
    with the Psim SIMD model at its static trip count (profiled average
    iterations when {!Ir.Bounds} has no constant), and fold the per-loop
    speedups through Amdahl over each loop's profiled hotness.  Returns
    (speedup, any loop needed if-conversion). *)
let vec_speedup_of (k : Bsuite.Kernels.kernel) =
  let fuel = k.Bsuite.Kernels.fuel in
  let m = Bsuite.Kernels.compile k in
  let p, _ = Noelle.Profiler.run ~fuel m in
  Noelle.Profiler.embed p m;
  let n = Noelle.create m in
  (* per-loop profile of the pristine module, keyed by loop id: the
     transform reshapes the loops, the profile describes the originals *)
  let profile = Hashtbl.create 16 in
  List.iter
    (fun (f : Ir.Func.t) ->
      List.iter
        (fun lp ->
          let ls = Noelle.Loop.structure lp in
          Hashtbl.replace profile (Noelle.Loop.id lp)
            ( Noelle.Profiler.loop_hotness m ls,
              Noelle.Profiler.loop_avg_iterations m ls ))
        (Noelle.loops n f))
    (Ir.Irmod.defined_functions m);
  let outcomes = Ntools.Vec.run n m ~only_best:false () in
  let terms =
    List.filter_map
      (fun (id, r) ->
        match (r, Hashtbl.find_opt profile id) with
        | Ok (s : Ntools.Vec.stats), Some (h, avg) when h > 0.0 ->
          let iters =
            match s.Ntools.Vec.trip with
            | Some t -> float_of_int t
            | None -> Float.max 1.0 avg
          in
          let vt =
            Psim.Models.vec_time
              { Psim.Models.default_vec_params with
                Psim.Models.width = s.Ntools.Vec.width }
              ~iters ~work:s.Ntools.Vec.body_cost
              ~divergence:s.Ntools.Vec.divergence
              ~strided_mem_ops:s.Ntools.Vec.strided_mem_ops
              ~stride:s.Ntools.Vec.stride
          in
          let scalar = iters *. s.Ntools.Vec.body_cost in
          if vt > 0.0 && scalar > 0.0 then Some (h, scalar /. vt) else None
        | _ -> None)
      outcomes
  in
  let ifc =
    List.exists
      (fun (_, r) ->
        match r with
        | Ok (s : Ntools.Vec.stats) -> s.Ntools.Vec.if_converted
        | Error _ -> false)
      outcomes
  in
  if terms = [] then (1.0, ifc)
  else begin
    let covered =
      Float.min 1.0 (List.fold_left (fun a (h, _) -> a +. h) 0.0 terms)
    in
    let slowdown = List.fold_left (fun a (h, s) -> a +. (h /. s)) 0.0 terms in
    (1.0 /. ((1.0 -. covered) +. slowdown), ifc)
  end

let figure5 () =
  banner "Figure 5: speedups on 12 simulated cores (PARSEC + MiBench + SPEC)";
  Printf.printf "  %-14s %8s %8s %8s %8s %8s\n" "benchmark" "gcc/icc" "DOALL"
    "HELIX" "DSWP" "VEC";
  List.iter
    (fun (k : Bsuite.Kernels.kernel) ->
      bench_row k.Bsuite.Kernels.kname @@ fun () ->
      let m0 = Bsuite.Kernels.compile k in
      let baseline_ok = Ntools.Autopar_baseline.(parallelized (run m0)) > 0 in
      let s_doall, ok1 =
        speedup_of k (fun n m -> any_ok (Ntools.Doall.run n m ~ncores ()))
      in
      let s_helix, ok2 =
        speedup_of k (fun n m -> any_ok (Ntools.Helix.run n m ~ncores ()))
      in
      let s_dswp, ok3 =
        speedup_of k (fun n m -> any_ok (Ntools.Dswp.run n m ()))
      in
      let s_vec, ifc = vec_speedup_of k in
      let name = k.Bsuite.Kernels.kname in
      List.iter
        (fun (tech, v) ->
          Ir.Trace.set_gauge (Printf.sprintf "fig5.%s.%s" name tech) v)
        [ ("doall", s_doall); ("helix", s_helix); ("dswp", s_dswp);
          ("vec", s_vec) ];
      Printf.printf "  %-14s %8s %8.2f %8.2f %8.2f %8.2f%s%s\n" name
        (if baseline_ok then "some" else "1.00")
        s_doall s_helix s_dswp s_vec
        (if ifc then "  [if-conv]" else "")
        (if ok1 && ok2 && ok3 then "" else "  [OUTPUT MISMATCH]"))
    (corpus ())

let spec_experiment () =
  banner "Section 4.4: SPEC-like benchmarks";
  Printf.printf "  %-14s %8s %8s %8s\n" "benchmark" "DOALL" "HELIX" "DSWP";
  List.iter
    (fun (k : Bsuite.Kernels.kernel) ->
      if k.Bsuite.Kernels.suite = Bsuite.Kernels.Spec then begin
        let s1, _ = speedup_of k (fun n m -> any_ok (Ntools.Doall.run n m ~ncores ())) in
        let s2, _ = speedup_of k (fun n m -> any_ok (Ntools.Helix.run n m ~ncores ())) in
        let s3, _ = speedup_of k (fun n m -> any_ok (Ntools.Dswp.run n m ())) in
        Printf.printf "  %-14s %8.2f %8.2f %8.2f\n" k.Bsuite.Kernels.kname s1 s2 s3
      end)
    (corpus ())

(* ------------------------------------------------------------------ *)
(* Section 4.5: Dead function elimination                               *)
(* ------------------------------------------------------------------ *)

(** Small utility library linked into every benchmark; partly unused, as
    real programs' libraries are — the head-room DEAD reclaims. *)
let libmini =
  {|
int lib_abs(int x) { if (x < 0) return -x; return x; }
int lib_min(int a, int b) { if (a < b) return a; return b; }
int lib_max(int a, int b) { if (a > b) return a; return b; }
int lib_gcd(int a, int b) { while (b != 0) { int t = a % b; a = b; b = t; } return a; }
|}

let dead_experiment () =
  banner "Section 4.5: DeadFunctionElimination binary-size reduction";
  let reductions = ref [] in
  List.iter
    (fun (k : Bsuite.Kernels.kernel) ->
      bench_row k.Bsuite.Kernels.kname @@ fun () ->
      let m = Bsuite.Kernels.compile k in
      let lib = Minic.Lower.compile ~name:"libmini" libmini in
      let whole = Ir.Linker.link ~name:k.Bsuite.Kernels.kname [ m; lib ] in
      let n = Noelle.create whole in
      let s = Ntools.Deadfunc.run n whole () in
      let r = Ntools.Deadfunc.reduction s in
      reductions := r :: !reductions;
      Printf.printf "  %-14s removed %2d functions, -%4.1f%% instructions\n"
        k.Bsuite.Kernels.kname
        (List.length s.Ntools.Deadfunc.removed)
        r)
    (corpus ());
  let avg =
    List.fold_left ( +. ) 0.0 !reductions /. float_of_int (List.length !reductions)
  in
  Printf.printf "  AVERAGE: -%.1f%% (paper: -6.3%%)\n" avg

(* ------------------------------------------------------------------ *)
(* Abstraction construction costs (demand-driven claim)                 *)
(* ------------------------------------------------------------------ *)

(* each construction reruns for up to 200 runs or 0.5 s, timed with
   Trace.time_ms; the mean is reported *)
let construct_section () =
  banner "Abstraction construction cost (demand-driven claim)";
  let k = Option.get (Bsuite.Kernels.find "dijkstra") in
  let m = Bsuite.Kernels.compile k in
  let main = Ir.Irmod.func m "main" in
  let andersen = Ir.Andersen.analyze m in
  let pdg = Noelle.Pdg.build ~stack:(Ir.Andersen.noelle_stack m) m main in
  let nest = Ir.Loopnest.compute main in
  let mean_ns f =
    let runs = ref 0 and total_ms = ref 0.0 in
    while !runs < 200 && !total_ms < 500.0 do
      total_ms := !total_ms +. snd (Ir.Trace.time_ms f);
      incr runs
    done;
    !total_ms *. 1e6 /. float_of_int !runs
  in
  [
    ("noelle/loopnest(LS)", fun () -> ignore (Ir.Loopnest.compute main));
    ("noelle/dominators", fun () -> ignore (Ir.Dom.compute main));
    ( "noelle/pdg-baseline",
      fun () -> ignore (Noelle.Pdg.build ~stack:Ir.Andersen.baseline_stack m main) );
    ( "noelle/pdg-noelle",
      fun () ->
        ignore
          (Noelle.Pdg.build ~stack:[ Ir.Alias.baseline; Ir.Andersen.analysis andersen ] m main)
    );
    ("noelle/andersen", fun () -> ignore (Ir.Andersen.analyze m));
    ( "noelle/loop-dg+sccdag",
      fun () ->
        let l = List.hd nest.Ir.Loopnest.loops in
        ignore (Noelle.Sccdag.build (Noelle.Pdg.loop_dg pdg nest l)) );
    ("noelle/callgraph", fun () -> ignore (Noelle.Callgraph.build ~pts:andersen m));
  ]
  |> List.sort compare
  |> List.iter (fun (name, f) -> Printf.printf "  %-28s %12.1f ns/run\n" name (mean_ns f))

(* ------------------------------------------------------------------ *)
(* Perspective: speculation + memory-object cloning                      *)
(* ------------------------------------------------------------------ *)

let pers_experiment () =
  banner "Perspective (4.4 port + memory-object cloning extension)";
  List.iter
    (fun name ->
      let k = Option.get (Bsuite.Kernels.find name) in
      let fuel = k.Bsuite.Kernels.fuel in
      let m = Bsuite.Kernels.compile k in
      let p, ref_out = Noelle.Profiler.run ~fuel m in
      Noelle.Profiler.embed p m;
      Ntools.Perspective.profile_conflicts ~fuel m;
      let n = Noelle.create m in
      let results = Ntools.Perspective.run n m ~ncores () in
      let ok = List.filter_map (fun (_, r) -> Result.to_option r) results in
      if ok = [] then Printf.printf "  %-12s no eligible loop\n" name
      else begin
        let spec = List.fold_left (fun a s -> a + s.Ntools.Perspective.speculated_edges) 0 ok in
        let cloned =
          List.concat_map (fun s -> s.Ntools.Perspective.cloned_objects) ok
        in
        let _, out, par, _ = Psim.Runtime.run ~fuel:(4 * fuel) ~arch m in
        Printf.printf
          "  %-12s speedup %5.2f  (speculated %d edges, cloned objects: %s)%s\n"
          name
          (Int64.to_float p.Noelle.Profiler.total_insts /. Int64.to_float par)
          spec
          (if cloned = [] then "none" else String.concat " " cloned)
          (if String.equal out ref_out then "" else "  [OUTPUT MISMATCH]")
      end)
    [ "histogram"; "blocksort" ]

(* ------------------------------------------------------------------ *)
(* Ablations: the design choices DESIGN.md calls out                     *)
(* ------------------------------------------------------------------ *)

(** HELIX is chained by the core-to-core signal latency (its sequential
    segments hand off once per iteration): sweep the latency and watch the
    speedup collapse — the trade-off §3 describes and AR exists to
    measure. *)
let ablation_helix_latency () =
  banner "Ablation: HELIX speedup vs core-to-core latency (swaptions)";
  let k = Option.get (Bsuite.Kernels.find "swaptions") in
  let fuel = k.Bsuite.Kernels.fuel in
  let m0 = Bsuite.Kernels.compile k in
  let _, _, seq = Psim.Runtime.run_sequential ~fuel m0 in
  List.iter
    (fun lat ->
      let m = Bsuite.Kernels.compile k in
      let p, _ = Noelle.Profiler.run ~fuel m in
      Noelle.Profiler.embed p m;
      let n = Noelle.create m in
      ignore (Ntools.Helix.run n m ~ncores ());
      let a = Noelle.Arch.measure ~physical_cores:ncores () in
      let a =
        { a with
          Noelle.Arch.latency =
            Array.map (Array.map (fun l -> if l = 0 then 0 else lat)) a.Noelle.Arch.latency }
      in
      let _, _, par, _ = Psim.Runtime.run ~fuel:(4 * fuel) ~arch:a m in
      Printf.printf "  latency %4d cycles -> speedup %5.2f
" lat
        (Int64.to_float seq /. Int64.to_float par))
    [ 10; 30; 60; 140; 300 ];
  (* the analytic model predicts the same collapse *)
  let p = Psim.Models.default_params in
  Printf.printf "  model crossover: HELIX beats sequential while seg+lat < work;
";
  Printf.printf "  e.g. work=188, seg=5: lat 60 -> %.2fx, lat 300 -> %.2fx
"
    (Psim.Models.speedup ~seq_time:(20000.0 *. 188.0)
       ~par_time:(Psim.Models.helix_time p ~iters:20000.0 ~work:188.0 ~seq:5.0))
    (Psim.Models.speedup ~seq_time:(20000.0 *. 188.0)
       ~par_time:
         (Psim.Models.helix_time { p with Psim.Models.latency = 300.0 }
            ~iters:20000.0 ~work:188.0 ~seq:5.0))

(** DOALL core-count scaling: spawn/join overheads flatten the curve. *)
let ablation_doall_cores () =
  banner "Ablation: DOALL speedup vs core count (blackscholes)";
  let k = Option.get (Bsuite.Kernels.find "blackscholes") in
  let fuel = k.Bsuite.Kernels.fuel in
  let m0 = Bsuite.Kernels.compile k in
  let _, _, seq = Psim.Runtime.run_sequential ~fuel m0 in
  List.iter
    (fun cores ->
      let m = Bsuite.Kernels.compile k in
      let p, _ = Noelle.Profiler.run ~fuel m in
      Noelle.Profiler.embed p m;
      let n = Noelle.create m in
      ignore (Ntools.Doall.run n m ~ncores:cores ());
      let a = Noelle.Arch.measure ~physical_cores:cores () in
      let _, _, par, _ = Psim.Runtime.run ~fuel:(4 * fuel) ~arch:a m in
      Printf.printf "  %2d cores -> speedup %5.2f
" cores
        (Int64.to_float seq /. Int64.to_float par))
    [ 1; 2; 4; 8; 12; 16 ]

(** Alias-analysis ablation: run DOALL with the manager restricted to the
    baseline stack — the Figure-3 precision is what feeds Figure 5. *)
let ablation_aa () =
  banner "Ablation: DOALL with baseline AA only (ties Figure 3 to Figure 5)";
  List.iter
    (fun name ->
      let k = Option.get (Bsuite.Kernels.find name) in
      let fuel = k.Bsuite.Kernels.fuel in
      let count use_noelle_aa =
        let m = Bsuite.Kernels.compile k in
        let p, _ = Noelle.Profiler.run ~fuel m in
        Noelle.Profiler.embed p m;
        let n = Noelle.create ~use_noelle_aa m in
        List.length
          (List.filter (fun (_, r) -> Result.is_ok r) (Ntools.Doall.run n m ~ncores ()))
      in
      Printf.printf "  %-14s loops parallelized: baseline-AA %d, NOELLE-AA %d
"
        name (count false) (count true))
    [ "dijkstra"; "stringsearch"; "dedup"; "blackscholes" ]

(** Verified-reload vs recompute: what the Trust fast path is worth.
    Embeds every function's PDG, then times (a) reloading them through
    stamp verification and (b) recomputing them from scratch, per
    kernel. *)
let trust_section () =
  banner "Trust: verified PDG reload vs demand recompute";
  let iters = 50 in
  (* per-iteration ms for: fresh manager + PDG query for every function *)
  let time_queries m fns =
    let t0 = Sys.time () in
    for _ = 1 to iters do
      let n = Noelle.create m in
      List.iter (fun f -> ignore (Noelle.pdg n f)) fns
    done;
    (Sys.time () -. t0) *. 1000. /. float_of_int iters
  in
  let row name m =
    let fns = Ir.Irmod.defined_functions m in
    let n0 = Noelle.create m in
    List.iter (fun f -> Noelle.Pdg.embed (Noelle.pdg n0 f)) fns;
    (* sanity: the reload arm must actually take the verified fast path *)
    let ns = Noelle.create m in
    List.iter (fun f -> ignore (Noelle.pdg ns f)) fns;
    if Noelle.fast_reloads ns <> List.length fns then
      failwith (name ^ ": stamped artifacts did not fast-reload");
    (* bare: same module minus the embedded artifacts, so every query
       misses and rebuilds — both arms run the exact manager path *)
    let bare = Ir.Irmod.copy m in
    Ir.Meta.clear_prefix bare.Ir.Irmod.meta "pdg.";
    let reload_ms = time_queries m fns in
    let recompute_ms = time_queries bare (Ir.Irmod.defined_functions bare) in
    Printf.printf
      "  %-14s %d fns: verified reload %6.3f ms, recompute %6.3f ms (%.1fx)\n"
      name (List.length fns) reload_ms recompute_ms
      (if reload_ms > 0. then recompute_ms /. reload_ms else 0.)
  in
  List.iter
    (fun (k : Bsuite.Kernels.kernel) -> row k.Bsuite.Kernels.kname (Bsuite.Kernels.compile k))
    Bsuite.Kernels.all;
  (* one larger module: a deep fuzz program whose alias-analysis + PDG
     rebuild cost outgrows the verification overhead *)
  let big_cfg =
    { Bsuite.Generator.default_cfg with
      Bsuite.Generator.max_depth = 4;
      max_stmts = 24;
      arrays = 6 }
  in
  row "fuzz-big"
    (Minic.Lower.compile ~name:"fuzz-big"
       (Bsuite.Generator.program ~cfg:big_cfg 42))

(* ------------------------------------------------------------------ *)
(* Scaling: sparse engine vs naive solver (DESIGN.md §11)               *)
(* ------------------------------------------------------------------ *)

(** Synthetic module: [nfuncs] functions [work<k>(p, q, n)], each a
    single-block loop doing [chunk] rounds of gep/load/store traffic over
    its pointer arguments and four shared globals, chained by a call to
    [work<k-1>].  Sized via [chunk] to hit a target instruction count well
    past the kernel corpus, so the solver and PDG-build asymptotics — not
    constant factors — dominate. *)
let synth_module ~name ~nfuncs ~chunk =
  let m = Ir.Irmod.create ~name () in
  for g = 0 to 3 do
    Ir.Irmod.add_global m
      { Ir.Irmod.gname = Printf.sprintf "g%d" g; size = 64; init = None }
  done;
  let open Ir.Instr in
  for k = 0 to nfuncs - 1 do
    let f =
      Ir.Func.create
        ~name:(Printf.sprintf "work%d" k)
        ~params:[ ("p", Ir.Ty.Ptr); ("q", Ir.Ty.Ptr); ("n", Ir.Ty.I64) ]
        ~ret:Ir.Ty.I64
    in
    let entry = Ir.Builder.add_block f ~label:"entry" in
    let loop = Ir.Builder.add_block f ~label:"loop" in
    let exit_ = Ir.Builder.add_block f ~label:"exit" in
    let buf = Ir.Builder.add f entry.Ir.Func.bid (Alloca (Cint 8L)) Ir.Ty.Ptr in
    ignore (Ir.Builder.add f entry.Ir.Func.bid (Store (Cint 0L, Reg buf.id)) Ir.Ty.Void);
    ignore (Ir.Builder.set_term f entry.Ir.Func.bid (Br loop.Ir.Func.bid));
    let iv = Ir.Builder.add f loop.Ir.Func.bid (Phi [ (entry.Ir.Func.bid, Cint 0L) ]) Ir.Ty.I64 in
    let acc0 = Ir.Builder.add f loop.Ir.Func.bid (Phi [ (entry.Ir.Func.bid, Cint 0L) ]) Ir.Ty.I64 in
    let acc = ref (Reg acc0.id) in
    for j = 0 to chunk - 1 do
      let gp = Ir.Builder.add f loop.Ir.Func.bid (Gep (Arg 0, Reg iv.id)) Ir.Ty.Ptr in
      let lv = Ir.Builder.add f loop.Ir.Func.bid (Load (Reg gp.id)) Ir.Ty.I64 in
      let gq =
        Ir.Builder.add f loop.Ir.Func.bid (Gep (Arg 1, Cint (Int64.of_int j))) Ir.Ty.Ptr
      in
      ignore (Ir.Builder.add f loop.Ir.Func.bid (Store (Reg lv.id, Reg gq.id)) Ir.Ty.Void);
      let gg =
        Ir.Builder.add f loop.Ir.Func.bid
          (Gep (Glob (Printf.sprintf "g%d" (j mod 4)), Reg iv.id))
          Ir.Ty.Ptr
      in
      let gv = Ir.Builder.add f loop.Ir.Func.bid (Load (Reg gg.id)) Ir.Ty.I64 in
      let s = Ir.Builder.add f loop.Ir.Func.bid (Bin (Add, !acc, Reg gv.id)) Ir.Ty.I64 in
      acc := Reg s.id
    done;
    if k > 0 then begin
      let c =
        Ir.Builder.add f loop.Ir.Func.bid
          (Call (Glob (Printf.sprintf "work%d" (k - 1)), [ Reg buf.id; Arg 1; Cint 4L ]))
          Ir.Ty.I64
      in
      let s = Ir.Builder.add f loop.Ir.Func.bid (Bin (Add, !acc, Reg c.id)) Ir.Ty.I64 in
      acc := Reg s.id
    end;
    let next = Ir.Builder.add f loop.Ir.Func.bid (Bin (Add, Reg iv.id, Cint 1L)) Ir.Ty.I64 in
    Ir.Builder.set_op f iv (Phi [ (entry.Ir.Func.bid, Cint 0L); (loop.Ir.Func.bid, Reg next.id) ]);
    Ir.Builder.set_op f acc0 (Phi [ (entry.Ir.Func.bid, Cint 0L); (loop.Ir.Func.bid, !acc) ]);
    let cond = Ir.Builder.add f loop.Ir.Func.bid (Icmp (Slt, Reg next.id, Arg 2)) Ir.Ty.I64 in
    ignore (Ir.Builder.set_term f loop.Ir.Func.bid (Cbr (Reg cond.id, loop.Ir.Func.bid, exit_.Ir.Func.bid)));
    ignore (Ir.Builder.set_term f exit_.Ir.Func.bid (Ret (Some !acc)));
    Ir.Irmod.add_func m f
  done;
  let main = Ir.Func.create ~name:"main" ~params:[] ~ret:Ir.Ty.I64 in
  let b = Ir.Builder.add_block main ~label:"entry" in
  let c =
    Ir.Builder.add main b.Ir.Func.bid
      (Call
         ( Glob (Printf.sprintf "work%d" (nfuncs - 1)),
           [ Glob "g0"; Glob "g1"; Cint 16L ] ))
      Ir.Ty.I64
  in
  ignore (Ir.Builder.set_term main b.Ir.Func.bid (Ret (Some (Reg c.id))));
  Ir.Irmod.add_func m main;
  Ir.Verify.verify_module m;
  m

let scaling () =
  banner "Scaling: worklist Andersen + bucketed PDG vs naive paths (synthetic)";
  let base =
    List.fold_left
      (fun acc (k : Bsuite.Kernels.kernel) ->
        max acc (Ir.Irmod.total_insts (Bsuite.Kernels.compile k)))
      0 Bsuite.Kernels.all
  in
  Printf.printf "  largest kernel: %d instructions\n" base;
  List.iter
    (fun (label, mult) ->
      let nfuncs = 4 * mult in
      let chunk = max 1 (((mult * base / nfuncs) - 14) / 4) in
      let m = synth_module ~name:label ~nfuncs ~chunk in
      let fns = Ir.Irmod.defined_functions m in
      let naive () =
        let a = Ir.Andersen.solve_naive m in
        let stack = [ Ir.Alias.baseline; Ir.Andersen.analysis a ] in
        List.iter (fun f -> ignore (Noelle.Pdg.build ~stack m f)) fns
      in
      let sparse () =
        let a = Ir.Andersen.analyze m in
        let stack = [ Ir.Alias.baseline; Ir.Andersen.analysis a ] in
        List.iter (fun f -> ignore (Noelle.Pdg.build ~pts:a ~stack m f)) fns
      in
      let (), naive_ms = Ir.Trace.time_ms (fun () -> bench_row (label ^ "-naive") naive) in
      let (), sparse_ms =
        Ir.Trace.time_ms (fun () -> bench_row (label ^ "-sparse") sparse)
      in
      Printf.printf
        "  %-6s %6d insts, %2d fns: naive %8.2f ms, sparse %8.2f ms (%.1fx)\n" label
        (Ir.Irmod.total_insts m) (List.length fns) naive_ms sparse_ms
        (if sparse_ms > 0. then naive_ms /. sparse_ms else 0.))
    [ ("x4", 4); ("x16", 16) ]

(* ------------------------------------------------------------------ *)
(* Profile-free planning: Ir.Bounds vs the dynamic profile (§13)        *)
(* ------------------------------------------------------------------ *)

let bounds_section () =
  banner "Profile-free planning: Ir.Bounds static bounds vs the dynamic profile";
  Printf.printf "  %-14s %6s %6s %6s %6s %10s\n" "benchmark" "loops" "exact"
    "upper" "unkn" "parity";
  let total = ref 0 and agreed = ref 0 in
  List.iter
    (fun (k : Bsuite.Kernels.kernel) ->
      bench_row ("plan-" ^ k.Bsuite.Kernels.kname) @@ fun () ->
      let m = Bsuite.Kernels.compile k in
      let p, _ = Noelle.Profiler.run ~fuel:k.Bsuite.Kernels.fuel m in
      Noelle.Profiler.embed p m;
      let n = Noelle.create m in
      let exact = ref 0 and upper = ref 0 and unk = ref 0 in
      List.iter
        (fun f ->
          let s = Noelle.bounds n f in
          List.iter
            (fun (lb : Ir.Bounds.loop_bound) ->
              match lb.Ir.Bounds.lheadx with
              | Ir.Bounds.Exact _ -> incr exact
              | Ir.Bounds.Upper _ -> incr upper
              | Ir.Bounds.Unknown | Ir.Bounds.Unbounded -> incr unk)
            s.Ir.Bounds.floops)
        (Ir.Irmod.defined_functions m);
      let pairs =
        Ntools.Planner.head_to_head n m ~ncores ~min_hotness:0.05
          ~min_work:20000.0
      in
      let ag =
        List.length
          (List.filter (fun (_, a, b) -> Ntools.Planner.agree a b) pairs)
      in
      total := !total + List.length pairs;
      agreed := !agreed + ag;
      Printf.printf "  %-14s %6d %6d %6d %6d %7d/%d\n" k.Bsuite.Kernels.kname
        (!exact + !upper + !unk) !exact !upper !unk ag (List.length pairs))
    (corpus ());
  Printf.printf "  decision parity: %d/%d corpus loops\n" !agreed !total;
  (* Psim head-to-head on representative kernels: same DOALL tool, loops
     selected and chunked from the profile vs from static bounds alone *)
  List.iter
    (fun name ->
      match Bsuite.Kernels.find name with
      | None -> ()
      | Some k ->
        let prof, _ =
          bench_row ("psim-profiled-" ^ name) @@ fun () ->
          speedup_of k (fun n m -> any_ok (Ntools.Doall.run n m ~ncores ()))
        in
        let stat, _ =
          bench_row ("psim-static-" ^ name) @@ fun () ->
          speedup_of k (fun n m ->
              any_ok (Ntools.Doall.run n m ~ncores ~profile_free:true ()))
        in
        Printf.printf "  %-14s profiled %5.2fx  profile-free %5.2fx\n" name
          prof stat)
    [ "bitcount"; "dijkstra"; "blackscholes" ]

(* ------------------------------------------------------------------ *)
(* Serve: analysis-as-a-service store, recovery, shedding (§14)         *)
(* ------------------------------------------------------------------ *)

(** Derived service metrics (rates, percentages, percentiles) are
    gauges, not counters: they are remeasured each run rather than
    accumulated, and [--compare] gives them a ratio tolerance where
    counters are held exact.  They land in the row's "gauges" dict in
    BENCH_serve.json, where [--compare] requires them ({!required_keys}). *)
let serve_metric name v = Ir.Trace.set_gauge name (float_of_int (max 1 v))

let serve_section () =
  banner "Analysis-as-a-service: noelle-serve store, recovery, shedding";
  let root = "_serve/bench" in
  Serve.Store.remove_tree root;
  (* cold run then a "process restart" against the warm store: the gap in
     computed-count is what the persistent store buys across processes *)
  bench_row "serve-replay" (fun () ->
      let mods = Serve.Workload.pick_modules ~seed:0 ~count:4 in
      let w = Serve.Workload.generate ~seed:0 ~mods ~requests:150 in
      let r1, r2 =
        Serve.replay
          ~corpus_of:(fun () -> Bsuite.Kernels.corpus mods)
          ~root:(Filename.concat root "replay") w
      in
      let qps =
        if r2.Serve.rwall_ms <= 0. then 0
        else
          int_of_float
            (float_of_int r2.Serve.rqueries /. (r2.Serve.rwall_ms /. 1000.))
      in
      serve_metric "serve.bench.qps" qps;
      serve_metric "serve.bench.hit_pct" (100 * r2.Serve.rhits / max 1 r2.Serve.rqueries);
      Printf.printf
        "  replay: %d requests | cold hits=%d computed=%d %.1fms | warm \
         hits=%d computed=%d %.1fms (%d queries/s)\n"
        r1.Serve.rserved r1.Serve.rhits r1.Serve.rcomputed r1.Serve.rwall_ms
        r2.Serve.rhits r2.Serve.rcomputed r2.Serve.rwall_ms qps);
  (* overload: arrivals outpace service; the breaker sheds load *)
  bench_row "serve-overload" (fun () ->
      let ok, r =
        Serve.overload
          ~corpus_of:(fun () -> Bsuite.Kernels.corpus Serve.Workload.default_pool)
          ~root ~seed:0 ~modules:3 ~requests:200 ()
      in
      serve_metric "serve.bench.shed_pct" (100 * r.Serve.rshed / max 1 r.Serve.rqueries);
      Printf.printf
        "  overload: shed %d/%d queries (max backlog %d, breaker opened \
         %dx, conservative: %s)\n"
        r.Serve.rshed r.Serve.rqueries r.Serve.rmax_backlog
        r.Serve.rbreaker_opens
        (if ok then "yes" else "VIOLATED"));
  (* kill-and-recover: mean store recovery time over a small soak *)
  bench_row "serve-recovery" (fun () ->
      let _, stats, _ =
        Serve.soak
          ~corpus_of:(fun () -> Bsuite.Kernels.corpus Serve.Workload.default_pool)
          ~root:(Filename.concat root "soak") ~seeds:10 ~modules:3
          ~requests:40
          ~progress:(fun _ -> ())
          ()
      in
      let per_rec_us =
        if stats.Serve.t_recoveries = 0 then 0
        else
          int_of_float
            (1000. *. stats.Serve.t_recovery_ms
            /. float_of_int stats.Serve.t_recoveries)
      in
      serve_metric "serve.bench.recovery_us" per_rec_us;
      Printf.printf
        "  recovery: %d kills over %d seeds, %d recoveries, %.0fus each\n"
        stats.Serve.t_kills stats.Serve.t_seeds stats.Serve.t_recoveries
        (float_of_int per_rec_us))

(* ------------------------------------------------------------------ *)
(* SLO: request latency percentiles and tracing overhead (§15)          *)
(* ------------------------------------------------------------------ *)

let slo_section () =
  banner "SLO: request latency percentiles and tracing overhead";
  let root = "_serve/benchslo" in
  Serve.Store.remove_tree root;
  let mods = Serve.Workload.pick_modules ~seed:0 ~count:3 in
  (* 1200 requests, replayed twice, give each kind 560-618 samples: a
     nearest-rank p99 then sits below the five slowest requests of its
     kind, so one pause cannot set it (at 150 requests it was the
     slowest of 58-92) *)
  let w = Serve.Workload.generate ~seed:0 ~mods ~requests:1200 in
  (* cold run then warm restart, noelle-serve's replay: the measured
     distribution covers both the recompute-heavy and store-hit regimes *)
  let run_once sub =
    let r1, r2 =
      Serve.replay
        ~corpus_of:(fun () -> Bsuite.Kernels.corpus mods)
        ~root:(Filename.concat root sub) w
    in
    r1.Serve.rwall_ms +. r2.Serve.rwall_ms
  in
  bench_row "slo-replay" (fun () ->
      (* percentiles of this replay alone, not of earlier sections' traffic *)
      let _, window = Serve.Slo.measure (fun () -> run_once "measure") in
      if window.rows = [] then
        Printf.printf "  (no samples: tracing off)\n";
      List.iter
        (fun (r : Serve.Slo.row) ->
          List.iter
            (fun (qn, qv) ->
              serve_metric
                (Printf.sprintf "serve.bench.slo.%s.%s" r.kind qn)
                (Int64.to_int qv))
            [ ("p50_us", r.p50); ("p95_us", r.p95); ("p99_us", r.p99);
              ("p999_us", r.p999) ];
          Printf.printf "  %-8s count=%-5d p50=%Ldus p99=%Ldus p999=%Ldus\n"
            r.kind r.count r.p50 r.p99 r.p999)
        window.rows);
  (* the SLO story only holds if observability itself is cheap: replay
     the workload with the trace sink on vs off and gauge the delta *)
  bench_row "slo-overhead" (fun () ->
      let was_on = Ir.Trace.enabled () in
      let traced = run_once "traced" in
      Ir.Trace.disable ();
      let untraced = run_once "untraced" in
      if was_on then Ir.Trace.enable ~keep:true ();
      let pct =
        if untraced <= 0. then 0.
        else 100. *. (traced -. untraced) /. untraced
      in
      serve_metric "serve.bench.trace_overhead_pct"
        (int_of_float (Float.max 1. pct));
      Printf.printf "  overhead: traced %.1fms vs untraced %.1fms (%+.1f%%)\n"
        traced untraced pct)

(* ------------------------------------------------------------------ *)
(* Optional: sequential test script (the paper's bash fallback, §2.4)   *)
(* ------------------------------------------------------------------ *)

let emit_test_script () =
  let oc = open_out "run_all_tests.sh" in
  output_string oc
    "#!/bin/sh\n\
     # Generated by bench/main.exe --emit-test-script (see §2.4: NOELLE can\n\
     # emit a bash file that executes all tests sequentially).\n\
     set -e\n\
     dune build @all\n\
     dune runtest --force\n\
     dune exec bench/main.exe\n";
  close_out oc;
  print_endline "wrote run_all_tests.sh"

(* ------------------------------------------------------------------ *)

let sections =
  [ ("table1", table1); ("table2", table2); ("table3", table3);
    ("table4", table4); ("figure3", figure3); ("figure4", figure4);
    ("iv", iv_experiment); ("figure5", figure5); ("spec", spec_experiment);
    ("dead", dead_experiment);
    ("pers", pers_experiment);
    ("ablation-helix", ablation_helix_latency);
    ("ablation-cores", ablation_doall_cores);
    ("ablation-aa", ablation_aa);
    ("trust", trust_section);
    ("scaling", scaling);
    ("bounds", bounds_section);
    ("serve", serve_section);
    ("slo", slo_section);
    ("construct", construct_section) ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  if List.mem "--emit-test-script" args then emit_test_script ()
  else begin
    if List.mem "--compare" args then begin
      compare_mode := true;
      json_mode := true;
      Ir.Trace.enable ()
    end
    else if List.mem "--json" args then begin
      json_mode := true;
      Ir.Trace.enable ()
    end;
    let chosen = List.filter (fun a -> List.mem_assoc a sections) args in
    let todo = if chosen = [] then List.map fst sections else chosen in
    List.iter
      (fun name ->
        (List.assoc name sections) ();
        finish_section name)
      todo;
    print_newline ();
    if !compare_mode then begin
      match List.rev !compare_failures with
      | [] ->
        Printf.printf "bench-regress: ok (%d sections match their baselines)\n"
          (List.length todo)
      | fails ->
        List.iter (Printf.eprintf "bench-regress: REGRESSION: %s\n") fails;
        exit 1
    end
  end
