(** Differential tests for the sparse analysis engine (DESIGN.md §11).

    The worklist Andersen solver, the bucketed PDG builder and the
    fingerprint-keyed invalidation are performance features: each must be
    observationally identical to the slow path it replaces.  These tests
    enforce that over the kernel corpus and the 50-seed fuzz corpus:
    bit-identical points-to sets vs {!Ir.Andersen.solve_naive}, identical
    PDG edge sets vs the unbucketed builder, and identical post-invalidate
    artifacts vs a from-scratch manager. *)

open Helpers

let seeds n = List.init n (fun i -> i + 1)

let fuzz_module seed =
  Minic.Lower.compile
    ~name:(Printf.sprintf "fuzz%d" seed)
    (Bsuite.Generator.program seed)

(** Kernel corpus plus the 50-seed fuzz corpus, freshly compiled. *)
let corpus () =
  List.map
    (fun (k : Bsuite.Kernels.kernel) -> (k.Bsuite.Kernels.kname, Bsuite.Kernels.compile k))
    Bsuite.Kernels.all
  @ List.map (fun s -> (Printf.sprintf "seed%d" s, fuzz_module s)) (seeds 50)

(* ------------------------------------------------------------------ *)
(* Bitset units                                                         *)
(* ------------------------------------------------------------------ *)

let elements s = List.rev (Ir.Bitset.fold (fun i acc -> i :: acc) s [])

let mem (s : Ir.Bitset.t) i =
  let w = i / Ir.Bitset.bits_per_word in
  w < Array.length s.words && (s.words.(w) lsr (i mod Ir.Bitset.bits_per_word)) land 1 = 1

(** Do [a] and [b] share no bit? *)
let is_empty_inter (a : Ir.Bitset.t) (b : Ir.Bitset.t) =
  let n = min (Array.length a.words) (Array.length b.words) in
  let rec go w = w >= n || (a.words.(w) land b.words.(w) = 0 && go (w + 1)) in
  go 0

let inter (a : Ir.Bitset.t) (b : Ir.Bitset.t) =
  let n = min (Array.length a.words) (Array.length b.words) in
  { Ir.Bitset.words = Array.init n (fun w -> a.words.(w) land b.words.(w)) }

let test_bitset () =
  let s = Ir.Bitset.create () in
  checkb "fresh set is empty" (Ir.Bitset.is_empty s);
  checkb "add 3 is new" (Ir.Bitset.add s 3);
  checkb "add 3 again is not" (not (Ir.Bitset.add s 3));
  (* force growth across several words *)
  checkb "add 200 is new" (Ir.Bitset.add s 200);
  checkb "mem 200" (mem s 200);
  checkb "not mem 199" (not (mem s 199));
  checki "cardinal" 2 (List.length (elements s));
  checkb "elements sorted" (elements s = [ 3; 200 ]);
  let t = Ir.Bitset.create () in
  ignore (Ir.Bitset.add t 3);
  ignore (Ir.Bitset.add t 7);
  let delta = Ir.Bitset.create () in
  let added = Ir.Bitset.union_into ~track:delta ~into:t s in
  checki "union adds only the fresh bit" 1 added;
  checkb "track mirrors exactly the fresh bits" (elements delta = [ 200 ]);
  checkb "7 not disturbed" (mem t 7);
  (* equality must ignore trailing zero words *)
  let a = Ir.Bitset.create () and b = Ir.Bitset.create () in
  ignore (Ir.Bitset.add a 1);
  ignore (Ir.Bitset.add b 1);
  ignore (Ir.Bitset.add b 500);
  checkb "unequal" (not (Ir.Bitset.equal a b));
  let c = Ir.Bitset.copy b in
  checkb "copy equal" (Ir.Bitset.equal b c);
  ignore (Ir.Bitset.add a 500);
  checkb "equal after catching up" (Ir.Bitset.equal a b);
  checkb "disjointness" (is_empty_inter (inter a (Ir.Bitset.create ())) a)

(* ------------------------------------------------------------------ *)
(* Worklist Andersen vs the naive fixpoint                              *)
(* ------------------------------------------------------------------ *)

let test_worklist_matches_naive () =
  List.iter
    (fun (name, m) ->
      let slow = Ir.Andersen.solve_naive m in
      let fast = Ir.Andersen.analyze m in
      checkb (name ^ ": neither solver degraded")
        ((not slow.Ir.Andersen.degraded) && not fast.Ir.Andersen.degraded);
      Alcotest.(check (list string))
        (name ^ ": points-to sets identical")
        (Ir.Andersen.dump_pts slow) (Ir.Andersen.dump_pts fast);
      Alcotest.(check (list string))
        (name ^ ": mod/ref summaries identical")
        (Ir.Andersen.dump_touched slow) (Ir.Andersen.dump_touched fast);
      checks (name ^ ": solution fingerprints identical")
        (Ir.Andersen.solution_fp slow) (Ir.Andersen.solution_fp fast))
    (corpus ())

let test_budget_degrades () =
  let m = Bsuite.Kernels.compile (Option.get (Bsuite.Kernels.find "dijkstra")) in
  let tight = Ir.Andersen.analyze ~budget:1 m in
  checkb "budget 1 degrades to the conservative solution" tight.Ir.Andersen.degraded;
  let free = Ir.Andersen.analyze m in
  checkb "no budget solves exactly" (not free.Ir.Andersen.degraded)

(** A pointer copy cycle (loop phi <-> gep) must be collapsed by lazy
    cycle detection rather than propagated around forever. *)
let test_cycle_collapse () =
  let open Ir.Instr in
  let m = Ir.Irmod.create ~name:"cyc" () in
  Ir.Irmod.add_global m { Ir.Irmod.gname = "g"; size = 8; init = None };
  let f = Ir.Func.create ~name:"main" ~params:[] ~ret:Ir.Ty.I64 in
  let entry = Ir.Builder.add_block f ~label:"entry" in
  let loop = Ir.Builder.add_block f ~label:"loop" in
  let exit_ = Ir.Builder.add_block f ~label:"exit" in
  ignore (Ir.Builder.set_term f entry.Ir.Func.bid (Br loop.Ir.Func.bid));
  let p = Ir.Builder.add f loop.Ir.Func.bid (Phi [ (entry.Ir.Func.bid, Glob "g") ]) Ir.Ty.Ptr in
  let q = Ir.Builder.add f loop.Ir.Func.bid (Gep (Reg p.id, Cint 1L)) Ir.Ty.Ptr in
  Ir.Builder.set_op f p (Phi [ (entry.Ir.Func.bid, Glob "g"); (loop.Ir.Func.bid, Reg q.id) ]);
  let v = Ir.Builder.add f loop.Ir.Func.bid (Load (Reg q.id)) Ir.Ty.I64 in
  let c = Ir.Builder.add f loop.Ir.Func.bid (Icmp (Slt, Reg v.id, Cint 10L)) Ir.Ty.I64 in
  ignore
    (Ir.Builder.set_term f loop.Ir.Func.bid (Cbr (Reg c.id, loop.Ir.Func.bid, exit_.Ir.Func.bid)));
  ignore (Ir.Builder.set_term f exit_.Ir.Func.bid (Ret (Some (Reg v.id))));
  Ir.Irmod.add_func m f;
  Ir.Verify.verify_module m;
  Ir.Trace.enable ();
  Fun.protect ~finally:Ir.Trace.disable (fun () ->
      let slow = Ir.Andersen.solve_naive m in
      let fast = Ir.Andersen.analyze m in
      Alcotest.(check (list string))
        "cycle module: solvers agree"
        (Ir.Andersen.dump_pts slow) (Ir.Andersen.dump_pts fast);
      let collapsed =
        Option.value ~default:0L
          (List.assoc_opt "andersen.cycles_collapsed" (Ir.Trace.counters ()))
      in
      checkb "at least one copy cycle collapsed" (Int64.compare collapsed 0L > 0))

(* ------------------------------------------------------------------ *)
(* Bucketed PDG vs the unbucketed builder                               *)
(* ------------------------------------------------------------------ *)

let edge_set (p : Noelle.Pdg.t) =
  List.map
    (fun (e : Noelle.Depgraph.edge) ->
      ( e.Noelle.Depgraph.esrc,
        e.Noelle.Depgraph.edst,
        Noelle.Depgraph.kind_to_string e.Noelle.Depgraph.kind,
        e.Noelle.Depgraph.must,
        e.Noelle.Depgraph.loop_carried ))
    (Noelle.Depgraph.edges p.Noelle.Pdg.fdg)
  |> List.sort compare

let test_bucketed_matches_unbucketed () =
  List.iter
    (fun (name, m) ->
      let a = Ir.Andersen.analyze m in
      let stack = [ Ir.Alias.baseline; Ir.Andersen.analysis a ] in
      List.iter
        (fun f ->
          let plain = Noelle.Pdg.build ~stack m f in
          let bucketed = Noelle.Pdg.build ~pts:a ~stack m f in
          let tag what =
            Printf.sprintf "%s.%s: %s" name f.Ir.Func.fname what
          in
          checkb (tag "edge sets identical") (edge_set plain = edge_set bucketed);
          checki (tag "pair totals identical") plain.Noelle.Pdg.mem_pairs_total
            bucketed.Noelle.Pdg.mem_pairs_total;
          checki (tag "disproval counts identical") plain.Noelle.Pdg.mem_pairs_disproved
            bucketed.Noelle.Pdg.mem_pairs_disproved;
          checkb (tag "bucketing never issues more queries")
            (bucketed.Noelle.Pdg.mem_queries <= plain.Noelle.Pdg.mem_queries))
        (Ir.Irmod.defined_functions m))
    (corpus ())

(** Pairs that share pointer operands must hit the alias stack once: two
    loads through the same gep against one store give one raw query plus
    one memo hit. *)
let test_query_memoization () =
  let open Ir.Instr in
  let m = Ir.Irmod.create ~name:"memo" () in
  Ir.Irmod.add_global m { Ir.Irmod.gname = "g"; size = 8; init = None };
  let f = Ir.Func.create ~name:"main" ~params:[] ~ret:Ir.Ty.I64 in
  let b = Ir.Builder.add_block f ~label:"entry" in
  let p = Ir.Builder.add f b.Ir.Func.bid (Gep (Glob "g", Cint 0L)) Ir.Ty.Ptr in
  let x = Ir.Builder.add f b.Ir.Func.bid (Load (Reg p.id)) Ir.Ty.I64 in
  let y = Ir.Builder.add f b.Ir.Func.bid (Load (Reg p.id)) Ir.Ty.I64 in
  let s = Ir.Builder.add f b.Ir.Func.bid (Bin (Add, Reg x.id, Reg y.id)) Ir.Ty.I64 in
  ignore (Ir.Builder.add f b.Ir.Func.bid (Store (Reg s.id, Reg p.id)) Ir.Ty.Void);
  ignore (Ir.Builder.set_term f b.Ir.Func.bid (Ret (Some (Reg s.id))));
  Ir.Irmod.add_func m f;
  Ir.Verify.verify_module m;
  let a = Ir.Andersen.analyze m in
  let stack = [ Ir.Alias.baseline; Ir.Andersen.analysis a ] in
  Ir.Trace.enable ();
  Fun.protect ~finally:Ir.Trace.disable (fun () ->
      let p = Noelle.Pdg.build ~pts:a ~stack m (Ir.Irmod.func m "main") in
      checkb "memoization saved at least one query"
        (p.Noelle.Pdg.mem_queries < p.Noelle.Pdg.mem_pairs_total);
      let hits =
        Option.value ~default:0L
          (List.assoc_opt "pdg.alias_memo_hits" (Ir.Trace.counters ()))
      in
      checkb "memo-hit counter recorded" (Int64.compare hits 0L > 0))

(* ------------------------------------------------------------------ *)
(* Incremental invalidation vs from-scratch                             *)
(* ------------------------------------------------------------------ *)

(** Mutate one function, [invalidate], and demand every PDG again: the
    result must be indistinguishable from a manager created fresh on the
    mutated module — and the untouched functions' artifacts must have
    survived (fingerprint-keyed, not wholesale). *)
let test_incremental_matches_scratch () =
  List.iter
    (fun (name, m) ->
      let fns = Ir.Irmod.defined_functions m in
      if List.length fns >= 2 then begin
        let n1 = Noelle.create m in
        List.iter (fun f -> ignore (Noelle.pdg n1 f)) fns;
        (* single-function transform: dead arithmetic changes the
           fingerprint of exactly one function *)
        let f0 = List.hd fns in
        ignore
          (Ir.Builder.add f0 (Ir.Func.entry f0)
             (Ir.Instr.Bin (Ir.Instr.Add, Ir.Instr.Cint 1L, Ir.Instr.Cint 2L))
             Ir.Ty.I64);
        Ir.Trace.enable ();
        let kept =
          Fun.protect ~finally:Ir.Trace.disable (fun () ->
              Noelle.invalidate n1;
              Option.value ~default:0L
                (List.assoc_opt "noelle.invalidate.kept" (Ir.Trace.counters ())))
        in
        checkb (name ^ ": untouched artifacts survived invalidate")
          (Int64.compare kept 0L > 0);
        let n2 = Noelle.create m in
        List.iter
          (fun f ->
            let inc = Noelle.pdg n1 f and scratch = Noelle.pdg n2 f in
            checkb
              (Printf.sprintf "%s.%s: incremental PDG == from-scratch" name f.Ir.Func.fname)
              (edge_set inc = edge_set scratch);
            checki
              (Printf.sprintf "%s.%s: same pair totals" name f.Ir.Func.fname)
              scratch.Noelle.Pdg.mem_pairs_total inc.Noelle.Pdg.mem_pairs_total)
          fns
      end)
    (List.filter
       (fun (k : Bsuite.Kernels.kernel) ->
         List.mem k.Bsuite.Kernels.kname [ "ferret"; "dedup"; "dijkstra" ])
       Bsuite.Kernels.all
     |> List.map (fun (k : Bsuite.Kernels.kernel) ->
            (k.Bsuite.Kernels.kname, Bsuite.Kernels.compile k)))

let suite =
  [
    tc "bitset units" test_bitset;
    tc "worklist == naive (kernels + 50 fuzz seeds)" test_worklist_matches_naive;
    tc "analysis budget degrades gracefully" test_budget_degrades;
    tc "copy cycles collapse" test_cycle_collapse;
    tc "bucketed PDG == unbucketed (kernels + 50 fuzz seeds)" test_bucketed_matches_unbucketed;
    tc "alias-query memoization" test_query_memoization;
    tc "incremental invalidation == from-scratch" test_incremental_matches_scratch;
  ]
