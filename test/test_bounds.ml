(** Ir.Bounds: symbolic loop-bound and cost analysis (DESIGN.md §13).

    The full soundness sweep (profiled trips vs static bounds
    over 50 fuzz seeds + the kernel corpus, decision parity, Psim
    head-to-head) is [noelle-gate --gate bounds] in [bin/noelle_gate.ml];
    these are the unit-level guarantees: exact closed forms for the
    counted-loop shapes, difference-constraint upper bounds for the
    non-affine ones, conservative tops, bottom-up cost composition,
    fingerprint-keyed caching through [Noelle.invalidate], and the
    [complexity] checker built on top. *)

open Helpers
open Ir

(** Degree of the cost polynomial, [None] at a lattice top. *)
let cost_degree = function
  | Bounds.Poly ts ->
    Some (List.fold_left (fun d t -> max d (List.length t.Bounds.vars)) 0 ts)
  | Bounds.Cunknown | Bounds.Cunbounded -> None

let loop_bound_to_string (lb : Bounds.loop_bound) =
  Printf.sprintf "%s: depth %d, trips %s, cost %s [%s]" lb.Bounds.lkey lb.Bounds.ldepth
    (Bounds.trip_to_string lb.Bounds.lheadx) (Bounds.cost_to_string lb.Bounds.lcost)
    (match lb.Bounds.lorigin with
    | Bounds.Affine -> "affine"
    | Bounds.Diffcon -> "diffcon"
    | Bounds.Structural -> "structural")

(** The single analyzed loop of [fname] in [src]. *)
let one_loop ?(fname = "main") src =
  let m = compile src in
  let s = Bounds.analyze (Irmod.func m fname) in
  match s.Bounds.floops with
  | [ lb ] -> (m, s, lb)
  | l -> Alcotest.failf "expected exactly one loop, got %d" (List.length l)

let trip_s = Bounds.trip_to_string

(* ------------------------------------------------------------------ *)
(* Exact affine trips                                                  *)
(* ------------------------------------------------------------------ *)

let test_exact_const () =
  let _, s, lb =
    one_loop
      {|
int main() {
  int t = 0;
  for (int i = 0; i < 100; i++) { t = t + i; }
  print(t);
  return 0;
}
|}
  in
  checkb "origin is affine" (lb.Bounds.lorigin = Bounds.Affine);
  (* body runs 100 times; the header executes once more (the exit test) *)
  check (Alcotest.option Alcotest.int64) "liters = 100" (Some 100L)
    (Bounds.trip_const lb.Bounds.liters);
  check (Alcotest.option Alcotest.int64) "lheadx = 101" (Some 101L)
    (Bounds.trip_const lb.Bounds.lheadx);
  checkb "liters exact" (Bounds.trip_is_exact lb.Bounds.liters);
  (* the function cost is a known constant covering all 100 iterations *)
  (match Bounds.cost_const s.Bounds.fcost with
  | Some c -> checkb "fcost covers the loop body" (Int64.compare c 100L >= 0)
  | None -> Alcotest.fail "fcost should be constant");
  check (Alcotest.option Alcotest.int) "cost degree 0" (Some 0)
    (cost_degree s.Bounds.fcost)

let test_exact_downward_and_step () =
  let _, _, lb =
    one_loop
      {|
int main() {
  int t = 0;
  for (int i = 90; i > 0; i = i - 3) { t = t + i; }
  print(t);
  return 0;
}
|}
  in
  (* 90, 87, ..., 3: thirty iterations *)
  check (Alcotest.option Alcotest.int64) "liters = 30" (Some 30L)
    (Bounds.trip_const lb.Bounds.liters);
  checkb "liters exact" (Bounds.trip_is_exact lb.Bounds.liters)

let test_exact_symbolic () =
  let m =
    compile
      {|
int work(int n) {
  int s = 0;
  for (int i = 0; i < n; i++) { s = s + i; }
  return s;
}
int main() { print(work(8)); return 0; }
|}
  in
  let s = Bounds.analyze (Irmod.func m "work") in
  match s.Bounds.floops with
  | [ lb ] ->
    checkb "symbolic bound is exact" (Bounds.trip_is_exact lb.Bounds.liters);
    checkb "but has no constant value"
      (Bounds.trip_const lb.Bounds.liters = None);
    checkb "cost is a degree-1 polynomial in n"
      (cost_degree s.Bounds.fcost = Some 1)
  | l -> Alcotest.failf "expected one loop in work, got %d" (List.length l)

let test_dowhile_latch_test () =
  let _, _, lb =
    one_loop
      {|
int main() {
  int i = 0;
  int t = 0;
  do { t = t + i; i = i + 1; } while (i < 10);
  print(t);
  return 0;
}
|}
  in
  (* latch-tested on the updated value: body and header both run
     exactly 10 times *)
  check (Alcotest.option Alcotest.int64)
    ("liters = 10 (got " ^ trip_s lb.Bounds.liters ^ ")")
    (Some 10L)
    (Bounds.trip_const lb.Bounds.liters);
  check (Alcotest.option Alcotest.int64) "lheadx = 10" (Some 10L)
    (Bounds.trip_const lb.Bounds.lheadx)

let test_dowhile_runs_at_least_once () =
  (* the condition is false on entry: a while loop would run zero times,
     the do-while still runs once — the [slo] clamp floor carries this *)
  let _, _, lb =
    one_loop
      {|
int main() {
  int i = 5;
  int t = 0;
  do { t = t + 1; i = i + 1; } while (i < 3);
  print(t);
  return 0;
}
|}
  in
  check (Alcotest.option Alcotest.int64)
    ("do-while clamps to one iteration (got " ^ trip_s lb.Bounds.liters ^ ")")
    (Some 1L)
    (Bounds.trip_const lb.Bounds.liters)

(* ------------------------------------------------------------------ *)
(* Difference-constraint upper bounds                                  *)
(* ------------------------------------------------------------------ *)

let test_diffcon_conditional_increment () =
  (* the counter advances by 1 or 2 depending on data: no Scev closed
     form, but minimum progress 1 per iteration bounds the trips *)
  let _, _, lb =
    one_loop
      {|
int main() {
  int i = 0;
  int t = 0;
  while (i < 10) {
    if (t - (t / 2) * 2 == 0) { i = i + 2; } else { i = i + 1; }
    t = t + 1;
  }
  print(t);
  return 0;
}
|}
  in
  checkb "origin is diffcon" (lb.Bounds.lorigin = Bounds.Diffcon);
  checkb
    ("upper, not exact (got " ^ trip_s lb.Bounds.lheadx ^ ")")
    (match lb.Bounds.lheadx with Bounds.Upper _ -> true | _ -> false);
  match Bounds.trip_const lb.Bounds.lheadx with
  | Some b ->
    (* worst case all steps are +1: 10 body iterations, 11 header
       executions; the abstraction may add slack but must stay sound
       and finite *)
    checkb "bound covers the slowest path" (Int64.compare b 11L >= 0);
    checkb "bound is not vacuous" (Int64.compare b 20L <= 0)
  | None -> Alcotest.fail "constant-progress loop should get a constant bound"

let test_unknown_is_conservative () =
  (* progress depends on a loaded value: no minimum step is provable *)
  let _, _, lb =
    one_loop
      {|
int a[4];
int main() {
  a[0] = 1;
  int i = 0;
  while (i < 10) { i = i + a[0]; }
  print(i);
  return 0;
}
|}
  in
  checkb
    ("data-dependent step degrades to Unknown (got "
    ^ trip_s lb.Bounds.lheadx ^ ")")
    (lb.Bounds.lheadx = Bounds.Unknown)

(* ------------------------------------------------------------------ *)
(* Unbounded: structurally exitless loops                              *)
(* ------------------------------------------------------------------ *)

let test_unbounded_structural () =
  let f = Func.create ~name:"spin" ~params:[] ~ret:Ty.I64 in
  let entry = Builder.add_block f ~label:"entry" in
  let body = Builder.add_block f ~label:"loop" in
  ignore (Builder.set_term f entry.Func.bid (Instr.Br body.Func.bid));
  ignore
    (Builder.add f body.Func.bid
       (Instr.Bin (Instr.Add, Instr.Cint 1L, Instr.Cint 2L))
       Ty.I64);
  ignore (Builder.set_term f body.Func.bid (Instr.Br body.Func.bid));
  let s = Bounds.analyze f in
  (match s.Bounds.floops with
  | [ lb ] ->
    checkb "no exit edges -> Unbounded" (lb.Bounds.lheadx = Bounds.Unbounded);
    checkb "origin structural" (lb.Bounds.lorigin = Bounds.Structural);
    checkb "loop cost is Cunbounded" (lb.Bounds.lcost = Bounds.Cunbounded)
  | l -> Alcotest.failf "expected one loop, got %d" (List.length l));
  checkb "top poisons the function cost" (s.Bounds.fcost = Bounds.Cunbounded)

(* ------------------------------------------------------------------ *)
(* Cost composition over the loop forest                               *)
(* ------------------------------------------------------------------ *)

let test_cost_nest_composition () =
  let m =
    compile
      {|
int main() {
  int t = 0;
  for (int i = 0; i < 10; i++) {
    for (int j = 0; j < 20; j++) { t = t + j; }
  }
  print(t);
  return 0;
}
|}
  in
  let s = Bounds.analyze (Irmod.func m "main") in
  checki "two loops" 2 (List.length s.Bounds.floops);
  (* innermost-first ordering *)
  let inner = List.hd s.Bounds.floops and outer = List.nth s.Bounds.floops 1 in
  checkb "inner is deeper" (inner.Bounds.ldepth > outer.Bounds.ldepth);
  let const_of c =
    match Bounds.cost_const c with
    | Some v -> v
    | None -> Alcotest.fail "constant nest should have constant costs"
  in
  let ci = const_of inner.Bounds.lcost and co = const_of outer.Bounds.lcost in
  (* the outer loop pays for 10 full runs of the inner loop *)
  checkb "outer cost covers 10 inner invocations"
    (Int64.compare co (Int64.mul 10L ci) >= 0);
  checkb "inner covers its 20 iterations" (Int64.compare ci 20L >= 0)

let test_cost_symbolic_nest_degree () =
  let m =
    compile
      {|
int work(int n, int m) {
  int t = 0;
  for (int i = 0; i < n; i++) {
    for (int j = 0; j < m; j++) { t = t + j; }
  }
  return t;
}
int main() { print(work(3, 4)); return 0; }
|}
  in
  let s = Bounds.analyze (Irmod.func m "work") in
  check (Alcotest.option Alcotest.int) "n*m nest is a degree-2 polynomial"
    (Some 2)
    (cost_degree s.Bounds.fcost)

(* ------------------------------------------------------------------ *)
(* Interpreter differential (unit-sized; the sweep is the bounds gate) *)
(* ------------------------------------------------------------------ *)

let test_measured_matches_static () =
  let src =
    {|
int main() {
  int t = 0;
  for (int i = 0; i < 7; i++) { t = t + i; }
  int j = 0;
  do { t = t + 1; j = j + 1; } while (j < 5);
  print(t);
  return 0;
}
|}
  in
  let m = compile src in
  let f = Irmod.func m "main" in
  let s = Bounds.analyze f in
  (* the trips the bounds gate reads: the embedded profile's queries *)
  let p, _ = Noelle.Profiler.run m in
  Noelle.Profiler.embed p m;
  let structure header =
    Noelle.Loopstructure.of_loop f
      (List.find
         (fun l -> l.Loopnest.header = header)
         (Loopnest.compute f).Loopnest.loops)
  in
  checki "two loops analyzed" 2 (List.length s.Bounds.floops);
  List.iter
    (fun (lb : Bounds.loop_bound) ->
      let ls = structure lb.Bounds.lheader in
      let measured = Noelle.Profiler.loop_iterations m ls in
      check Alcotest.int64 (lb.Bounds.lkey ^ ": one invocation") 1L
        (Noelle.Profiler.loop_invocations m ls);
      match Bounds.trip_const lb.Bounds.lheadx with
      | Some b ->
        checkb
          (Printf.sprintf "%s: static bound %Ld >= measured %Ld" lb.Bounds.lkey
             b measured)
          (Int64.compare b measured >= 0);
        if Bounds.trip_is_exact lb.Bounds.lheadx then
          check Alcotest.int64 (lb.Bounds.lkey ^ ": exact bound met") b measured
      | None -> Alcotest.failf "%s: expected a constant bound" lb.Bounds.lkey)
    s.Bounds.floops

(* ------------------------------------------------------------------ *)
(* Exhaustive counted loops against the interpreter                    *)
(* ------------------------------------------------------------------ *)

(* every member of the small counted-loop family (Smallscope), both
   operand orders of the exit compare: wherever [exact_trips] or
   [phi_range] answers, the answer is what the interpreter saw ([None] is
   always allowed; a loop that runs out of fuel does not terminate, so it
   admits no answer); [analyze]'s header bound is exact or an upper bound
   of the count *)
let test_counted_loops_exhaustive () =
  let trips = ref 0 and ranges = ref 0 and loops = ref 0 in
  List.iter
    (fun (mb : Smallscope.member) ->
      let src = Smallscope.ir mb in
      let m = Parser.parse_module src in
      let f = Irmod.func m "main" in
      let l =
        match (Loopnest.compute f).Loopnest.loops with
        | [ l ] -> l
        | _ -> Alcotest.failf "expected one loop:\n%s" src
      in
      let headers = ref 0 in
      let r =
        Interp.start ~fuel:2000
          ~configure:(fun st ->
            st.Interp.hooks.Interp.on_block <-
              Some (fun _ b -> if b = l.Loopnest.header then incr headers))
          m
      in
      let seen =
        match Interp.value r with
        | exception Interp.Trap _ -> None
        | _ ->
          Some
            (String.split_on_char '\n' (String.trim (Interp.output r))
            |> List.filter (( <> ) "")
            |> List.map Int64.of_string)
      in
      incr loops;
      let fail what = Alcotest.failf "%s:\n%s" what src in
      (match (Bounds.exact_trips f l, seen) with
      | None, _ -> ()
      | Some _, None -> fail "exact trips for a loop that does not terminate"
      | Some (body, head), Some vs ->
        incr trips;
        if
          Bounds.trip_const body <> Some (Int64.of_int (List.length vs))
          || Bounds.trip_const head <> Some (Int64.of_int !headers)
          || not (Bounds.trip_is_exact body && Bounds.trip_is_exact head)
        then
          fail
            (Printf.sprintf "exact trips %s | %s, ran %d bodies, %d headers"
               (trip_s body) (trip_s head) (List.length vs) !headers));
      (match (Bounds.phi_range f l (Func.inst f 2), seen) with
      | None, _ -> ()
      | Some _, (None | Some []) -> fail "a range for a phi no body saw"
      | Some (lo, hi), Some vs ->
        incr ranges;
        let vlo = List.fold_left min Int64.max_int vs
        and vhi = List.fold_left max Int64.min_int vs in
        if lo <> vlo || hi <> vhi then
          fail
            (Printf.sprintf "phi range [%Ld, %Ld], body saw [%Ld, %Ld]" lo hi vlo vhi));
      match (Bounds.find (Bounds.analyze f) ~header:l.Loopnest.header, seen) with
      | Some { Bounds.lheadx = Bounds.Exact s | Bounds.Upper s as t; _ }, Some _ -> (
        match Bounds.sym_value s with
        | Some b ->
          let n = Int64.of_int !headers in
          if (Bounds.trip_is_exact t && b <> n) || b < n then
            fail (Printf.sprintf "header bound %s, ran %Ld" (trip_s t) n)
        | None -> fail "symbolic bound for constant operands")
      | Some { Bounds.lheadx = Bounds.Exact _ | Bounds.Upper _; _ }, None ->
        fail "a header bound for a loop that does not terminate"
      | _ -> ())
    (Smallscope.members ~orientations:[ false; true ]);
  checki "loops enumerated" (3 * 7 * 4 * 7 * 6 * 4 * 2) !loops;
  (* 13,296 and 11,728 when written, 6,648 and 5,864 per operand order:
     a recognizer that stops answering, or answers only one order, fails
     here rather than passing vacuously *)
  checkb (Printf.sprintf "exact trips answered on %d loops" !trips) (!trips >= 12000);
  checkb (Printf.sprintf "phi ranges answered on %d loops" !ranges) (!ranges >= 10000)

(* ------------------------------------------------------------------ *)
(* Caching: fingerprint-keyed, incremental == from-scratch             *)
(* ------------------------------------------------------------------ *)

let render (s : Bounds.summary) =
  String.concat "\n" (List.map loop_bound_to_string s.Bounds.floops)
  ^ "\n" ^ Bounds.cost_to_string s.Bounds.fcost

let test_cache_invalidate () =
  let m =
    compile
      {|
int work(int n) {
  int s = 0;
  for (int i = 0; i < n; i++) { s = s + i; }
  return s;
}
int main() {
  int t = 0;
  for (int i = 0; i < 9; i++) { t = t + work(i); }
  print(t);
  return 0;
}
|}
  in
  let fns = Irmod.defined_functions m in
  let n1 = Noelle.create m in
  List.iter (fun f -> ignore (Noelle.bounds n1 f)) fns;
  (* mutate main only: work's fingerprint — and cached summary — survive *)
  let main = Irmod.func m "main" in
  ignore
    (Builder.add main (Func.entry main)
       (Instr.Bin (Instr.Add, Instr.Cint 1L, Instr.Cint 2L))
       Ty.I64);
  Ir.Trace.enable ();
  let kept =
    Fun.protect ~finally:Ir.Trace.disable (fun () ->
        Noelle.invalidate n1;
        Option.value ~default:0L
          (List.assoc_opt "noelle.invalidate.kept" (Trace.counters ())))
  in
  checkb "untouched summary survived invalidate" (Int64.compare kept 0L > 0);
  let n2 = Noelle.create m in
  List.iter
    (fun f ->
      checks
        (f.Func.fname ^ ": incremental bounds == from-scratch")
        (render (Noelle.bounds n2 f))
        (render (Noelle.bounds n1 f)))
    fns

(* ------------------------------------------------------------------ *)
(* The complexity checker                                              *)
(* ------------------------------------------------------------------ *)

let complexity_diags ?(budget : int option) ?(unbounded = false) m =
  (match budget with
  | Some b -> Meta.set_int m.Irmod.meta "check.complexity.budget" b
  | None -> ());
  if unbounded then Meta.set m.Irmod.meta "check.complexity.flag-unbounded" "1";
  (Noelle.Check.run ~checks:[ "complexity" ] m).Noelle.Check.diags

let test_complexity_budget () =
  let src =
    {|
int main() {
  int t = 0;
  for (int i = 0; i < 100; i++) { t = t + i; }
  print(t);
  return 0;
}
|}
  in
  (* default budget (1e6): clean *)
  checki "clean at default budget" 0 (List.length (complexity_diags (compile src)));
  (* a 10-trip budget: the 101-header-execution loop is flagged *)
  match complexity_diags ~budget:10 (compile src) with
  | [ d ] ->
    checks "stable id" "complexity.budget" d.Noelle.Check.did;
    checkb "warning severity" (d.Noelle.Check.dsev = Noelle.Check.Warning);
    checkb "message names the loop"
      (let s = d.Noelle.Check.dmsg and sub = "for.header" in
       let sl = String.length sub and ml = String.length s in
       let rec go k = k + sl <= ml && (String.sub s k sl = sub || go (k + 1)) in
       go 0)
  | l -> Alcotest.failf "expected one diagnostic, got %d" (List.length l)

let test_complexity_unknown_never_flagged () =
  (* Unknown bound: a lint that fires on "I don't know" is noise *)
  let src =
    {|
int a[4];
int main() {
  a[0] = 1;
  int i = 0;
  while (i < 10) { i = i + a[0]; }
  print(i);
  return 0;
}
|}
  in
  checki "Unknown is never flagged" 0
    (List.length (complexity_diags ~budget:1 ~unbounded:true (compile src)))

let test_complexity_unbounded_flag () =
  let m = Irmod.create ~name:"spinmod" () in
  let f = Func.create ~name:"spin" ~params:[] ~ret:Ty.I64 in
  let entry = Builder.add_block f ~label:"entry" in
  let body = Builder.add_block f ~label:"loop" in
  ignore (Builder.set_term f entry.Func.bid (Instr.Br body.Func.bid));
  ignore
    (Builder.add f body.Func.bid
       (Instr.Bin (Instr.Add, Instr.Cint 1L, Instr.Cint 2L))
       Ty.I64);
  ignore (Builder.set_term f body.Func.bid (Instr.Br body.Func.bid));
  Irmod.add_func m f;
  checki "silent by default" 0 (List.length (complexity_diags m));
  match complexity_diags ~unbounded:true m with
  | [ d ] -> checks "stable id" "complexity.unbounded" d.Noelle.Check.did
  | l -> Alcotest.failf "expected one diagnostic, got %d" (List.length l)

let test_complexity_clean_on_corpus () =
  (* the pristine benchmark corpus must lint clean at the default budget:
     a checker that cries wolf on known-good code is dead on arrival *)
  each_kernel (fun k m ->
      checki
        (k.Bsuite.Kernels.kname ^ ": complexity-clean at default budget")
        0
        (List.length (complexity_diags m)))

(* ------------------------------------------------------------------ *)
(* The profile-free planner                                            *)
(* ------------------------------------------------------------------ *)

let test_planner_head_to_head () =
  let k =
    List.find
      (fun (k : Bsuite.Kernels.kernel) -> k.Bsuite.Kernels.kname = "histogram")
      Bsuite.Kernels.all
  in
  let m = Bsuite.Kernels.compile k in
  let p, _ = Noelle.Profiler.run ~fuel:k.Bsuite.Kernels.fuel m in
  Noelle.Profiler.embed p m;
  let n = Noelle.create m in
  let pairs =
    Ntools.Planner.head_to_head n m ~ncores:4 ~min_hotness:0.05
      ~min_work:20000.0
  in
  checkb "histogram has loops to plan" (pairs <> []);
  List.iter
    (fun (key, prof, stat) ->
      checkb (key ^ ": profile-free decision matches profile-driven")
        (Ntools.Planner.agree prof stat);
      checkb (key ^ ": chunk positive") (stat.Ntools.Planner.pd_chunk > 0);
      checkb (key ^ ": chunk within cores")
        (stat.Ntools.Planner.pd_chunk <= 4))
    pairs

let test_static_chunk_clamps () =
  (* 3 constant iterations on 8 cores: spawning 8 tasks is provably
     wasteful, the static planner clamps to the trip bound *)
  let m =
    compile
      {|
int a[8];
int main() {
  for (int i = 0; i < 3; i++) { a[i] = i; }
  print(a[2]);
  return 0;
}
|}
  in
  let n = Noelle.create m in
  let f = Irmod.func m "main" in
  match Noelle.loops n f with
  | lp :: _ ->
    checki "chunk clamped to the trip bound" 3
      (Ntools.Parutil.static_chunk n f (Noelle.Loop.structure lp) ~ncores:8)
  | [] -> Alcotest.fail "expected a loop"

let suite =
  [
    tc "bounds: exact constant for-loop" test_exact_const;
    tc "bounds: exact downward stride-3" test_exact_downward_and_step;
    tc "bounds: exact symbolic bound" test_exact_symbolic;
    tc "bounds: do-while latch test" test_dowhile_latch_test;
    tc "bounds: do-while runs once" test_dowhile_runs_at_least_once;
    tc "bounds: diffcon conditional increment" test_diffcon_conditional_increment;
    tc "bounds: unknown is conservative" test_unknown_is_conservative;
    tc "bounds: structural unbounded" test_unbounded_structural;
    tc "bounds: cost nest composition" test_cost_nest_composition;
    tc "bounds: symbolic nest degree" test_cost_symbolic_nest_degree;
    tc "bounds: measured trips match static" test_measured_matches_static;
    tc "bounds: every small counted loop matches the interpreter"
      test_counted_loops_exhaustive;
    tc "bounds: cache survives invalidate" test_cache_invalidate;
    tc "check: complexity budget" test_complexity_budget;
    tc "check: complexity never flags Unknown" test_complexity_unknown_never_flagged;
    tc "check: complexity unbounded flag" test_complexity_unbounded_flag;
    tc "check: complexity clean on corpus" test_complexity_clean_on_corpus;
    tc "planner: head-to-head agreement" test_planner_head_to_head;
    tc "planner: static chunk clamps" test_static_chunk_clamps;
  ]
