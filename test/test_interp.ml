(** The compiled-layout interpreter against its differential oracle.

    {!Interp_oracle} is the per-step loop the layouts replaced.  Each input
    runs through both on a fresh state with the {!Ir.Obs} recorder and the
    profiler attached (the fast loop with {!Noelle.Profiler.attach} and the
    allocation sites its steps record, the oracle with the profiler's
    former hooks and the recorder's former site hook), and everything
    observable must agree: exit value or exact trap text, output, steps,
    virtual clock, remaining fuel, the event trace and the profile
    tables. *)

open Helpers
open Ir

let profile_lines (p : Noelle.Profiler.t) =
  let rows tbl show =
    Hashtbl.fold (fun k c acc -> Printf.sprintf "%s %Ld" (show k) c :: acc) tbl []
    |> List.sort compare
  in
  (("total " ^ Int64.to_string p.Noelle.Profiler.total_insts)
   :: rows p.block_counts (fun (f, l) -> "block " ^ f ^ "." ^ l))
  @ rows p.edge_counts (fun (f, i, l) -> Printf.sprintf "edge %s.%d.%s" f i l)
  @ rows p.fn_insts (( ^ ) "fninsts ")
  @ rows p.fn_calls (( ^ ) "fncalls ")
  @ rows p.call_pair (fun (a, b) -> "callpair " ^ a ^ "." ^ b)

(* everything one run exposes, rendered for exact comparison: the
   profiler and the Obs recorder share the run, as they share hooks *)
let observe (call, attach_profile) ~fuel m =
  let sites = Obs.escape_sites m in
  let st = Interp.create m in
  st.Interp.fuel <- fuel;
  let profile = attach_profile st in
  let rc = Obs.attach ~sites st in
  let outcome =
    match call st "main" [] with
    | v ->
      Obs.finish rc (Obs.Exit (Obs.render rc v));
      "exit " ^ Interp.v_to_string v
    | exception Interp.Trap msg ->
      Obs.finish rc (Obs.terminal_of_trap msg);
      "trap " ^ msg
    | exception e -> "raised " ^ Printexc.to_string e
  in
  [ outcome;
    Printf.sprintf "steps=%d clock=%d fuel=%d" st.Interp.steps st.Interp.clock st.Interp.fuel;
    "output:"; Buffer.contents st.Interp.output; "trace:" ]
  @ List.map Obs.event_display (Obs.events rc)
  @ ("profile:" :: profile_lines (profile ()))

let oracle =
  ( Interp_oracle.call,
    fun st ->
      let p = Interp_oracle.attach_profile st in
      Interp_oracle.attach_sites st;
      fun () -> p )
let fast = (Interp.call, Noelle.Profiler.attach)

(* [fresh ()] gives each run its own copy of the module *)
let same name ~fuel fresh =
  Alcotest.(check (list string)) name
    (observe oracle ~fuel (fresh ())) (observe fast ~fuel (fresh ()))

let fuzz_fuel = 3_000_000

let test_kernels () =
  List.iter
    (fun (k : Bsuite.Kernels.kernel) ->
      same k.Bsuite.Kernels.kname ~fuel:k.Bsuite.Kernels.fuel (fun () ->
          Bsuite.Kernels.compile k))
    Bsuite.Kernels.all

let fuzz seed = Minic.Lower.compile ~name:"fuzz" (Bsuite.Generator.program seed)

let test_fuzz_seeds () =
  for seed = 1 to 50 do
    same (Printf.sprintf "seed %d" seed) ~fuel:fuzz_fuel (fun () -> fuzz seed)
  done

(* each plant on the first 8 seeds that have a site for it; the planted
   modules fail (traps, bad phis, early returns), so the trap texts and
   the partial traces are what is compared *)
let test_fault_plants () =
  List.iter
    (fun kind ->
      let planted = ref 0 in
      for seed = 1 to 40 do
        if !planted < 8 then begin
          let fresh () =
            let m = fuzz seed in
            (m, Faultgen.inject ~kinds:[ kind ] ~seed m)
          in
          match fresh () with
          | _, None -> ()
          | _, Some _ ->
            incr planted;
            same
              (Printf.sprintf "%s seed %d" (Faultgen.kind_to_string kind) seed)
              ~fuel:fuzz_fuel
              (fun () -> fst (fresh ()))
        end
      done;
      checki (Faultgen.kind_to_string kind ^ ": planted") 8 !planted)
    Faultgen.[ Undef_operand; Corrupt_phi_edge; Mid_terminator; Uninit_load; Wild_store ]

(* one faulty instruction per module, with every operand bad where the
   op has several, so the trap text pins the operand evaluation order *)
let trap_bodies =
  [ "%1 = add 1.5, 2.5";
    "%1 = sdiv 1, 0";
    "%1 = fadd 1, 2";
    "%1 = icmp.slt 1.5, 2.5";
    "%1 = fcmp.slt 1, 2";
    "%1 = gep 1.5, 2.5";
    "%1 = sitofp 1.5";
    "%1 = alloca -1";
    "%1 = load.i64 null";
    "%1 = store %8, %9";
    "%1 = store 1, 2.5";
    "%1 = select.i64 %8, %9, %10";
    "%1 = select.i64 0, %9, %10";
    "%1 = call.void @print(%8, %9)";
    "%1 = call.i64 @nosuch()";
    "%1 = call.i64 @two(1)";
    "%1 = inttoptr 12345\n  %2 = call.i64 %1()";
    "%1 = cbr 1.5, entry, entry";
    "%1 = ret %7";
    "%1 = unreachable";
    "%1 = add @nowhere, 1" ]

let test_trap_paths () =
  List.iter
    (fun body ->
      let src =
        Printf.sprintf
          "module \"t\"\ndefine i64 @two(i64 %%a, i64 %%b) {\nentry:\n  %%3 = ret %%a\n}\n\
           define i64 @main() {\nentry:\n  %s\n  %%20 = ret 0\n}\ndeclare void @print(i64 %%a0)\n"
          body
      in
      same body ~fuel:1000 (fun () -> Parser.parse_module src))
    trap_bodies;
  (* a branch to a block that does not exist, and phis with no incoming
     value for the edge taken *)
  let broken edit () =
    let m = compile "int main() { int s = 0; for (int i = 0; i < 3; i++) { s += i; } print(s); return 0; }" in
    let f = Irmod.func m "main" in
    Func.iter_insts (fun i -> Option.iter (Builder.set_op f i) (edit i.Instr.op)) f;
    m
  in
  same "missing block" ~fuel:1000
    (broken (function Instr.Br _ -> Some (Instr.Br 999) | _ -> None));
  same "phi without edge" ~fuel:1000
    (broken (function
         | Instr.Phi incs -> Some (Instr.Phi (List.map (fun (p, v) -> (p + 1000, v)) incs))
         | _ -> None))

(* an escaping malloc reached through a helper, after a non-escaping
   alloca, a non-escaping malloc and a builtin call: every allocation
   before it must leave no site behind, so the escaping objects are
   heap#0 and heap#1 in both loops *)
let test_helper_malloc_site () =
  let src =
    {|
int *g;
int *h;
int *mk(int n) { int *p = malloc(n); return p; }
int main() {
  int local[4];
  int *tmp = malloc(3);
  for (int i = 0; i < 4; i++) { local[i] = i; tmp[i % 3] = i; }
  print(local[3] + tmp[0]);
  g = mk(4);
  h = mk(2);
  for (int i = 0; i < 4; i++) { g[i] = local[i] * 2; }
  h[1] = 7;
  print(g[3]);
  return 0;
}
|}
  in
  let observed = observe fast ~fuel:100_000 (compile src) in
  List.iter
    (fun event -> checkb (event ^ " in the trace") (List.mem event observed))
    [ "store @g[0] = &heap#0"; "store heap#0[3] = 6"; "store @h[0] = &heap#1";
      "store heap#1[1] = 7" ];
  same "helper malloc" ~fuel:100_000 (fun () -> compile src)

let test_fuel_exhaustion () =
  let k = List.hd Bsuite.Kernels.all in
  let m () = Bsuite.Kernels.compile k in
  checkb "runs out" (String.starts_with ~prefix:"trap" (List.hd (observe fast ~fuel:5_000 (m ()))));
  same "fuel 5000" ~fuel:5_000 m

let suite =
  [
    tc "oracle: all kernels" test_kernels;
    tc "oracle: fuzz seeds 1-50" test_fuzz_seeds;
    tc "oracle: fault plants" test_fault_plants;
    tc "oracle: trap paths" test_trap_paths;
    tc "oracle: fuel exhaustion" test_fuel_exhaustion;
    tc "oracle: malloc through a helper" test_helper_malloc_site;
  ]
