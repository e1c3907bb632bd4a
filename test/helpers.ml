(** Shared helpers for the test-suite. *)

let check = Alcotest.check
let checkb msg b = Alcotest.check Alcotest.bool msg true b
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

(** Compile Mini-C and fail the test on a frontend error. *)
let compile ?(name = "t") src =
  try Minic.Lower.compile ~name src
  with
  | Minic.Ast.Error { line; msg } ->
    Alcotest.failf "frontend error: %s" (Minic.Ast.error_to_string line msg)

(** Run a module and return its printed output (trimmed); a trap is
    raised. *)
let output ?fuel m =
  let r = Ir.Interp.start ?fuel ~configure:ignore m in
  ignore (Ir.Interp.value r);
  String.trim (Ir.Interp.output r)

(** Compile and run, returning output. *)
let run_src ?fuel src = output ?fuel (compile src)

(** Run a module under the parallel runtime; returns (output, cycles). *)
let run_parallel ?fuel m =
  let _, out, cycles, _ = Psim.Runtime.run ?fuel m in
  (String.trim out, cycles)

(** Assert the module verifies. *)
let verifies msg m =
  match Ir.Verify.check m with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: verifier: %s" msg e

(** Assert [transform] preserves the program output of [src]. *)
let preserves_output ?fuel ~name src transform =
  let m_ref = compile src in
  let expected = output ?fuel m_ref in
  let m = compile src in
  transform m;
  verifies name m;
  let got = output ?fuel m in
  checks (name ^ ": output preserved") expected got

let tc name f = Alcotest.test_case name `Quick f

(** Freshly compiled module for each kernel of the corpus. *)
let each_kernel f =
  List.iter
    (fun (k : Bsuite.Kernels.kernel) -> f k (Bsuite.Kernels.compile k))
    Bsuite.Kernels.all

(** Do the two modules print identically? *)
let same_ir a b = String.equal (Ir.Printer.module_str a) (Ir.Printer.module_str b)

(** Run [m] from [main] with the tool runtimes installed; returns (exit,
    output, simulated cycles, tool-runtime stats). *)
let run_toolrt ?fuel (m : Ir.Irmod.t) =
  let r = Ir.Interp.start ?fuel ~configure:Ntools.Toolrt.install m in
  (Ir.Interp.value r, Ir.Interp.output r, Ir.Interp.clock r, r.Ir.Interp.setup)
