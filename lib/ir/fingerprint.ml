(** Stable structural fingerprints of functions and modules.

    Embedded analysis artifacts (PDG edges, profiles) are only valid for
    the exact IR they were computed on.  A fingerprint captures that IR
    structurally — instruction ids, opcodes, operands and CFG edges, all
    via the printed form, which {!Printer}/{!Parser} keep stable across
    round trips — so a consumer can tell whether the code under an
    artifact has changed since the artifact was embedded.

    Module fingerprints deliberately exclude metadata: embedding or
    stamping one artifact must not invalidate another artifact's stamp.

    A fingerprint prints the IR, so it is computed only where it is
    persisted and must mean the same in another process: Trust stamps
    and the serve layer's store keys.  Caches that live in one process
    compare version stamps instead ({!Func.version}, {!Irmod.version}),
    which cost nothing to read. *)

(* FNV-1a style over the native 63-bit int: tiny, dependency-free, and
   stable across platforms (the state is masked to 62 bits so it never
   depends on the sign behaviour of overflow).  Native ints stay unboxed,
   which matters: verifying a stamp hashes every key of a payload that
   can hold tens of thousands of edges, and an Int64 accumulator would
   allocate twice per byte.  Collision resistance is not a goal (stamps
   guard against accidents, not adversaries); detection of any realistic
   edit is. *)

let offset_basis = 0x3bf29ce484222325
let prime = 0x100000001b3

type state = int

let seed : state = offset_basis

let feed (h : state) (s : string) : state =
  let h = ref h in
  for i = 0 to String.length s - 1 do
    h := ((!h lxor Char.code (String.unsafe_get s i)) * prime) land max_int
  done;
  (* separator so that feed h "ab" <> feed (feed h "a") "b" *)
  ((!h lxor 0x1f) * prime) land max_int

let to_hex (h : state) = Printf.sprintf "%016x" h

(** Fingerprint of one function: name plus its full printed body
    (ids, opcodes, operands, block labels and terminators — the printed
    form is exactly the structure embedded artifacts reference). *)
let func_fp (f : Func.t) : string =
  to_hex (feed (feed seed f.Func.fname) (Printer.func_str f))

(** Fingerprint of the whole module: globals and every function, in
    deterministic order, excluding metadata (see above). *)
let module_fp (m : Irmod.t) : string =
  let h = ref (feed seed m.Irmod.mname) in
  List.iter
    (fun (g : Irmod.global) ->
      h := feed !h (Printf.sprintf "global %s %d" g.gname g.size);
      match g.init with
      | None -> ()
      | Some vs ->
        Array.iter
          (fun v ->
            h :=
              feed !h
                (match v with
                | Instr.Cint n -> Int64.to_string n
                | Instr.Cfloat x -> Printf.sprintf "%h" x
                | Instr.Null -> "null"
                | Instr.Glob g -> "@" ^ g
                | Instr.Arg i -> "arg" ^ string_of_int i
                | Instr.Reg r -> "%" ^ string_of_int r))
          vs)
    (Irmod.globals m);
  List.iter (fun f -> h := feed (feed !h f.Func.fname) (Printer.func_str f))
    (Irmod.functions m);
  to_hex !h
