(** Driver layer for noelle-check: the glue the pipeline gate needs on top
    of {!Noelle.Check}, the static side (diagnostics composed from the PDG,
    DFE, Andersen, and SCEV).  The dynamic side that keeps the static
    checkers honest, an interpreter-backed sanitizer, is a test oracle and
    lives in [test/sanitizer_oracle.ml]. *)

open Ir
module Check = Noelle.Check

(** Loop-skip predicate for the parallelizers: flag every loop the static
    race detector reports a loop-carried memory dependence for, so
    DOALL/HELIX/DSWP refuse it up front instead of relying on the
    transactional rollback to catch the damage. *)
let race_gate (m : Irmod.t) : string -> bool =
  let flagged = Check.race_flagged_loops m in
  fun loop_id -> Hashtbl.mem flagged loop_id
