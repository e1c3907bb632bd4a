(** Deterministic IDs for IR entities (§2.2 "Other abstractions").

    NOELLE attaches deterministic identifiers to instructions, basic blocks,
    loops, and functions so that analysis results embedded as metadata (the
    PDG, profiles) can be re-associated after the IR file is written and
    re-read.  In this IR, instruction ids and block labels are already
    stable across print/parse round trips ({!Parser}), so instructions and
    blocks are keyed by their ids and labels; this module defines the
    string key of a loop used in metadata. *)

(** Loops are identified by function plus header label, which is stable. *)
let loop_key (f : Func.t) (l : Loopnest.loop) =
  Printf.sprintf "%s.%s" f.Func.fname (Func.block f l.Loopnest.header).Func.label
