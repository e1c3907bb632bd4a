(** The canonical loop abstraction (L, §2.2).

    L bundles the loop structure (LS) with the loop dependence graph
    (computed from the PDG), the SCCDAG and its augmented attributes, the
    loop's induction variables, invariants, and reductions.  Everything is
    computed lazily, preserving NOELLE's demand-driven cost model: a pass
    that only touches [ls] never pays for the dependence graph. *)

type t = {
  ls : Loopstructure.t;
  pdg : Pdg.t;
  ldg : Pdg.loop_dg Lazy.t;
  dag : Sccdag.t Lazy.t;
  ascc : Ascc.t Lazy.t;
  invariants : Invariants.t Lazy.t;
}

(** The loop [ls] of the loop nest [nest], over the function graph [pdg]. *)
let make (pdg : Pdg.t) (nest : Ir.Loopnest.t) (ls : Loopstructure.t) : t =
  let span name f = Ir.Trace.span ~cat:"analysis" name f in
  let ldg = lazy (span "loop.ldg" (fun () -> Pdg.loop_dg pdg nest ls.Loopstructure.raw)) in
  let dag = lazy (span "loop.sccdag" (fun () -> Sccdag.build (Lazy.force ldg))) in
  let ascc = lazy (span "loop.ascc" (fun () -> Ascc.build ls (Lazy.force dag))) in
  let invariants = lazy (Invariants.compute pdg ls) in
  { ls; pdg; ldg; dag; ascc; invariants }

let structure (t : t) = t.ls
let dep_graph (t : t) = Lazy.force t.ldg
let sccdag (t : t) = Lazy.force t.dag
let ascc (t : t) = Lazy.force t.ascc
let invariants (t : t) = Lazy.force t.invariants
let induction_variables (t : t) = (ascc t).Ascc.ivs
let reductions (t : t) = (ascc t).Ascc.reductions
let live_ins (t : t) = Pdg.live_ins t.pdg t.ls.Loopstructure.raw
let live_outs (t : t) = Pdg.live_outs t.pdg t.ls.Loopstructure.raw

(** Stable identifier for metadata and reporting. *)
let id (t : t) = Ir.Ids.loop_key t.ls.Loopstructure.f t.ls.Loopstructure.raw
