(** Profile-free parallelization planning (DESIGN.md §13).

    The planner answers, per loop, the two questions the parallelizing
    stack otherwise answers with a dynamic profile: {e which technique}
    would transform this loop (DOALL, then HELIX, then DSWP — the same
    precedence the standard pass stack applies), and {e how many tasks}
    to spawn.  [decide_profiled] answers them the classic way, through
    {!Parutil.profitable} over embedded profile metadata;
    [decide_static] answers them from {!Bounds} symbolic trip counts and
    cost polynomials alone.  Running both over a pristine module is the
    head-to-head the bench harness and [noelle-gate --gate bounds]
    report: the gate's bar is agreement on at least 80% of corpus loops
    with a Psim speedup delta within 10% geomean. *)

open Ir
open Noelle

type technique =
  | Vec_t of int          (** vectorize with lane-group factor W *)
  | Doall_t
  | Helix_t
  | Dswp_t
  | Sequential of string  (** why no technique applies *)

type decision = {
  pd_loop : string;         (** {!Ids.loop_key} *)
  pd_tech : technique;
  pd_chunk : int;           (** tasks to spawn (DOALL width) *)
  pd_planned : bool;        (** did the selection gate admit the loop? *)
}

let technique_to_string = function
  | Vec_t w -> Printf.sprintf "VEC(W=%d)" w
  | Doall_t -> "DOALL"
  | Helix_t -> "HELIX"
  | Dswp_t -> "DSWP"
  | Sequential why -> "sequential (" ^ why ^ ")"

(** Which technique the standard stack would commit on [lp], ignoring
    profitability: the plan constructors are pure analyses, so probing
    them mutates nothing. *)
let technique_of (n : Noelle.t) (m : Irmod.t) (f : Func.t) (lp : Loop.t) :
    technique =
  match Parutil.candidate_of n f lp with
  | Error e -> Sequential e
  | Ok c -> (
    match Doall.plan_of c with
    | Ok _ -> Doall_t
    | Error _ -> (
      match Helix.plan_of c with
      | Ok _ -> Helix_t
      | Error _ -> (
        match Dswp.plan_of m c ~max_stages:3 with
        | Ok _ -> Dswp_t
        | Error e -> Sequential e)))

(** The profile-driven decision: technique from the plan constructors,
    gate from {!Parutil.profitable}, full [ncores] chunk. *)
let decide_profiled (n : Noelle.t) (m : Irmod.t) (f : Func.t) (lp : Loop.t)
    ~ncores ~min_hotness ~min_work : decision =
  let planned =
    Parutil.profitable m (Loop.structure lp) ~min_hotness ~min_work
  in
  {
    pd_loop = Loop.id lp;
    pd_tech =
      (if planned then technique_of n m f lp
       else Sequential "below profile thresholds");
    pd_chunk = ncores;
    pd_planned = planned;
  }

(** The vec arm of the profile-free decision: probe the vectorizer's
    legality plan, then let the {!Psim.Models} SIMD model (fed the
    {!Bounds} trip count) pick W and arbitrate vectorize-vs-parallelize.
    [None] means "leave it to the parallelizers". *)
let vec_probe (n : Noelle.t) (f : Func.t) (lp : Loop.t) ~ncores : int option =
  match Parutil.candidate_of n f lp with
  | Error _ -> None
  | Ok c -> (
    match Vec.plan_of c with
    | Error _ -> None
    | Ok plan ->
      let a = Vec.appraise n c plan ~ncores () in
      let too_small = match a.Vec.a_trip with Some t -> t < 4 | None -> false in
      let doall_beats =
        Result.is_ok (Doall.plan_of c) && a.Vec.a_doall_time < a.Vec.a_vec_time
      in
      if too_small || doall_beats then None else Some a.Vec.a_width)

(** The profile-free decision: gate from {!Parutil.profitable_static},
    DOALL chunk clamped by the static trip bound.  With [vec] set the
    vectorizer arm runs first, mirroring the [--vec] pass stack. *)
let decide_static ?(vec = false) (n : Noelle.t) (m : Irmod.t) (f : Func.t)
    (lp : Loop.t) ~ncores ~min_work : decision =
  let ls = Loop.structure lp in
  let planned = Parutil.profitable_static n f ls ~min_work in
  let tech =
    if not planned then Sequential "below static work bound"
    else
      match (if vec then vec_probe n f lp ~ncores else None) with
      | Some w -> Vec_t w
      | None -> technique_of n m f lp
  in
  {
    pd_loop = Loop.id lp;
    pd_tech = tech;
    pd_chunk =
      (match tech with
      | Doall_t -> Parutil.static_chunk n f ls ~ncores
      | Vec_t w -> w
      | _ -> ncores);
    pd_planned = planned;
  }

(** Do two decisions pick the same technique?  (Two [Sequential]s agree
    regardless of the stated reason.)  A DOALL chunk clamped below the
    profiled arm's width is not a disagreement — the static bound proves
    the extra tasks would be idle — so chunk deltas are reported
    separately by the consumers, not folded into this predicate. *)
let agree (a : decision) (b : decision) =
  match (a.pd_tech, b.pd_tech) with
  | Sequential _, Sequential _ -> true
  | ta, tb -> ta = tb

(** Both decisions for every loop of the pristine module, paired:
    [(loop id, profiled, static)].  The module is not mutated. *)
let head_to_head (n : Noelle.t) (m : Irmod.t) ~ncores ~min_hotness ~min_work :
    (string * decision * decision) list =
  Noelle.set_tool n "PLANNER";
  List.concat_map
    (fun (f : Func.t) ->
      if String.contains f.Func.fname '.' then []
      else
        List.map
          (fun lp ->
            ( Loop.id lp,
              decide_profiled n m f lp ~ncores ~min_hotness ~min_work,
              decide_static n m f lp ~ncores ~min_work ))
          (Noelle.loops n f))
    (Irmod.defined_functions m)
