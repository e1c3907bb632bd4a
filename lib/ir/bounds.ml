(** Symbolic loop-bound and cost analysis — profile-free planning
    (DESIGN.md §13).

    [Bounds.analyze] computes, for every natural loop of a function and
    with no dynamic profile:

    - a {e trip bound}: how many times the loop header executes per loop
      invocation, as a symbolic affine expression over one loop-invariant
      symbol.  Exact for canonically counted loops (a constant-step header
      phi tested against an invariant bound, while or do-while); for
      everything else a Looper/Loopus-style difference-constraint
      abstraction derives per-iteration progress intervals
      ([x' <= x + c] joined over all paths through the body) and turns
      any exit test with guaranteed minimum progress into an upper bound.
      No SMT solver is involved: the local bounds come straight from
      instruction effects and the join is interval hull.
    - a {e cost polynomial}: straight-line instructions of the body times
      the trip bound, composed bottom-up over the loop forest so an inner
      symbolic bound multiplies into its parent's per-iteration cost.

    The lattice degrades conservatively, mirroring how Andersen budgets
    degrade: [Unbounded] is claimed only for structurally exitless loops,
    anything unproven is [Unknown], and either top poisons every cost that
    depends on it.  Trip bounds are the {e sound} artifact — the
    [noelle-gate --gate bounds] sweep checks interpreter-measured header
    counts against them — while cost polynomials are planning estimates (the
    divisor of a symbolic trip may be dropped, over-approximating by at
    most that factor, and clamps are not representable in a monomial). *)

module IntSet = Loopnest.IntSet

(* ------------------------------------------------------------------ *)
(* The symbolic trip lattice                                           *)
(* ------------------------------------------------------------------ *)

(** Symbolic count: [max slo (ceil ((snum * sv + soff) / sden))], with
    [sv = None] meaning the count is the constant
    [max slo (ceil (soff / sden))].  [sden > 0] always. *)
type sym = {
  sv : Instr.value option;  (** loop-invariant symbol ([None] = constant) *)
  snum : int64;             (** coefficient of [sv] *)
  soff : int64;             (** constant addend *)
  sden : int64;             (** positive divisor *)
  slo : int64;              (** clamp floor (0, or 1 for do-while shapes) *)
}

type trip =
  | Exact of sym      (** header executions per invocation, exactly *)
  | Upper of sym      (** sound upper bound *)
  | Unknown           (** exits exist but no bound was proven *)
  | Unbounded         (** structurally exitless: the loop cannot terminate *)

(** Per-iteration monotony of a header phi, from its progress interval. *)
type mono = Increasing | Decreasing | Steady | Unordered

(* ------------------------------------------------------------------ *)
(* Cost polynomials                                                    *)
(* ------------------------------------------------------------------ *)

type term = {
  coef : int64;
  vars : Instr.value list;  (** sorted; the monomial's symbols *)
}

type cost = Poly of term list | Cunknown | Cunbounded

type origin = Affine | Diffcon | Structural

type loop_bound = {
  lkey : string;              (** {!Ids.loop_key} *)
  lheader : int;
  ldepth : int;
  liters : trip;              (** body iterations per invocation *)
  lheadx : trip;              (** header executions per invocation (validated) *)
  lcost : cost;               (** instructions per invocation, estimate *)
  lmono : (int * mono) list;  (** header phi id -> monotony *)
  lorigin : origin;
}

type summary = {
  floops : loop_bound list;   (** innermost-first *)
  fcost : cost;               (** instructions per function call, estimate *)
}

(* ------------------------------------------------------------------ *)
(* Arithmetic helpers                                                  *)
(* ------------------------------------------------------------------ *)

(** Ceiling division for [b > 0] (Int64.div truncates toward zero). *)
let cdiv a b =
  let q = Int64.div a b and r = Int64.rem a b in
  if Int64.compare r 0L > 0 then Int64.add q 1L else q

let sym_const c = { sv = None; snum = 0L; soff = c; sden = 1L; slo = 0L }

(** Constant value of a symbol-free [sym]. *)
let sym_value (s : sym) : int64 option =
  match s.sv with
  | Some _ -> None
  | None -> Some (Int64.max s.slo (cdiv s.soff s.sden))

(** Constant value of a trip bound, when it has one. *)
let trip_const = function
  | Exact s | Upper s -> sym_value s
  | Unknown | Unbounded -> None

let trip_is_exact = function Exact _ -> true | _ -> false

(** [max 0 q + 1]: shifting the clamp floor along with the numerator keeps
    the representation exact ([max 1 (q + 1) = max 0 q + 1]). *)
let plus_one s =
  { s with soff = Int64.add s.soff s.sden; slo = Int64.max 1L s.slo }

let clamp_one s = { s with slo = Int64.max 1L s.slo }

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let value_to_string = function
  | Instr.Cint c -> Int64.to_string c
  | Instr.Cfloat x -> string_of_float x
  | Instr.Null -> "null"
  | Instr.Arg i -> Printf.sprintf "arg%d" i
  | Instr.Glob g -> "@" ^ g
  | Instr.Reg r -> Printf.sprintf "%%%d" r

let sym_to_string (s : sym) =
  match sym_value s with
  | Some c -> Int64.to_string c
  | None ->
    let v = match s.sv with Some v -> value_to_string v | None -> "?" in
    let core =
      if Int64.equal s.snum 1L then v
      else if Int64.equal s.snum (-1L) then "-" ^ v
      else Printf.sprintf "%Ld*%s" s.snum v
    in
    let num =
      if Int64.equal s.soff 0L then core
      else if Int64.compare s.soff 0L > 0 then Printf.sprintf "%s + %Ld" core s.soff
      else Printf.sprintf "%s - %Ld" core (Int64.neg s.soff)
    in
    let q =
      if Int64.equal s.sden 1L then num
      else Printf.sprintf "ceil((%s)/%Ld)" num s.sden
    in
    Printf.sprintf "max(%Ld, %s)" s.slo q

let trip_to_string = function
  | Exact s -> sym_to_string s
  | Upper s -> "<= " ^ sym_to_string s
  | Unknown -> "unknown"
  | Unbounded -> "unbounded"

(* ------------------------------------------------------------------ *)
(* Polynomial arithmetic                                               *)
(* ------------------------------------------------------------------ *)

let norm_terms ts =
  ts
  |> List.filter (fun t -> not (Int64.equal t.coef 0L))
  |> List.map (fun t -> { t with vars = List.sort compare t.vars })
  |> List.sort (fun a b -> compare a.vars b.vars)
  |> List.fold_left
       (fun acc t ->
         match acc with
         | t0 :: rest when t0.vars = t.vars ->
           { t0 with coef = Int64.add t0.coef t.coef } :: rest
         | _ -> t :: acc)
       []
  |> List.filter (fun t -> not (Int64.equal t.coef 0L))
  |> List.rev

let pconst c = Poly (norm_terms [ { coef = c; vars = [] } ])

let cost_add a b =
  match (a, b) with
  | Cunbounded, _ | _, Cunbounded -> Cunbounded
  | Cunknown, _ | _, Cunknown -> Cunknown
  | Poly x, Poly y -> Poly (norm_terms (x @ y))

(** Multiply a polynomial by a symbolic trip count.  When the divisor does
    not divide out it is dropped (over-approximates by at most [sden]);
    the clamp floor is likewise not representable — cost is an estimate. *)
let mul_sym ts (s : sym) =
  match s.sv with
  | None ->
    let k = Int64.max s.slo (cdiv s.soff s.sden) in
    norm_terms (List.map (fun t -> { t with coef = Int64.mul t.coef k }) ts)
  | Some v ->
    let num, off =
      if
        Int64.equal (Int64.rem s.snum s.sden) 0L
        && Int64.equal (Int64.rem s.soff s.sden) 0L
      then (Int64.div s.snum s.sden, Int64.div s.soff s.sden)
      else (s.snum, s.soff)
    in
    norm_terms
      (List.concat_map
         (fun t ->
           [
             { coef = Int64.mul t.coef num; vars = v :: t.vars };
             { coef = Int64.mul t.coef off; vars = t.vars };
           ])
         ts)

let cost_mul_trip c trip =
  match (c, trip) with
  | Cunbounded, _ | _, Unbounded -> Cunbounded
  | Cunknown, _ | _, Unknown -> Cunknown
  | Poly ts, (Exact s | Upper s) -> Poly (mul_sym ts s)

(** Constant value of a symbol-free cost polynomial. *)
let cost_const = function
  | Poly ts when List.for_all (fun t -> t.vars = []) ts ->
    Some (List.fold_left (fun acc t -> Int64.add acc t.coef) 0L ts)
  | _ -> None

let term_to_string t =
  match t.vars with
  | [] -> Int64.to_string t.coef
  | vs ->
    let m = String.concat "*" (List.map value_to_string vs) in
    if Int64.equal t.coef 1L then m else Printf.sprintf "%Ld*%s" t.coef m

let cost_to_string = function
  | Cunknown -> "unknown"
  | Cunbounded -> "unbounded"
  | Poly [] -> "0"
  | Poly ts -> String.concat " + " (List.map term_to_string ts)

(* ------------------------------------------------------------------ *)
(* Exact trip counts for counted loops                                 *)
(* ------------------------------------------------------------------ *)

let header_phis (f : Func.t) (l : Loopnest.loop) =
  List.filter
    (fun (i : Instr.inst) ->
      match i.Instr.op with Instr.Phi _ -> true | _ -> false)
    (Func.insts_of_block f l.Loopnest.header)

(** A counted recurrence: start from outside, [phi + step] from inside. *)
type counted = {
  cphi : Instr.inst;
  cstart : Instr.value;
  cstep : int64;          (** nonzero *)
  cupdate : int;          (** register id of the update instruction *)
}

let counted_phi (f : Func.t) (l : Loopnest.loop) (phi : Instr.inst) :
    counted option =
  match phi.Instr.op with
  | Instr.Phi incs -> (
    let outside, inside =
      List.partition (fun (p, _) -> not (Loopnest.contains l p)) incs
    in
    match (outside, inside) with
    | [ (_, start) ], [ (_, Instr.Reg u) ] -> (
      match Func.inst_opt f u with
      | Some ui when Loopnest.contains l ui.Instr.parent -> (
        let self v = Instr.value_equal v (Instr.Reg phi.Instr.id) in
        let mk step =
          if Int64.equal step 0L then None
          else Some { cphi = phi; cstart = start; cstep = step; cupdate = u }
        in
        match ui.Instr.op with
        | Instr.Bin (Instr.Add, a, Instr.Cint c) when self a -> mk c
        | Instr.Bin (Instr.Add, Instr.Cint c, a) when self a -> mk c
        | Instr.Bin (Instr.Sub, a, Instr.Cint c) when self a -> mk (Int64.neg c)
        | _ -> None)
      | _ -> None)
    | _ -> None)
  | _ -> None

(** Which value of a counted recurrence an exit compare reads. *)
type tested = Phi | Update

(** An exit edge's test, read with the recurrence on the left: the loop
    goes on while [tested cont bound]. *)
type exit_test = {
  tested : tested;
  cont : Instr.cmp;       (** continue predicate *)
  bound : Instr.value;    (** loop-invariant *)
}

(** The one reader of loop exit compares: exit edge [(src, dst)] of [l]
    as [(x, cont, bound)], the loop going on while [x cont bound], for a
    loop-invariant [bound] on either side of [src]'s branch compare. *)
let exit_compare (f : Func.t) (l : Loopnest.loop) (src, dst) :
    (Instr.value * Instr.cmp * Instr.value) option =
  match Func.terminator f src with
  | Some { Instr.op = Instr.Cbr (Instr.Reg c, tdst, fdst); _ } when tdst <> fdst -> (
    let read p x bound = Some (x, (if tdst = dst then Instr.negate_cmp p else p), bound) in
    match Func.inst_opt f c with
    | Some { Instr.op = Instr.Icmp (pred, a, b); _ } ->
      if Scev.is_invariant_value f l b then read pred a b
      else if Scev.is_invariant_value f l a then read (Instr.swap_cmp pred) b a
      else None
    | _ -> None)
  | _ -> None

(** The {!exit_compare} of exit edge [e] when it tests header phi [phi]
    or its update [update] (register ids). *)
let exit_test (f : Func.t) (l : Loopnest.loop) ~phi ~update e : exit_test option =
  match exit_compare f l e with
  | Some (Instr.Reg r, cont, bound) when r = phi -> Some { tested = Phi; cont; bound }
  | Some (Instr.Reg r, cont, bound) when r = update -> Some { tested = Update; cont; bound }
  | _ -> None

(** Number of [k >= 0] with [cont (start + k*step, bnd)], the continue
    region being a prefix in [k].  At most one of start/bound may be
    symbolic (the single-symbol restriction of {!sym}). *)
let count_sym (f : Func.t) (l : Loopnest.loop) ~(start : Instr.value)
    ~(step : int64) ~(cont : Instr.cmp) ~(bnd : Instr.value) : sym option =
  let invariant v =
    match v with
    | Instr.Cint _ -> false (* handled by the constant cases *)
    | v -> Scev.is_invariant_value f l v
  in
  let adj = match cont with Instr.Sle | Instr.Sge -> 1L | _ -> 0L in
  let up = Int64.compare step 0L > 0 in
  match (cont, up, start, bnd) with
  | (Instr.Slt | Instr.Sle), true, Instr.Cint s, Instr.Cint b ->
    Some { sv = None; snum = 0L; soff = Int64.add (Int64.sub b s) adj;
           sden = step; slo = 0L }
  | (Instr.Slt | Instr.Sle), true, Instr.Cint s, v when invariant v ->
    Some { sv = Some v; snum = 1L; soff = Int64.add (Int64.neg s) adj;
           sden = step; slo = 0L }
  | (Instr.Slt | Instr.Sle), true, v, Instr.Cint b when invariant v ->
    Some { sv = Some v; snum = -1L; soff = Int64.add b adj;
           sden = step; slo = 0L }
  | (Instr.Sgt | Instr.Sge), false, Instr.Cint s, Instr.Cint b ->
    Some { sv = None; snum = 0L; soff = Int64.add (Int64.sub s b) adj;
           sden = Int64.neg step; slo = 0L }
  | (Instr.Sgt | Instr.Sge), false, Instr.Cint s, v when invariant v ->
    Some { sv = Some v; snum = -1L; soff = Int64.add s adj;
           sden = Int64.neg step; slo = 0L }
  | (Instr.Sgt | Instr.Sge), false, v, Instr.Cint b when invariant v ->
    Some { sv = Some v; snum = 1L; soff = Int64.add (Int64.neg b) adj;
           sden = Int64.neg step; slo = 0L }
  | Instr.Ne, _, Instr.Cint s, Instr.Cint b ->
    (* terminates iff the iteration lattice hits the bound exactly *)
    let diff = if up then Int64.sub b s else Int64.sub s b in
    let st = Int64.abs step in
    if Int64.compare diff 0L >= 0 && Int64.equal (Int64.rem diff st) 0L then
      Some (sym_const (Int64.div diff st))
    else None
  | Instr.Eq, _, Instr.Cint s, Instr.Cint b ->
    (* continue while phi = bnd: one body at most (a nonzero step leaves) *)
    Some (sym_const (if Int64.equal s b then 1L else 0L))
  | _ -> None

(** Exact [(body iterations, header executions)] for canonically counted
    loops: a single exit edge leaving from the header or the unique latch,
    whose {!exit_test} reads a counted header phi (or its update). *)
let exact_trips (f : Func.t) (l : Loopnest.loop) : (trip * trip) option =
  match Loopnest.exit_edges f l with
  | [ ((eb, _) as e) ]
    when eb = l.Loopnest.header || l.Loopnest.latches = [ eb ] -> (
    let cand =
      List.find_map
        (fun phi ->
          Option.bind (counted_phi f l phi) (fun g ->
              Option.map (fun t -> (g, t))
                (exit_test f l ~phi:phi.Instr.id ~update:g.cupdate e)))
        (header_phis f l)
    in
    match cand with
    | None -> None
    | Some (g, { tested; cont; bound = bnd }) -> (
      match count_sym f l ~start:g.cstart ~step:g.cstep ~cont ~bnd with
      | None -> None
      | Some q -> (
        let latch_test = List.mem eb l.Loopnest.latches in
        match (latch_test, tested) with
        | false, Phi ->
          (* while-shape: q bodies, q+1 header executions *)
          Some (Exact q, Exact (plus_one q))
        | true, Phi ->
          (* do-while testing the pre-update value: q+1 bodies *)
          Some (Exact (plus_one q), Exact (plus_one q))
        | true, Update -> (
          (* do-while testing the updated value: one body, then the
             count from start + step.  That is max(1, q) for an
             ordered test, but not for [eq]/[ne]: a [ne] loop that
             starts on its bound never meets it again *)
          match (cont, g.cstart) with
          | (Instr.Eq | Instr.Ne), Instr.Cint s ->
            Option.map
              (fun q1 -> (Exact (plus_one q1), Exact (plus_one q1)))
              (count_sym f l ~start:(Instr.Cint (Int64.add s g.cstep))
                 ~step:g.cstep ~cont ~bnd)
          | _ -> Some (Exact (clamp_one q), Exact (clamp_one q)))
        | false, Update ->
          (* rotated form: leave to the difference-constraint path *)
          None)))
  | _ -> None

(** Inclusive range of the values counted header phi [phi] of [l] takes
    while the body runs: [start + k*step] for each of the loop's body
    iterations [k], when the start is a constant and {!exact_trips} gives a
    constant, nonzero body count.  Exact, not an over-approximation, so a
    definite-error verdict (oob-gep) may rest on it.  The header of a
    while-shaped loop also sees the exit value, and code after the loop
    sees only that: the range holds inside the body. *)
let phi_range (f : Func.t) (l : Loopnest.loop) (phi : Instr.inst) :
    (int64 * int64) option =
  match (counted_phi f l phi, exact_trips f l) with
  | Some { cstart = Instr.Cint s; cstep; _ }, Some (Exact q, _) -> (
    match sym_value q with
    | Some n when Int64.compare n 0L > 0 ->
      let last = Int64.add s (Int64.mul (Int64.pred n) cstep) in
      Some (Int64.min s last, Int64.max s last)
    | _ -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Difference-constraint upper bounds (Looper/Loopus style)            *)
(* ------------------------------------------------------------------ *)

let hull a b =
  match (a, b) with
  | Some (l1, h1), Some (l2, h2) -> Some (Int64.min l1 l2, Int64.max h1 h2)
  | _ -> None

(** Interval of [v - (value of header phi [pid] at iteration start)],
    tracking constant increments through adds/subs and joining at body
    phis and selects — the [x' <= x + c] local bounds of the abstraction.
    [None] is top (reset to an invariant, a cycle, or an unmodelled op). *)
let rec delta_of (f : Func.t) (l : Loopnest.loop) ~pid visited
    (v : Instr.value) : (int64 * int64) option =
  match v with
  | Instr.Reg r when r = pid -> Some (0L, 0L)
  | Instr.Reg r when not (IntSet.mem r visited) -> (
    match Func.inst_opt f r with
    | Some i when Loopnest.contains l i.Instr.parent -> (
      let visited = IntSet.add r visited in
      let recur = delta_of f l ~pid visited in
      let shift c d =
        Option.map (fun (lo, hi) -> (Int64.add lo c, Int64.add hi c)) d
      in
      match i.Instr.op with
      | Instr.Bin (Instr.Add, a, Instr.Cint c) -> shift c (recur a)
      | Instr.Bin (Instr.Add, Instr.Cint c, a) -> shift c (recur a)
      | Instr.Bin (Instr.Sub, a, Instr.Cint c) -> shift (Int64.neg c) (recur a)
      | Instr.Phi incs
        when List.for_all (fun (p, _) -> Loopnest.contains l p) incs -> (
        match incs with
        | [] -> None
        | (_, v0) :: rest ->
          List.fold_left
            (fun acc (_, vi) -> hull acc (recur vi))
            (recur v0) rest)
      | Instr.Select (_, a, b) -> hull (recur a) (recur b)
      | _ -> None)
    | _ -> None)
  | _ -> None

(** Per-iteration progress interval of header phi [phi]: the hull of the
    deltas its latch-incoming values carry relative to its own value at
    the top of the iteration. *)
let phi_delta (f : Func.t) (l : Loopnest.loop) (phi : Instr.inst) :
    (int64 * int64) option =
  match phi.Instr.op with
  | Instr.Phi incs -> (
    let inside =
      List.filter (fun (p, _) -> Loopnest.contains l p) incs
    in
    match inside with
    | [] -> None
    | (_, v0) :: rest ->
      let d0 = delta_of f l ~pid:phi.Instr.id IntSet.empty v0 in
      List.fold_left
        (fun acc (_, vi) ->
          hull acc (delta_of f l ~pid:phi.Instr.id IntSet.empty vi))
        d0 rest)
  | _ -> None

let mono_of = function
  | None -> Unordered
  | Some (lo, hi) ->
    if Int64.equal lo 0L && Int64.equal hi 0L then Steady
    else if Int64.compare lo 0L >= 0 then Increasing
    else if Int64.compare hi 0L <= 0 then Decreasing
    else Unordered

(** Sound upper bound on body iterations from one exit test: the tested
    value must be affine in a header phi with a guaranteed minimum
    progress toward the exit every iteration, and the exit block must
    dominate every latch (so the test runs once per completed
    iteration). *)
let diffcon_exit_bound (f : Func.t) (l : Loopnest.loop)
    ~(deltas : (Instr.inst * (int64 * int64) option) list) (dom : Dom.t)
    ((eb, _) as e) : sym option =
  if
    not
      (List.for_all (fun la -> Dom.dominates dom eb la) l.Loopnest.latches)
  then None
  else
    match exit_compare f l e with
    | Some (xv, cont, bnd) ->
      List.find_map
        (fun ((phi : Instr.inst), delta) ->
          match delta with
          | None -> None
          | Some (dlo, dhi) -> (
            match Scev.affine_of f l ~iv_phi:phi.Instr.id xv with
            | Some { Scev.base = None; scale; offset }
              when not (Int64.equal scale 0L) -> (
              (* tested value y = scale*phi + offset; its per-iteration
                 progress interval is scale * [dlo, dhi] *)
              let ylo, yhi =
                if Int64.compare scale 0L > 0 then
                  (Int64.mul scale dlo, Int64.mul scale dhi)
                else (Int64.mul scale dhi, Int64.mul scale dlo)
              in
              (* start of phi (outside incoming) *)
              let start =
                match phi.Instr.op with
                | Instr.Phi incs ->
                  List.find_map
                    (fun (p, v) ->
                      if Loopnest.contains l p then None else Some v)
                    incs
                | _ -> None
              in
              match start with
              | None -> None
              | Some start -> (
                let adj =
                  match cont with
                  | Instr.Sle | Instr.Sge -> 1L
                  | _ -> 0L
                in
                let upward =
                  match cont with
                  | Instr.Slt | Instr.Sle -> true
                  | Instr.Sgt | Instr.Sge -> false
                  | _ -> raise Exit
                in
                let dmin =
                  if upward then ylo else Int64.neg yhi
                in
                if Int64.compare dmin 1L < 0 then None
                else
                  (* continue holds at most
                     ceil((bnd + adj - y0) / dmin) times going up,
                     ceil((y0 - bnd + adj) / dmin) going down *)
                  match (start, bnd) with
                  | Instr.Cint s, Instr.Cint b ->
                    let y0 =
                      Int64.add (Int64.mul scale s) offset
                    in
                    let numer =
                      if upward then Int64.add (Int64.sub b y0) adj
                      else Int64.add (Int64.sub y0 b) adj
                    in
                    Some { sv = None; snum = 0L; soff = numer;
                           sden = dmin; slo = 0L }
                  | Instr.Cint s, v when Scev.is_invariant_value f l v ->
                    let y0 = Int64.add (Int64.mul scale s) offset in
                    if upward then
                      Some { sv = Some v; snum = 1L;
                             soff = Int64.add (Int64.neg y0) adj;
                             sden = dmin; slo = 0L }
                    else
                      Some { sv = Some v; snum = -1L;
                             soff = Int64.add y0 adj;
                             sden = dmin; slo = 0L }
                  | v, Instr.Cint b when Scev.is_invariant_value f l v ->
                    (* y0 = scale*v + offset *)
                    if upward then
                      Some { sv = Some v; snum = Int64.neg scale;
                             soff = Int64.add (Int64.sub b offset) adj;
                             sden = dmin; slo = 0L }
                    else
                      Some { sv = Some v; snum = scale;
                             soff = Int64.add (Int64.sub offset b) adj;
                             sden = dmin; slo = 0L }
                  | _ -> None))
            | _ -> None))
        deltas
    | None -> None

(** Difference-constraint upper bound over all exit edges: smallest
    constant candidate wins, else the first symbolic one. *)
let diffcon_trips (f : Func.t) (l : Loopnest.loop)
    ~(deltas : (Instr.inst * (int64 * int64) option) list) (dom : Dom.t) :
    (trip * trip) option =
  (* one edge per exiting block: its branch has one target outside *)
  let exits =
    Loopnest.exit_edges f l |> List.sort_uniq (fun (a, _) (b, _) -> compare a b)
  in
  let cands =
    List.filter_map
      (fun e -> try diffcon_exit_bound f l ~deltas dom e with Exit -> None)
      exits
  in
  let best =
    List.fold_left
      (fun acc s ->
        match acc with
        | None -> Some s
        | Some s0 -> (
          match (sym_value s0, sym_value s) with
          | Some a, Some b when Int64.compare b a < 0 -> Some s
          | None, Some _ -> Some s
          | _ -> acc))
      None cands
  in
  match best with
  | None -> None
  | Some u ->
    (* the test may run after the body (do-while) and the last, partial
       iteration still executes the header: body <= u+1, header <= u+2 *)
    Some (Upper (plus_one u), Upper (plus_one (plus_one u)))

(* ------------------------------------------------------------------ *)
(* The analysis                                                        *)
(* ------------------------------------------------------------------ *)

let counters =
  [
    "bounds.queries"; "bounds.loops"; "bounds.loops_exact";
    "bounds.loops_upper"; "bounds.loops_unknown"; "bounds.loops_unbounded";
    "bounds.diffcon_loops";
  ]

(** Analyze every loop of [f] bottom-up over the loop forest. *)
let analyze (f : Func.t) : summary =
  Trace.span ~cat:"analysis" ("bounds:" ^ f.Func.fname) @@ fun () ->
  List.iter Trace.touch counters;
  Trace.incr_m "bounds.queries";
  let nest = Loopnest.compute f in
  let dom = lazy (Dom.compute f) in
  let by_header : (int, loop_bound) Hashtbl.t = Hashtbl.create 8 in
  let loops = Loopnest.innermost_first nest in
  List.iter
    (fun (l : Loopnest.loop) ->
      Trace.incr_m "bounds.loops";
      let deltas =
        List.map (fun phi -> (phi, phi_delta f l phi)) (header_phis f l)
      in
      let liters, lheadx, lorigin =
        if Loopnest.exit_edges f l = [] then
          (Unbounded, Unbounded, Structural)
        else
          match exact_trips f l with
          | Some (it, hx) -> (it, hx, Affine)
          | None -> (
            Trace.incr_m "bounds.diffcon_loops";
            match diffcon_trips f l ~deltas (Lazy.force dom) with
            | Some (it, hx) -> (it, hx, Diffcon)
            | None -> (Unknown, Unknown, Diffcon))
      in
      (match lheadx with
      | Exact _ -> Trace.incr_m "bounds.loops_exact"
      | Upper _ -> Trace.incr_m "bounds.loops_upper"
      | Unknown -> Trace.incr_m "bounds.loops_unknown"
      | Unbounded -> Trace.incr_m "bounds.loops_unbounded");
      (* per-iteration cost: instructions exclusive to this loop plus the
         full cost of each direct child (entered at most once per
         iteration in a reducible CFG) *)
      let child_blocks =
        List.fold_left
          (fun acc (c : Loopnest.loop) -> IntSet.union acc c.Loopnest.blocks)
          IntSet.empty l.Loopnest.children
      in
      let own =
        IntSet.fold
          (fun b acc ->
            if IntSet.mem b child_blocks then acc
            else acc + List.length (Func.block f b).Func.insts)
          l.Loopnest.blocks 0
      in
      let itercost =
        List.fold_left
          (fun acc (c : Loopnest.loop) ->
            cost_add acc (Hashtbl.find by_header c.Loopnest.header).lcost)
          (pconst (Int64.of_int own))
          l.Loopnest.children
      in
      let lcost = cost_mul_trip itercost liters in
      Hashtbl.replace by_header l.Loopnest.header
        {
          lkey = Ids.loop_key f l;
          lheader = l.Loopnest.header;
          ldepth = l.Loopnest.depth;
          liters;
          lheadx;
          lcost;
          lmono =
            List.map (fun (phi, d) -> (phi.Instr.id, mono_of d)) deltas;
          lorigin;
        })
    loops;
  let straight =
    List.fold_left
      (fun acc b ->
        if Hashtbl.mem nest.Loopnest.block_loop b then acc
        else acc + List.length (Func.block f b).Func.insts)
      0 (Func.blocks f)
  in
  let fcost =
    List.fold_left
      (fun acc (l : Loopnest.loop) ->
        cost_add acc (Hashtbl.find by_header l.Loopnest.header).lcost)
      (pconst (Int64.of_int straight))
      (List.filter (fun l -> l.Loopnest.parent = None) nest.Loopnest.loops)
  in
  {
    floops =
      List.map (fun l -> Hashtbl.find by_header l.Loopnest.header) loops;
    fcost;
  }

(** The bound of the loop headed at [header], if analyzed. *)
let find (s : summary) ~header =
  List.find_opt (fun lb -> lb.lheader = header) s.floops

(** Canonical textual payload of a summary — the serialization the serve
    layer's artifact store persists (DESIGN.md §14).  One sorted line per
    loop (key, depth, body trips, header executions, cost, origin) plus a
    final function-cost line; byte-identical across recomputations of the
    same code. *)
let summary_payload (s : summary) : string =
  let lines =
    List.map
      (fun lb ->
        Printf.sprintf "loop %s %d %s | %s | %s [%s]" lb.lkey lb.ldepth
          (trip_to_string lb.liters) (trip_to_string lb.lheadx)
          (cost_to_string lb.lcost)
          (match lb.lorigin with
          | Affine -> "affine"
          | Diffcon -> "diffcon"
          | Structural -> "structural"))
      s.floops
    |> List.sort String.compare
  in
  String.concat "\n" (lines @ [ "fcost " ^ cost_to_string s.fcost ])
