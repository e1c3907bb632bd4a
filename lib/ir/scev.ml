(** Scalar evolution (affine form relative to a loop phi).

    NOELLE ships its own scalar-evolution abstraction (§2.2 "Other
    abstractions") because LLVM's is tied to function-pass lifetimes.  We
    provide affine forms [base + scale*phi + offset] where [base] is a value
    invariant in the loop and [phi] is a chosen header phi (usually the
    governing induction variable).  The PDG loop refinement uses this to
    classify memory dependences as intra-iteration (distance 0) rather than
    loop-carried, which is what makes DOALL applicable to array kernels. *)

type affine = {
  base : Instr.value option;  (** invariant symbolic base ([None] = 0) *)
  scale : int64;              (** multiplier of the reference phi *)
  offset : int64;             (** constant addend *)
}

let const c = { base = None; scale = 0L; offset = c }

(** Is [v] invariant with respect to loop [l] in [f] (defined outside the
    loop, a constant, an argument, or a global address)? *)
let is_invariant_value (f : Func.t) (l : Loopnest.loop) (v : Instr.value) =
  match v with
  | Instr.Cint _ | Instr.Cfloat _ | Instr.Null | Instr.Arg _ | Instr.Glob _ -> true
  | Instr.Reg r -> (
    match Func.inst_opt f r with
    | Some i -> not (Loopnest.contains l i.Instr.parent)
    | None -> false)

(** Affine form of integer/pointer value [v] with respect to [iv_phi] (the
    id of a header phi of [l]).  [None] when not affine. *)
let rec affine_of_rec (f : Func.t) (l : Loopnest.loop) ~(iv_phi : int) (v : Instr.value) :
    affine option =
  match v with
  | Instr.Cint c -> Some (const c)
  | Instr.Null -> Some (const 0L)
  | _ when is_invariant_value f l v -> Some { base = Some v; scale = 0L; offset = 0L }
  | Instr.Reg r when r = iv_phi -> Some { base = None; scale = 1L; offset = 0L }
  | Instr.Reg r -> (
    match Func.inst_opt f r with
    | None -> None
    | Some i -> (
      let recur = affine_of_rec f l ~iv_phi in
      match i.Instr.op with
      | Instr.Bin (Instr.Add, a, b) -> (
        match (recur a, recur b) with
        | Some x, Some y when x.base = None || y.base = None ->
          Some
            {
              base = (if x.base = None then y.base else x.base);
              scale = Int64.add x.scale y.scale;
              offset = Int64.add x.offset y.offset;
            }
        | _ -> None)
      | Instr.Bin (Instr.Sub, a, b) -> (
        match (recur a, recur b) with
        | Some x, Some y when y.base = None ->
          Some
            {
              base = x.base;
              scale = Int64.sub x.scale y.scale;
              offset = Int64.sub x.offset y.offset;
            }
        | _ -> None)
      | Instr.Bin (Instr.Mul, a, b) -> (
        match (recur a, recur b) with
        | Some x, Some { base = None; scale = 0L; offset = c }
          when x.base = None ->
          Some { base = None; scale = Int64.mul x.scale c; offset = Int64.mul x.offset c }
        | Some { base = None; scale = 0L; offset = c }, Some y when y.base = None ->
          Some { base = None; scale = Int64.mul y.scale c; offset = Int64.mul y.offset c }
        | _ -> None)
      | Instr.Bin (Instr.Shl, a, Instr.Cint c) when c >= 0L && c < 62L -> (
        match recur a with
        | Some x when x.base = None ->
          let m = Int64.shift_left 1L (Int64.to_int c) in
          Some { base = None; scale = Int64.mul x.scale m; offset = Int64.mul x.offset m }
        | _ -> None)
      | Instr.Gep (p, idx) -> (
        match (recur p, recur idx) with
        | Some x, Some y when y.base = None ->
          Some
            {
              base = x.base;
              scale = Int64.add x.scale y.scale;
              offset = Int64.add x.offset y.offset;
            }
        | _ -> None)
      | _ -> None))
  | _ -> None

(* solver-loop telemetry: queries count top-level requests, not the
   recursion inside one *)
let affine_of f l ~iv_phi v =
  Trace.incr_m "scev.queries";
  affine_of_rec f l ~iv_phi v

(* ------------------------------------------------------------------ *)
(* Multivariate affine forms: base + Σ coeff_k * phi_k + offset        *)
(* ------------------------------------------------------------------ *)

(** Polynomial (multivariate affine) address form over a set of symbol
    phis.  Needed to disambiguate the outer loop of nested kernels:
    [c[i*N + j]] is not affine in [i] alone, but is affine in [{i, j}]
    with the inner phi [j]'s value span bounded by its range while its own
    loop's body runs ({!Bounds.phi_range}). *)
type poly = {
  pbase : (Instr.value * int64) list;
      (** linear combination of invariant symbolic values (e.g. a pointer
          argument plus 200 x a row index), kept sorted so equality is
          structural *)
  terms : (int * int64) list;    (** (phi id, coefficient), sorted by id *)
  poffset : int64;
}

let poly_const c = { pbase = []; terms = []; poffset = c }

(** Merge two base combinations, adding coefficients of equal values. *)
let merge_bases b1 b2 =
  List.sort compare (b1 @ b2)
  |> List.fold_left
       (fun acc (v, c) ->
         match acc with
         | (v0, c0) :: rest when Instr.value_equal v v0 -> (v0, Int64.add c0 c) :: rest
         | _ -> (v, c) :: acc)
       []
  |> List.filter (fun (_, c) -> not (Int64.equal c 0L))
  |> List.rev

let scale_bases b k = List.map (fun (v, c) -> (v, Int64.mul c k)) b

let merge_terms t1 t2 ~f =
  let rec go a b =
    match (a, b) with
    | [], rest -> List.filter_map (fun (k, c) -> let c' = f 0L c in if Int64.equal c' 0L then None else Some (k, c')) rest
    | rest, [] -> List.filter_map (fun (k, c) -> let c' = f c 0L in if Int64.equal c' 0L then None else Some (k, c')) rest
    | (k1, c1) :: r1, (k2, c2) :: r2 ->
      if k1 = k2 then
        let c = f c1 c2 in
        if Int64.equal c 0L then go r1 r2 else (k1, c) :: go r1 r2
      else if k1 < k2 then
        let c = f c1 0L in
        if Int64.equal c 0L then go r1 b else (k1, c) :: go r1 b
      else
        let c = f 0L c2 in
        if Int64.equal c 0L then go a r2 else (k2, c) :: go a r2
  in
  go t1 t2

(** Polynomial form of [v] with respect to the symbol phis [symbols]
    (their ids).  [None] when not expressible. *)
let rec poly_of (f : Func.t) (l : Loopnest.loop) ~(symbols : int list)
    (v : Instr.value) : poly option =
  match v with
  | Instr.Cint c -> Some (poly_const c)
  | Instr.Null -> Some (poly_const 0L)
  | _ when is_invariant_value f l v ->
    Some { pbase = [ (v, 1L) ]; terms = []; poffset = 0L }
  | Instr.Reg r when List.mem r symbols ->
    Some { pbase = []; terms = [ (r, 1L) ]; poffset = 0L }
  | Instr.Reg r -> (
    match Func.inst_opt f r with
    | None -> None
    | Some i -> (
      let recur = poly_of f l ~symbols in
      let combine_add x y =
        Some
          {
            pbase = merge_bases x.pbase y.pbase;
            terms = merge_terms x.terms y.terms ~f:Int64.add;
            poffset = Int64.add x.poffset y.poffset;
          }
      in
      match i.Instr.op with
      | Instr.Bin (Instr.Add, a, b) -> (
        match (recur a, recur b) with
        | Some x, Some y -> combine_add x y
        | _ -> None)
      | Instr.Gep (p, idx) -> (
        match (recur p, recur idx) with
        | Some x, Some y -> combine_add x y
        | _ -> None)
      | Instr.Bin (Instr.Sub, a, b) -> (
        match (recur a, recur b) with
        | Some x, Some y ->
          Some
            {
              pbase = merge_bases x.pbase (scale_bases y.pbase (-1L));
              terms = merge_terms x.terms y.terms ~f:Int64.sub;
              poffset = Int64.sub x.poffset y.poffset;
            }
        | _ -> None)
      | Instr.Bin (Instr.Mul, a, b) -> (
        let scaled x c =
          Some
            {
              pbase = scale_bases x.pbase c;
              terms =
                List.filter_map
                  (fun (k, co) ->
                    let co = Int64.mul co c in
                    if Int64.equal co 0L then None else Some (k, co))
                  x.terms;
              poffset = Int64.mul x.poffset c;
            }
        in
        match (recur a, recur b) with
        | Some x, Some { pbase = []; terms = []; poffset = c } -> scaled x c
        | Some { pbase = []; terms = []; poffset = c }, Some y -> scaled y c
        | _ -> None)
      | Instr.Bin (Instr.Shl, a, Instr.Cint c) when c >= 0L && c < 62L -> (
        match recur a with
        | Some x ->
          let m = Int64.shift_left 1L (Int64.to_int c) in
          Some
            {
              pbase = scale_bases x.pbase m;
              terms = List.map (fun (k, co) -> (k, Int64.mul co m)) x.terms;
              poffset = Int64.mul x.poffset m;
            }
        | None -> None)
      | _ -> None))
  | _ -> None

(** Dependence classification of two polynomial addresses with respect to
    the outer symbol phi [outer].  [spans] bounds the value span of every
    other symbol, and must hold at both accesses.  Returns [`No_dep] (addresses never equal), [`Intra]
    (may only collide within an iteration of [outer]), or [`Unknown]. *)
let classify_pair ~(outer : int) ~(spans : (int * int64) list) (a : poly) (b : poly) =
  let bases_equal =
    List.length a.pbase = List.length b.pbase
    && List.for_all2
         (fun (v1, c1) (v2, c2) -> Instr.value_equal v1 v2 && Int64.equal c1 c2)
         a.pbase b.pbase
  in
  if not bases_equal then `Unknown
  else if a.terms <> b.terms then `Unknown
  else
    let s = try List.assoc outer a.terms with Not_found -> 0L in
    let d = Int64.sub a.poffset b.poffset in
    if Int64.equal s 0L then
      (* invariant address w.r.t. the outer loop: collides every iteration
         unless offsets always differ *)
      if Int64.equal d 0L then `Unknown
      else `Unknown (* conservatively: same base, different offsets, no outer term *)
    else begin
      let other_span =
        List.fold_left
          (fun acc (k, c) ->
            match acc with
            | None -> None
            | Some acc ->
              if k = outer then Some acc
              else
                match List.assoc_opt k spans with
                | Some sp -> Some (Int64.add acc (Int64.mul (Int64.abs c) sp))
                | None -> None)
          (Some 0L) a.terms
      in
      match other_span with
      | None -> `Unknown
      | Some other_span ->
      if Int64.add (Int64.abs d) other_span < Int64.abs s then
        if Int64.abs d > other_span then `No_dep else `Intra
      else `Unknown
    end
