(** Analytic performance models for the three parallelization strategies.

    The fiber simulator in {!Runtime} measures parallel time by execution;
    these closed-form models predict it from profile numbers alone.  The
    benchmark harness uses them as a cross-check (the ablation bench
    compares model vs simulation) and to reason about crossover points
    (e.g. minimum iterations for DOALL to win, maximum sequential-segment
    fraction for HELIX to scale). *)

type params = {
  cores : int;
  latency : float;        (** core-to-core latency, cycles *)
  spawn : float;          (** per-task spawn cost, cycles *)
  join : float;           (** join barrier cost, cycles *)
}

let default_params =
  { cores = 12; latency = 60.0; spawn = 400.0; join = 400.0 }

(** DOALL over [iters] iterations of [work] cycles each: iterations are
    split cyclically, no cross-core communication. *)
let doall_time (p : params) ~iters ~work =
  let per_core = ceil (iters /. float_of_int p.cores) in
  (per_core *. work) +. (p.spawn *. float_of_int p.cores) +. p.join

(** HELIX: each iteration has a sequential segment of [seq] cycles that
    must execute in iteration order across cores (paying a signal latency
    per hand-off) while the remaining [work - seq] cycles overlap. *)
let helix_time (p : params) ~iters ~work ~seq =
  let c = float_of_int p.cores in
  let par = work -. seq in
  (* the sequential chain serializes: one segment + hand-off per iteration;
     the parallel part is limited by cores *)
  let chain = iters *. (seq +. p.latency) in
  let overlap = iters *. par /. c in
  Float.max chain overlap +. (p.spawn *. c) +. p.join

type vec_params = {
  width : int;            (** lane-group factor W (lanes per vector issue) *)
  vissue : float;         (** per-group issue overhead, cycles *)
  vgather : float;        (** per-strided-memory-op penalty per group, cycles *)
  vsetup : float;         (** one-time loop setup (niters/bound computation) *)
}

let default_vec_params = { width = 8; vissue = 2.0; vgather = 0.5; vsetup = 16.0 }

(** Vectorized loop over [iters] iterations of [work] cycles each with
    lane-group factor [p.width].

    [divergence] is the fraction of the body that executes under a
    predicate after if-conversion: masked-off lanes still occupy a lane
    slot, so the effective width shrinks to [W * (1 - divergence)]
    (floored at one lane — fully divergent bodies degenerate to scalar).

    [strided_mem_ops] memory operations whose SCEV stride (in elements)
    is [stride ≠ 1] cannot use contiguous vector loads/stores; each pays
    a gather/scatter penalty proportional to the stride (capped at 8 —
    beyond that every lane is its own cache line and it cannot get worse).

    The [iters mod W] leftover iterations run in the scalar epilogue at
    full scalar cost. *)
let vec_time (p : vec_params) ~iters ~work ~divergence ~strided_mem_ops ~stride =
  let w = float_of_int p.width in
  let groups = Float.trunc (iters /. w) in
  let rem = iters -. (groups *. w) in
  let weff = Float.max 1.0 (w *. (1.0 -. divergence)) in
  let gather =
    if strided_mem_ops <= 0 || stride <= 1 then 0.0
    else
      float_of_int strided_mem_ops
      *. float_of_int (min stride 8 - 1)
      *. p.vgather
  in
  let per_group = (w *. work /. weff) +. gather +. p.vissue in
  (groups *. per_group) +. (rem *. work) +. p.vsetup

(** Pick the lane-group factor: try candidate widths no wider than
    [max_width] (16 lanes for f32-narrowable float bodies on 512-bit
    vectors, 8 for 64-bit element bodies) and keep the one the model says
    is fastest for this trip count.  With an unknown trip count a large
    trip stands in, so the asymptotic (per-iteration) cost decides. *)
let best_vec_width (p : vec_params) ~max_width ~iters ~work ~divergence
    ~strided_mem_ops ~stride =
  let iters = match iters with Some n -> float_of_int n | None -> 1.0e6 in
  let candidates =
    List.filter (fun w -> w <= max_width) [ 16; 8; 4; 2 ]
  in
  let time w =
    vec_time { p with width = w } ~iters ~work ~divergence ~strided_mem_ops
      ~stride
  in
  List.fold_left
    (fun best w -> if time w < time best then w else best)
    (List.hd candidates) (List.tl candidates)

(** Speedup of a technique time vs the sequential time [iters * work]. *)
let speedup ~seq_time ~par_time = if par_time <= 0.0 then 1.0 else seq_time /. par_time
