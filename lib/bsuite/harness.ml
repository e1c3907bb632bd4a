(** The corpus-gate harness behind [noelle-gate].

    A gate is a {!gate} record: a per-kernel check, an optional
    per-fuzz-seed check and a sweep-end assertion.  The harness owns the
    loop every gate used to repeat: kernel selection, fresh mutable
    copies of each kernel, the pristine run, failure collection, report
    lines and the exit status.

    The sweep is kernel-major: every selected gate checks kernel [i]
    before the harness moves on to kernel [i+1].  A kernel's pristine
    run ({!observe}) yields both its reference behaviour and its profile
    (NOELLE's profilers, PRO §2.2, folded from the same interpreter
    state); it is computed on first use and shared, so it runs at most
    once however many gates read either, and only one kernel's run is
    alive at a time.  Because gates interleave, counter deltas are
    accumulated around each gate's own calls: a sweep-end assertion over
    a telemetry counter never sees another gate's increments. *)

open Ir
module Profiler = Noelle.Profiler

type kernel = {
  kernel : Kernels.kernel;
  name : string;
  fuel : int;
      (** 4x the kernel's own budget: widened bodies and parallel runs
          burn more fuel than the sequential program *)
  pristine : (Obs.behaviour * Profiler.t) Lazy.t;
}

(** A fresh mutable copy of the kernel's module. *)
let compile k = Kernels.compile k.kernel

(** One run of [m] under the recorder and the profilers: its behaviour
    and the profile of the same execution, counted up to a trap. *)
let observe m ~fuel =
  let prof = ref Profiler.fresh in
  let b = Obs.run ~fuel ~install:(fun st _ -> prof := Profiler.attach st) m in
  (b, !prof ())

(** The pristine kernel's behaviour at the gate fuel; its [clock] is the
    dynamic instruction count = sequential Psim cycles. *)
let reference k = fst (Lazy.force k.pristine)

(** The pristine kernel's profile, ready for {!Profiler.embed}. *)
let profile k = snd (Lazy.force k.pristine)

let kernel (k : Kernels.kernel) =
  let fuel = 4 * k.Kernels.fuel in
  {
    kernel = k;
    name = k.Kernels.kname;
    fuel;
    pristine =
      lazy
        (Trace.incr_m "harness.reference_runs";
         observe (Kernels.compile k) ~fuel);
  }

type ctx = {
  say : 'a. ('a, unit, string, unit) format4 -> 'a;
      (** a report line, prefixed with the gate name (silent under -q) *)
  fail : 'a. ('a, unit, string, unit) format4 -> 'a;
      (** a failure, prefixed with the gate and the kernel or seed *)
  kernels : int;  (** kernels this gate sweeps *)
  seeds : int;  (** fuzz seeds this gate sweeps *)
  delta : string -> int64;  (** this gate's own increments of a counter *)
}

type gate = {
  name : string;
  kernel_cover : int option;  (** the first N corpus kernels; [None] = all *)
  seed_cover : int;  (** fuzz seeds 1..N *)
  on_kernel : ctx -> kernel -> unit;
  on_seed : (ctx -> int -> unit) option;
  at_end : ctx -> unit;
}

let gate ?kernels ?(seeds = 0) ?on_seed ?(at_end = ignore) name on_kernel =
  { name; kernel_cover = kernels; seed_cover = seeds; on_kernel; on_seed; at_end }

type state = {
  gate : gate;
  ctx : ctx;
  where : string ref;  (** the kernel or seed being checked *)
  deltas : (string, int64) Hashtbl.t;
}

(** Sweep [gates] over the corpus; [limit] and [seeds] only cap each
    gate's own coverage.  Prints report lines and failures; returns the
    failures (empty = every gate passed). *)
let run ?limit ?seeds ?(quiet = false) (gates : gate list) : string list =
  let cap n = function Some c -> min n c | None -> n in
  let failures = ref [] in
  let state g =
    let where = ref "" and deltas = Hashtbl.create 16 in
    let ctx =
      {
        say =
          (fun fmt ->
            Printf.ksprintf
              (fun s -> if not quiet then Printf.printf "%-9s %s" g.name s)
              fmt);
        fail =
          (fun fmt ->
            Printf.ksprintf
              (fun s -> failures := (g.name ^ ": " ^ !where ^ s) :: !failures)
              fmt);
        kernels = cap (cap (List.length Kernels.all) g.kernel_cover) limit;
        seeds = cap g.seed_cover seeds;
        delta = (fun c -> Option.value ~default:0L (Hashtbl.find_opt deltas c));
      }
    in
    { gate = g; ctx; where; deltas }
  in
  let within s subject f =
    s.where := subject;
    let before = Trace.counters () in
    (try f () with e -> s.ctx.fail "raised %s" (Printexc.to_string e));
    List.iter
      (fun (c, v) ->
        let d = Int64.sub v (Option.value ~default:0L (List.assoc_opt c before)) in
        if d <> 0L then Hashtbl.replace s.deltas c (Int64.add d (s.ctx.delta c)))
      (Trace.counters ());
    (* only counters are read: drop the spans the call buffered *)
    Trace.buf := [];
    Trace.buf_len := 0
  in
  Trace.enable ();
  let states = List.map state gates in
  List.iteri
    (fun i k ->
      let k = kernel k in
      List.iter
        (fun s ->
          if i < s.ctx.kernels then
            within s (k.name ^ ": ") (fun () -> s.gate.on_kernel s.ctx k))
        states)
    Kernels.all;
  for seed = 1 to List.fold_left (fun a s -> max a s.ctx.seeds) 0 states do
    List.iter
      (fun s ->
        match s.gate.on_seed with
        | Some f when seed <= s.ctx.seeds ->
          within s (Printf.sprintf "seed %d: " seed) (fun () -> f s.ctx seed)
        | _ -> ())
      states
  done;
  List.iter (fun s -> within s "" (fun () -> s.gate.at_end s.ctx)) states;
  Trace.disable ();
  let failures = List.rev !failures in
  List.iter (Printf.eprintf "noelle-gate: %s\n") failures;
  if not quiet then
    Printf.printf "noelle-gate: %s: %s\n"
      (String.concat "," (List.map (fun g -> g.name) gates))
      (if failures = [] then "ok"
       else Printf.sprintf "%d failures" (List.length failures));
  failures
