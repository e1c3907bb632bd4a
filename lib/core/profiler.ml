(** Profilers and profile queries (PRO, §2.2; noelle-prof-coverage /
    noelle-meta-prof-embed).

    NOELLE ships an instruction profiler, a branch profiler, and a loop
    profiler, embeds their results into the IR file as metadata, and
    offers high-level queries (hotness of a code region, loop iteration
    counts, function invocation counts).  Here the profilers read the
    counters the IR interpreter keeps in its frame layouts; the queries
    read the embedded metadata, so they work on a
    freshly parsed module exactly as in the paper's pipeline. *)

open Ir

type t = {
  block_counts : (string * string, int64) Hashtbl.t;
      (** (function, block label) -> executions *)
  edge_counts : (string * int * string, int64) Hashtbl.t;
      (** (function, branch inst id, target label) -> taken count *)
  fn_insts : (string, int64) Hashtbl.t;    (** dynamic instructions per fn *)
  fn_calls : (string, int64) Hashtbl.t;    (** invocations per fn *)
  call_pair : (string * string, int64) Hashtbl.t;  (** caller/callee counts *)
  mutable total_insts : int64;
}

let fresh () =
  {
    block_counts = Hashtbl.create 64;
    edge_counts = Hashtbl.create 64;
    fn_insts = Hashtbl.create 16;
    fn_calls = Hashtbl.create 16;
    call_pair = Hashtbl.create 16;
    total_insts = 0L;
  }

let bump tbl key by =
  Hashtbl.replace tbl key (Int64.add by (try Hashtbl.find tbl key with Not_found -> 0L))

(** The instruction/branch/loop/call profilers of [st]: the interpreter
    already counts steps per function, block entries, conditional-branch
    outcomes and calls per call step in its frame layouts, so no hook is
    set.  [attach st] is the function that folds those counters, from
    the state's creation on, into a profile once the run is over. *)
let attach (st : Interp.state) () : t =
  let p = fresh () in
  Hashtbl.iter
    (fun _ (lay : Interp.layout) ->
      let f = lay.Interp.func in
      let fname = f.Func.fname in
      let count tbl key bid n =
        match Func.block_opt f bid with
        | Some b when n > 0 -> bump tbl (key b.Func.label) (Int64.of_int n)
        | _ -> ()
      in
      let calls (t : Interp.target) =
        let n = t.Interp.calls in
        if n > 0 then begin
          bump p.fn_calls t.Interp.name (Int64.of_int n);
          bump p.call_pair (fname, t.Interp.name) (Int64.of_int n)
        end
      in
      let n = lay.Interp.executed in
      p.total_insts <- Int64.add p.total_insts (Int64.of_int n);
      if n > 0 then bump p.fn_insts fname (Int64.of_int n);
      Array.iter
        (fun (b : Interp.block_code) ->
          count p.block_counts (fun l -> (fname, l)) b.Interp.bid b.Interp.entries;
          Array.iter
            (fun (s : Interp.step) ->
              match s.Interp.code with
              | Interp.Call { callee = Interp.Direct t; _ } -> calls t
              | Interp.Call { callee = Interp.Indirect { seen; _ }; _ } -> List.iter calls seen
              | Interp.Cbr (_, t, e) ->
                let edge target n =
                  count p.edge_counts
                    (fun l -> (fname, s.Interp.inst.Instr.id, l))
                    lay.Interp.blocks.(target).Interp.bid n
                in
                edge t b.Interp.taken;
                edge e b.Interp.not_taken
              | _ -> ())
            b.Interp.body)
        lay.Interp.blocks)
    st.Interp.layouts;
  p

(** Run the program under the profilers.  Returns the profile and the
    program output. *)
let run ?(entry = "main") ?(args = []) ?fuel (m : Irmod.t) : t * string =
  let profile = ref fresh in
  let _, st = Interp.run_state ~entry ~args ?fuel ~configure:(fun st -> profile := attach st) m in
  (!profile (), Buffer.contents st.Interp.output)

(* ------------------------------------------------------------------ *)
(* Embedding (noelle-meta-prof-embed) and queries                      *)
(* ------------------------------------------------------------------ *)

(** Embed the profile as metadata, stamped ({!Trust.stamp}) with the
    module fingerprint: a profile describes whole-program behaviour, so
    any code change makes it stale (a warning, not an error — profiles
    are advisory; see {!Trust.is_error}). *)
let embed ?(tool = "noelle-meta-prof-embed") (p : t) (m : Irmod.t) =
  let meta = m.Irmod.meta in
  Meta.clear_prefix meta "prof.";
  Hashtbl.iter
    (fun (fn, lbl) c ->
      Meta.set meta (Printf.sprintf "prof.block.%s.%s" fn lbl) (Int64.to_string c))
    p.block_counts;
  Hashtbl.iter
    (fun (fn, iid, lbl) c ->
      Meta.set meta (Printf.sprintf "prof.edge.%s.%d.%s" fn iid lbl) (Int64.to_string c))
    p.edge_counts;
  Hashtbl.iter
    (fun fn c -> Meta.set meta (Printf.sprintf "prof.fninsts.%s" fn) (Int64.to_string c))
    p.fn_insts;
  Hashtbl.iter
    (fun fn c -> Meta.set meta (Printf.sprintf "prof.fncalls.%s" fn) (Int64.to_string c))
    p.fn_calls;
  Hashtbl.iter
    (fun (a, b) c ->
      Meta.set meta (Printf.sprintf "prof.callpair.%s.%s" a b) (Int64.to_string c))
    p.call_pair;
  Meta.set meta "prof.total" (Int64.to_string p.total_insts);
  Trust.stamp meta ~prefix:"prof." ~tool ~fp:(Fingerprint.module_fp m)

(** Does the module carry an embedded profile? *)
let available (m : Irmod.t) = Meta.mem m.Irmod.meta "prof.total"

let get64 m k =
  match Meta.get m.Irmod.meta k with
  | Some s -> (try Int64.of_string s with _ -> 0L)
  | None -> 0L

let total_insts (m : Irmod.t) = get64 m "prof.total"

let block_count (m : Irmod.t) (f : Func.t) bid =
  get64 m (Printf.sprintf "prof.block.%s.%s" f.Func.fname (Func.block f bid).Func.label)

let fn_invocations (m : Irmod.t) fname = get64 m (Printf.sprintf "prof.fncalls.%s" fname)

let fn_insts (m : Irmod.t) fname = get64 m (Printf.sprintf "prof.fninsts.%s" fname)

(** Dynamic instructions executed inside the loop (block count x block
    size, the standard static-weighting of a block profile). *)
let loop_insts (m : Irmod.t) (ls : Loopstructure.t) =
  List.fold_left
    (fun acc bid ->
      let n = List.length (Func.block ls.Loopstructure.f bid).Func.insts in
      Int64.add acc (Int64.mul (block_count m ls.Loopstructure.f bid) (Int64.of_int n)))
    0L ls.Loopstructure.blocks

(** Hotness of a loop: fraction of all executed instructions spent in it. *)
let loop_hotness (m : Irmod.t) (ls : Loopstructure.t) =
  let t = total_insts m in
  if Int64.equal t 0L then 0.0
  else Int64.to_float (loop_insts m ls) /. Int64.to_float t

(** Total iterations of the loop (executions of its header). *)
let loop_iterations (m : Irmod.t) (ls : Loopstructure.t) =
  block_count m ls.Loopstructure.f ls.Loopstructure.header

(** Invocations of the loop: executions of its entry edges, the edges
    into the header from the blocks outside the loop.  A [cbr] entry
    counts its edge counter towards the header, any other entry its
    block count.  (A header that is its function's entry block is also
    entered by each call, which no edge counts.) *)
let loop_invocations (m : Irmod.t) (ls : Loopstructure.t) =
  let f = ls.Loopstructure.f in
  let header = (Func.block f ls.Loopstructure.header).Func.label in
  List.fold_left
    (fun acc p ->
      Int64.add acc
        (match Func.terminator f p with
        | Some ({ Instr.op = Instr.Cbr _; _ } as br) ->
          get64 m (Printf.sprintf "prof.edge.%s.%d.%s" f.Func.fname br.Instr.id header)
        | _ -> block_count m f p))
    0L ls.Loopstructure.entering

(** Average iterations per invocation. *)
let loop_avg_iterations (m : Irmod.t) (ls : Loopstructure.t) =
  let inv = loop_invocations m ls in
  if Int64.equal inv 0L then 0.0
  else Int64.to_float (loop_iterations m ls) /. Int64.to_float inv

(** Taken-probability of a conditional branch towards a given target. *)
let branch_probability (m : Irmod.t) (f : Func.t) (br : Instr.inst) ~target_label =
  let k = Printf.sprintf "prof.edge.%s.%d.%s" f.Func.fname br.Instr.id target_label in
  let taken = get64 m k in
  match br.Instr.op with
  | Instr.Cbr (_, t, e) ->
    let lt = (Func.block f t).Func.label and le = (Func.block f e).Func.label in
    let tot =
      Int64.add
        (get64 m (Printf.sprintf "prof.edge.%s.%d.%s" f.Func.fname br.Instr.id lt))
        (get64 m (Printf.sprintf "prof.edge.%s.%d.%s" f.Func.fname br.Instr.id le))
    in
    if Int64.equal tot 0L then 0.5 else Int64.to_float taken /. Int64.to_float tot
  | _ -> 0.0
