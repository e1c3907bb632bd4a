(** Differential oracle for the interpreter and the profiler.

    The per-step interpreter that {!Ir.Interp} replaced with compiled
    frame layouts and unboxed words, kept as a test oracle: boxed
    values, registers in a [Hashtbl] per frame, blocks re-read from the
    function at every entry, phis partitioned per entry.  It runs on an
    ordinary {!Ir.Interp.state} (builtins, hooks, memory through
    {!Ir.Interp.load_word} and {!store_word}), so a test can run the same
    module through both loops and compare everything observable.
    {!attach_profile} installs the profiler's former hook set
    (string-keyed [Int64] tables bumped on every event, calls through
    this loop's own {!on_call}), and {!attach_sites} the recorder's
    former allocation-site tracking. *)

open Ir
open Interp

(** The boxed store the loop below uses, the counterpart of
    {!Ir.Interp.load_word}. *)
let store_word st addr v =
  if addr <= 0 || addr >= st.brk then trap "store to invalid address %d" addr;
  put st.mem addr v

(** The interpreter's former call hook, called for every
    direct/indirect/builtin call this loop makes; the profiler now counts
    calls in the frame layouts instead. *)
let on_call : (caller:string -> callee:string -> unit) option ref = ref None

(** Call the function named [fname] with [args].  Returns its return value
    ([VI 0L] for void).  Builtins, defined functions and declarations that
    resolve to builtins are all accepted. *)
let rec call (st : state) (fname : string) (args : v list) : v =
  match Hashtbl.find_opt st.builtins fname with
  | Some b -> b st args
  | None -> (
    match Irmod.func_opt st.m fname with
    | Some f when not f.Func.is_declaration -> exec_func st f (Array.of_list args)
    | Some _ -> trap "call to declaration %s with no builtin" fname
    | None -> trap "call to unknown function %s" fname)

and exec_func (st : state) (f : Func.t) (args : v array) : v =
  if Array.length args <> Array.length f.Func.params then
    trap "%s: expected %d arguments, got %d" f.Func.fname
      (Array.length f.Func.params) (Array.length args);
  (* rollback reports need actionable traps: re-raise with the faulting
     function/block/instruction attached (calls excepted — the callee frame
     already annotated, and builtin messages keep their own prefix) *)
  let ctx_trap (i : Instr.inst) msg =
    let lbl =
      match Func.block_opt f i.Instr.parent with
      | Some b -> b.Func.label
      | None -> "?"
    in
    trap "%s/%s: inst %d: %s" f.Func.fname lbl i.Instr.id msg
  in
  let regs : (int, v) Hashtbl.t = Hashtbl.create 64 in
  let frame_allocs = ref [] in
  let eval = function
    | Instr.Cint n -> VI n
    | Instr.Cfloat x -> VF x
    | Instr.Null -> VP 0
    | Instr.Arg i -> args.(i)
    | Instr.Reg r -> (
      match Hashtbl.find_opt regs r with
      | Some v -> v
      | None -> trap "%s: register %%%d read before definition" f.Func.fname r)
    | Instr.Glob g -> (
      match Hashtbl.find_opt st.global_addr g with
      | Some a -> VP a
      | None -> (
        match Hashtbl.find_opt st.fun_addr g with
        | Some a -> VP a
        | None -> trap "%s: unknown global @%s" f.Func.fname g))
  in
  let result = ref (VI 0L) in
  let finished = ref false in
  let cur = ref (Func.entry f) in
  let prev = ref (-1) in
  while not !finished do
    (match st.hooks.on_block with Some h -> h f !cur | None -> ());
    let insts = Func.insts_of_block f !cur in
    (* phis evaluate atomically against the incoming edge *)
    let phis, rest =
      List.partition (fun i -> match i.Instr.op with Instr.Phi _ -> true | _ -> false) insts
    in
    let phi_vals =
      List.map
        (fun (i : Instr.inst) ->
          match i.Instr.op with
          | Instr.Phi incs -> (
            match List.assoc_opt !prev incs with
            | Some v -> (
              try (i.Instr.id, eval v) with Trap msg -> ctx_trap i msg)
            | None ->
              ctx_trap i
                (Printf.sprintf "phi %%%d has no incoming value for block %d"
                   i.Instr.id !prev))
          | _ -> assert false)
        phis
    in
    List.iter
      (fun (i : Instr.inst) ->
        st.steps <- st.steps + 1;
        st.clock <- st.clock + 1;
        match st.hooks.on_inst with Some h -> h f i | None -> ())
      phis;
    List.iter (fun (id, v) -> Hashtbl.replace regs id v) phi_vals;
    let terminated = ref false in
    List.iter
      (fun (i : Instr.inst) ->
        if not !terminated then begin
          st.steps <- st.steps + 1;
          st.clock <- st.clock + 1;
          st.fuel <- st.fuel - 1;
          if st.fuel <= 0 then ctx_trap i "out of fuel (infinite loop?)";
          (match st.hooks.on_inst with Some h -> h f i | None -> ());
          let exec () =
            match i.Instr.op with
          | Instr.Bin (op, a, b) ->
            Hashtbl.replace regs i.Instr.id (VI (eval_bin op (as_int (eval a)) (as_int (eval b))))
          | Instr.Fbin (op, a, b) ->
            Hashtbl.replace regs i.Instr.id
              (VF (eval_fbin op (as_float (eval a)) (as_float (eval b))))
          | Instr.Icmp (c, a, b) ->
            let x = as_int (eval a) and y = as_int (eval b) in
            Hashtbl.replace regs i.Instr.id
              (VI (if eval_cmp c (Int64.compare x y) then 1L else 0L))
          | Instr.Fcmp (c, a, b) ->
            let x = as_float (eval a) and y = as_float (eval b) in
            Hashtbl.replace regs i.Instr.id
              (VI (if eval_cmp c (Float.compare x y) then 1L else 0L))
          | Instr.Cast (k, a) ->
            let v = eval a in
            Hashtbl.replace regs i.Instr.id
              (match k with
              | Instr.Sitofp -> VF (Int64.to_float (as_int v))
              | Instr.Fptosi -> VI (Int64.of_float (as_float v))
              | Instr.Ptrtoint -> VI (Int64.of_int (as_ptr v))
              | Instr.Inttoptr -> VP (Int64.to_int (as_int v)))
          | Instr.Alloca n ->
            let base = allocate st (Int64.to_int (as_int (eval n))) in
            frame_allocs := base :: !frame_allocs;
            Hashtbl.replace regs i.Instr.id (VP base)
          | Instr.Load p ->
            let addr = as_ptr (eval p) in
            (match st.hooks.on_mem with Some h -> h f i ~addr ~write:false | None -> ());
            Hashtbl.replace regs i.Instr.id (load_word st addr)
          | Instr.Store (x, p) ->
            let addr = as_ptr (eval p) in
            (match st.hooks.on_mem with Some h -> h f i ~addr ~write:true | None -> ());
            store_word st addr (eval x);
            (match st.hooks.on_store with Some h -> h f i ~addr | None -> ())
          | Instr.Gep (p, idx) ->
            Hashtbl.replace regs i.Instr.id
              (VP (as_ptr (eval p) + Int64.to_int (as_int (eval idx))))
          | Instr.Call (callee, cargs) ->
            let name =
              match callee with
              | Instr.Glob g -> g
              | v -> (
                let addr = as_ptr (eval v) in
                match Hashtbl.find_opt st.addr_fun addr with
                | Some n -> n
                | None -> trap "%s: indirect call to non-function address %d" f.Func.fname addr)
            in
            (match !on_call with
            | Some h -> h ~caller:f.Func.fname ~callee:name
            | None -> ());
            let r = call st name (List.map eval cargs) in
            if not (Ty.equal i.Instr.ty Ty.Void) then Hashtbl.replace regs i.Instr.id r
          | Instr.Phi _ -> ()  (* handled above *)
          | Instr.Select (c, a, b) ->
            Hashtbl.replace regs i.Instr.id
              (if Int64.equal (as_int (eval c)) 0L then eval b else eval a)
          | Instr.Br b ->
            prev := !cur; cur := b; terminated := true
          | Instr.Cbr (c, t, e) ->
            prev := !cur;
            cur := (if Int64.equal (as_int (eval c)) 0L then e else t);
            terminated := true
          | Instr.Ret vo ->
            result := (match vo with Some v -> eval v | None -> VI 0L);
            finished := true;
            terminated := true
            | Instr.Unreachable -> trap "reached unreachable"
          in
          match i.Instr.op with
          | Instr.Call _ -> exec ()
          | _ -> ( try exec () with Trap msg -> ctx_trap i msg)
        end)
      rest
  done;
  (* free frame allocas *)
  List.iter (fun base -> ignore (kill st base)) !frame_allocs;
  !result

(** The profiler's former hooks, installed on [st]: the returned profile
    fills as the run goes. *)
let attach_profile (st : Interp.state) : Noelle.Profiler.t =
  let p = Noelle.Profiler.fresh () in
  let pending_branch = ref None in
  st.Interp.hooks.Interp.on_block <-
    Some
      (fun f bid ->
        let lbl = (Func.block f bid).Func.label in
        Noelle.Profiler.bump p.block_counts (f.Func.fname, lbl) 1L;
        (match !pending_branch with
        | Some (fn, iid) when fn = f.Func.fname ->
          Noelle.Profiler.bump p.edge_counts (fn, iid, lbl) 1L
        | _ -> ());
        pending_branch := None);
  st.Interp.hooks.Interp.on_inst <-
    Some
      (fun f i ->
        p.total_insts <- Int64.add p.total_insts 1L;
        Noelle.Profiler.bump p.fn_insts f.Func.fname 1L;
        match i.Instr.op with
        | Instr.Cbr _ -> pending_branch := Some (f.Func.fname, i.Instr.id)
        | _ -> pending_branch := None);
  on_call :=
    Some
      (fun ~caller ~callee ->
        Noelle.Profiler.bump p.fn_calls callee 1L;
        Noelle.Profiler.bump p.call_pair (caller, callee) 1L);
  p

(** The {!Ir.Obs} recorder's former allocation-site tracking, chained
    after [st]'s [on_inst] hook: every [alloca] and direct [malloc] call
    records its site in the state before it executes, which the compiled
    step loop now does itself and this loop does not. *)
let attach_sites (st : Interp.state) =
  let prev = st.hooks.on_inst in
  st.hooks.on_inst <-
    Some
      (fun f i ->
        (match prev with Some g -> g f i | None -> ());
        match i.Instr.op with
        | Instr.Alloca _ | Instr.Call (Instr.Glob "malloc", _) ->
          st.site_fn <- f.Func.fname;
          st.site_id <- i.Instr.id
        | _ -> ())
