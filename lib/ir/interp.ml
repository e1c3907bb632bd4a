(** IR interpreter.

    Executes a module with a word-granularity memory model.  The interpreter
    is the substrate that replaces native execution in this reproduction:
    NOELLE's profilers ({!Noelle.Profiler} in [lib/core]) hook instruction /
    block / call / memory events; the parallel runtime ([lib/psim]) registers
    extra builtins (queues, signals, task spawning) and drives task functions
    as effect-based fibers with per-core virtual clocks; CARAT and COOS
    register their runtime entry points the same way.

    Addresses are plain integers (words).  Address 0 is the null pointer and
    never allocated.  Every allocation (global, alloca, malloc) is recorded
    in an allocation table so that guard runtimes can validate accesses.

    Execution model.  On its first call in a {!state}, a function is
    compiled into a frame layout ({!compile}, cached in [state.layouts]):
    one dense slot per SSA id, operands pre-resolved to a constant, slot,
    argument or global/function address, blocks in an array with
    successors as indices, one phi move row per predecessor, and block
    bodies cut at the first terminator.  A call allocates a slot array
    filled with an "undefined" sentinel and runs the single step loop in
    {!exec_func}.  Each step counts [steps] and [clock], spends one unit
    of [fuel] (phis count steps and clock but not fuel), calls the
    [on_inst] hook, then executes; a trap from a non-call instruction is
    re-raised with the function, block and instruction attached.  The loop
    re-reads [st.hooks] at every step, because a builtin may swap a hook in
    the middle of a frame (the parallel runtime does).  Layouts are never
    shared across states: passes rewrite functions in place between runs,
    and each run starts from a fresh state. *)

type v = VI of int64 | VF of float | VP of int

exception Trap of string

let trap fmt = Printf.ksprintf (fun s -> raise (Trap s)) fmt

let v_to_string = function
  | VI n -> Int64.to_string n
  | VF f -> Printf.sprintf "%.6g" f
  | VP p -> Printf.sprintf "&%d" p

type alloc = { base : int; size : int; mutable alive : bool }

type hooks = {
  mutable on_block : (Func.t -> int -> unit) option;
      (** called when control enters a basic block *)
  mutable on_inst : (Func.t -> Instr.inst -> unit) option;
      (** called before each executed instruction *)
  mutable on_call : (caller:string -> callee:string -> unit) option;
      (** called for every direct/indirect/builtin call *)
  mutable on_mem : (Func.t -> Instr.inst -> addr:int -> write:bool -> unit) option;
      (** called for every load/store with its resolved address *)
  mutable on_builtin : (string -> v list -> unit) option;
      (** called before a builtin executes, with its evaluated arguments;
          the observable-event layer ({!Obs}) records external calls here *)
  mutable on_alloc : (base:int -> size:int -> unit) option;
      (** called after every allocation (global, alloca, malloc) *)
  mutable on_store : (Func.t -> Instr.inst -> addr:int -> value:v -> unit) option;
      (** called before a store commits, with the value being written *)
}

(** {2 Frame layouts}

    A function is translated once per {!state} into a [layout]: every
    instruction id that some block lists gets a dense frame slot, operands
    are pre-resolved, blocks sit in an array with successors as indices,
    and each block keeps one phi move row per predecessor.  A lookup that
    fails at compile time is kept as a deferred failure ([Undef],
    [Unknown_global], a block's [fault]) raised when execution reaches it,
    with the text a lookup at that step would give. *)

type opnd =
  | Const of v
  | Slot of int                  (** frame slot of a defined register *)
  | Param of int                 (** argument [i] of the frame *)
  | Undef of int                 (** register no listed instruction defines *)
  | Unknown_global of string

type callee = Direct of string | Indirect of opnd

type code =
  | Bin of Instr.bin * opnd * opnd
  | Fbin of Instr.fbin * opnd * opnd
  | Icmp of Instr.cmp * opnd * opnd
  | Fcmp of Instr.cmp * opnd * opnd
  | Cast of Instr.cast * opnd
  | Alloca of opnd
  | Load of opnd
  | Store of opnd * opnd
  | Gep of opnd * opnd
  | Call of callee * opnd list * bool    (** [true]: the result is kept *)
  | Select of opnd * opnd * opnd
  | Br of int                            (** block index *)
  | Cbr of opnd * int * int
  | Ret of opnd option
  | Unreachable

type step = { inst : Instr.inst; dst : int; code : code }

type block_code = {
  bid : int;
  fault : exn option;              (** [Func.insts_of_block] failed: raised on entry *)
  phis : Instr.inst array;         (** every phi of the block, in order *)
  phi_dst : int array;
  phi_preds : int array;           (** predecessor block ids with a move row *)
  phi_rows : opnd option array array;
      (** per predecessor: one source per phi, [None] = no incoming value *)
  no_row : opnd option array;      (** the row for any other predecessor *)
  body : step array;               (** non-phis, cut after the first terminator *)
}

type layout = {
  func : Func.t;
  ids : int array;                 (** slot -> instruction id *)
  blocks : block_code array;       (** index 0 is the entry block *)
}

type state = {
  m : Irmod.t;
  mutable mem : v array;
  mutable brk : int;                       (** bump pointer: next free word *)
  allocs : (int, alloc) Hashtbl.t;         (** base address -> allocation *)
  global_addr : (string, int) Hashtbl.t;
  fun_addr : (string, int) Hashtbl.t;
  addr_fun : (int, string) Hashtbl.t;
  output : Buffer.t;                       (** text written by print builtins *)
  mutable steps : int;                     (** executed instructions (global) *)
  mutable fuel : int;                      (** remaining instruction budget *)
  mutable clock : int64;                   (** per-task virtual cycles (swappable) *)
  hooks : hooks;
  builtins : (string, builtin) Hashtbl.t;
  mutable rng : int64;                     (** state of the default rand() *)
  user : (string, int64) Hashtbl.t;        (** scratch counters for tool runtimes *)
  layouts : (string, layout) Hashtbl.t;    (** function name -> its frame layout *)
}

and builtin = state -> v list -> v

(* function addresses live far above data so they can never collide *)
let fun_addr_base = 1 lsl 40

let ensure_capacity st n =
  let cap = Array.length st.mem in
  if n > cap then begin
    let ncap = max (2 * cap) (n + 1024) in
    let nm = Array.make ncap (VI 0L) in
    Array.blit st.mem 0 nm 0 cap;
    st.mem <- nm
  end

(** Allocate [size] words; returns the base address. *)
let allocate st size =
  if size < 0 then trap "negative allocation size %d" size;
  let base = st.brk in
  st.brk <- st.brk + max size 1;
  ensure_capacity st st.brk;
  Hashtbl.replace st.allocs base { base; size; alive = true };
  (match st.hooks.on_alloc with Some h -> h ~base ~size | None -> ());
  base

let[@inline] load_word st addr =
  if addr <= 0 || addr >= st.brk then trap "load from invalid address %d" addr;
  st.mem.(addr)

let[@inline] store_word st addr v =
  if addr <= 0 || addr >= st.brk then trap "store to invalid address %d" addr;
  st.mem.(addr) <- v

(** Does [addr] fall inside a live allocation?  Used by the CARAT runtime. *)
let addr_is_guarded_valid st addr =
  (* linear scan over allocations is fine at our scale; allocations are
     keyed by base so find the one covering addr *)
  Hashtbl.fold
    (fun _ a ok -> ok || (a.alive && addr >= a.base && addr < a.base + a.size))
    st.allocs false

let[@inline] as_int = function
  | VI n -> n
  | VP p -> Int64.of_int p
  | VF f -> trap "expected integer, got float %g" f

let[@inline] as_float = function
  | VF f -> f
  | VI n -> trap "expected float, got int %Ld" n
  | VP p -> trap "expected float, got pointer %d" p

let[@inline] as_ptr = function
  | VP p -> p
  | VI n -> Int64.to_int n
  | VF f -> trap "expected pointer, got float %g" f

(* ------------------------------------------------------------------ *)
(* Default builtins                                                    *)
(* ------------------------------------------------------------------ *)

let default_builtins () : (string * builtin) list =
  let b1f name fn : string * builtin =
    (name, fun _ args ->
      match args with
      | [ a ] -> VF (fn (as_float a))
      | _ -> trap "%s: expected 1 argument" name)
  in
  [
    ("print",
     fun st args ->
       (match args with
       | [ a ] -> Buffer.add_string st.output (v_to_string a ^ "\n")
       | _ -> trap "print: expected 1 argument");
       VI 0L);
    ("print_float",
     fun st args ->
       (match args with
       | [ a ] -> Buffer.add_string st.output (Printf.sprintf "%.6f\n" (as_float a))
       | _ -> trap "print_float: expected 1 argument");
       VI 0L);
    ("malloc",
     fun st args ->
       match args with
       | [ n ] -> VP (allocate st (Int64.to_int (as_int n)))
       | _ -> trap "malloc: expected 1 argument");
    ("free",
     fun st args ->
       (match args with
       | [ p ] -> (
         let base = as_ptr p in
         match Hashtbl.find_opt st.allocs base with
         | Some a -> a.alive <- false
         | None -> trap "free: %d is not an allocation base" base)
       | _ -> trap "free: expected 1 argument");
       VI 0L);
    ("srand",
     fun st args ->
       (match args with
       | [ s ] -> st.rng <- as_int s
       | _ -> trap "srand: expected 1 argument");
       VI 0L);
    ("rand",
     fun st args ->
       (match args with [] -> () | _ -> trap "rand: expected no arguments");
       (* deterministic 64-bit LCG (MMIX constants), truncated to 31 bits *)
       st.rng <-
         Int64.add (Int64.mul st.rng 6364136223846793005L) 1442695040888963407L;
       VI (Int64.logand (Int64.shift_right_logical st.rng 33) 0x7fffffffL));
    ("clock",
     fun st args ->
       (match args with [] -> () | _ -> trap "clock: expected no arguments");
       VI (Int64.of_int st.steps));
    b1f "sqrt" sqrt;
    b1f "exp" exp;
    b1f "log" log;
    b1f "sin" sin;
    b1f "cos" cos;
    b1f "fabs" Float.abs;
    b1f "floor" Float.floor;
    ("pow",
     fun _ args ->
       match args with
       | [ a; b ] -> VF (Float.pow (as_float a) (as_float b))
       | _ -> trap "pow: expected 2 arguments");
    ("i64_min",
     fun _ args ->
       match args with
       | [ a; b ] -> VI (Int64.min (as_int a) (as_int b))
       | _ -> trap "i64_min: expected 2 arguments");
    ("i64_max",
     fun _ args ->
       match args with
       | [ a; b ] -> VI (Int64.max (as_int a) (as_int b))
       | _ -> trap "i64_max: expected 2 arguments");
  ]

(* ------------------------------------------------------------------ *)
(* State construction                                                  *)
(* ------------------------------------------------------------------ *)

(** Create an execution state for module [m]: allocates and initializes
    globals, assigns function addresses, installs default builtins. *)
let create (m : Irmod.t) : state =
  let st =
    {
      m;
      mem = Array.make 4096 (VI 0L);
      brk = 16;
      allocs = Hashtbl.create 64;
      global_addr = Hashtbl.create 16;
      fun_addr = Hashtbl.create 16;
      addr_fun = Hashtbl.create 16;
      output = Buffer.create 256;
      steps = 0;
      fuel = 200_000_000;
      clock = 0L;
      hooks =
        {
          on_block = None;
          on_inst = None;
          on_call = None;
          on_mem = None;
          on_builtin = None;
          on_alloc = None;
          on_store = None;
        };
      builtins = Hashtbl.create 16;
      rng = 88172645463325252L;
      user = Hashtbl.create 8;
      layouts = Hashtbl.create 16;
    }
  in
  List.iter (fun (n, f) -> Hashtbl.replace st.builtins n f) (default_builtins ());
  List.iter
    (fun (g : Irmod.global) ->
      let base = allocate st g.size in
      Hashtbl.replace st.global_addr g.gname base;
      match g.init with
      | None -> ()
      | Some vs ->
        Array.iteri
          (fun i v ->
            if i < g.size then
              st.mem.(base + i) <-
                (match v with
                | Instr.Cint n -> VI n
                | Instr.Cfloat f -> VF f
                | Instr.Null -> VP 0
                | _ -> trap "global %s: non-constant initializer" g.gname))
          vs)
    (Irmod.globals m);
  List.iteri
    (fun i f ->
      let addr = fun_addr_base + i in
      Hashtbl.replace st.fun_addr f.Func.fname addr;
      Hashtbl.replace st.addr_fun addr f.Func.fname)
    (Irmod.functions m);
  st

let register_builtin st name fn = Hashtbl.replace st.builtins name fn

(* ------------------------------------------------------------------ *)
(* Frame layouts                                                       *)
(* ------------------------------------------------------------------ *)

(* marks a slot whose instruction has not executed in this frame; made at
   run time so no constant [v] in this unit can be physically equal to it *)
let undef : v = VI (Int64.of_int (Sys.opaque_identity (-1)))

(** Translate [f] into its frame layout.  Never fails: every lookup that
    would fail is deferred to the point execution reaches it, so traps and
    exceptions happen exactly where a per-step interpreter would raise
    them.  Blocks are indexed in layout order, then blocks the layout
    omits, then branch targets that do not exist (entering one raises
    [Func.block]'s error). *)
let compile (st : state) (f : Func.t) : layout =
  let index : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let order = ref [] in
  let add bid =
    if not (Hashtbl.mem index bid) then begin
      Hashtbl.add index bid (Hashtbl.length index);
      order := bid :: !order
    end
  in
  List.iter add f.Func.blocks;
  Hashtbl.fold (fun bid _ acc -> bid :: acc) f.Func.blks []
  |> List.sort compare |> List.iter add;
  let insts_of bid =
    match Func.insts_of_block f bid with
    | l -> Ok l
    | exception (Invalid_argument _ as e) -> Error e
  in
  let listed = List.rev_map (fun bid -> (bid, insts_of bid)) !order in
  let slot_of : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let ids = ref [] in
  List.iter
    (fun (_, r) ->
      match r with
      | Ok l ->
        List.iter
          (fun (i : Instr.inst) ->
            if not (Hashtbl.mem slot_of i.Instr.id) then begin
              Hashtbl.add slot_of i.Instr.id (Hashtbl.length slot_of);
              ids := i.Instr.id :: !ids
            end)
          l
      | Error _ -> ())
    listed;
  (* a branch target no block has gets an index too; it faults on entry *)
  let target bid = add bid; Hashtbl.find index bid in
  let opnd = function
    | Instr.Cint n -> Const (VI n)
    | Instr.Cfloat x -> Const (VF x)
    | Instr.Null -> Const (VP 0)
    | Instr.Arg i -> Param i
    | Instr.Reg r -> (
      match Hashtbl.find_opt slot_of r with Some k -> Slot k | None -> Undef r)
    | Instr.Glob g -> (
      match Hashtbl.find_opt st.global_addr g with
      | Some a -> Const (VP a)
      | None -> (
        match Hashtbl.find_opt st.fun_addr g with
        | Some a -> Const (VP a)
        | None -> Unknown_global g))
  in
  let step (i : Instr.inst) =
    let code =
      match i.Instr.op with
      | Instr.Bin (op, a, b) -> Bin (op, opnd a, opnd b)
      | Instr.Fbin (op, a, b) -> Fbin (op, opnd a, opnd b)
      | Instr.Icmp (c, a, b) -> Icmp (c, opnd a, opnd b)
      | Instr.Fcmp (c, a, b) -> Fcmp (c, opnd a, opnd b)
      | Instr.Cast (k, a) -> Cast (k, opnd a)
      | Instr.Alloca n -> Alloca (opnd n)
      | Instr.Load p -> Load (opnd p)
      | Instr.Store (x, p) -> Store (opnd x, opnd p)
      | Instr.Gep (p, idx) -> Gep (opnd p, opnd idx)
      | Instr.Call (c, args) ->
        let c = match c with Instr.Glob g -> Direct g | v -> Indirect (opnd v) in
        Call (c, List.map opnd args, not (Ty.equal i.Instr.ty Ty.Void))
      | Instr.Select (c, a, b) -> Select (opnd c, opnd a, opnd b)
      | Instr.Br t -> Br (target t)
      | Instr.Cbr (c, t, e) -> Cbr (opnd c, target t, target e)
      | Instr.Ret vo -> Ret (Option.map opnd vo)
      | Instr.Unreachable -> Unreachable
      | Instr.Phi _ -> assert false
    in
    { inst = i; dst = Hashtbl.find slot_of i.Instr.id; code }
  in
  let block (bid, r) =
    match r with
    | Error e ->
      { bid; fault = Some e; phis = [||]; phi_dst = [||]; phi_preds = [||];
        phi_rows = [||]; no_row = [||]; body = [||] }
    | Ok l ->
      let phis, rest =
        List.partition (fun i -> match i.Instr.op with Instr.Phi _ -> true | _ -> false) l
      in
      (* executed non-phis stop at the first terminator *)
      let rec cut = function
        | [] -> []
        | i :: rest -> if Instr.is_terminator i then [ i ] else i :: cut rest
      in
      let incs =
        List.map (fun (i : Instr.inst) ->
            match i.Instr.op with Instr.Phi incs -> incs | _ -> assert false) phis
      in
      let preds = List.sort_uniq compare (List.concat_map (List.map fst) incs) in
      (* [List.assoc_opt]: the first entry for a predecessor wins *)
      let row p =
        Array.of_list (List.map (fun inc -> Option.map opnd (List.assoc_opt p inc)) incs)
      in
      let phis = Array.of_list phis in
      {
        bid;
        fault = None;
        phis;
        phi_dst = Array.map (fun (i : Instr.inst) -> Hashtbl.find slot_of i.Instr.id) phis;
        phi_preds = Array.of_list preds;
        phi_rows = Array.of_list (List.map row preds);
        no_row = Array.make (Array.length phis) None;
        body = Array.of_list (List.map step (cut rest));
      }
  in
  let compiled = List.map block listed in
  let missing = List.filteri (fun k _ -> k >= List.length listed) (List.rev !order) in
  let blocks =
    Array.of_list (compiled @ List.map (fun bid -> block (bid, insts_of bid)) missing)
  in
  { func = f; ids = Array.of_list (List.rev !ids); blocks }

(** The layout of [f] in [st], compiled on its first call in this state.
    The cache is per state, never global: passes rewrite functions in place
    between runs, and each run starts from a fresh state. *)
let layout (st : state) (f : Func.t) =
  match Hashtbl.find_opt st.layouts f.Func.fname with
  | Some l when l.func == f -> l
  | _ ->
    let l = compile st f in
    Hashtbl.replace st.layouts f.Func.fname l;
    l

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

let shift_mask n = Int64.to_int (Int64.logand n 63L)

let eval_bin op a b =
  let open Instr in
  match op with
  | Add -> Int64.add a b
  | Sub -> Int64.sub a b
  | Mul -> Int64.mul a b
  | Sdiv -> if Int64.equal b 0L then trap "division by zero" else Int64.div a b
  | Srem -> if Int64.equal b 0L then trap "remainder by zero" else Int64.rem a b
  | And -> Int64.logand a b
  | Or -> Int64.logor a b
  | Xor -> Int64.logxor a b
  | Shl -> Int64.shift_left a (shift_mask b)
  | Ashr -> Int64.shift_right a (shift_mask b)

let eval_fbin op a b =
  let open Instr in
  match op with
  | Fadd -> a +. b
  | Fsub -> a -. b
  | Fmul -> a *. b
  | Fdiv -> a /. b

let[@inline] eval_cmp (cmp : Instr.cmp) c =
  match cmp with
  | Eq -> c = 0
  | Ne -> c <> 0
  | Slt -> c < 0
  | Sle -> c <= 0
  | Sgt -> c > 0
  | Sge -> c >= 0

type frame = {
  lay : layout;
  regs : v array;                  (** one slot per instruction id *)
  args : v array;
  mutable allocas : int list;      (** freed when the frame returns *)
}

let[@inline] read (fr : frame) = function
  | Slot k ->
    let v = Array.unsafe_get fr.regs k in
    if v == undef then
      trap "%s: register %%%d read before definition" fr.lay.func.Func.fname fr.lay.ids.(k)
    else v
  | Const v -> v
  | Param i -> fr.args.(i)
  | Undef r -> trap "%s: register %%%d read before definition" fr.lay.func.Func.fname r
  | Unknown_global g -> trap "%s: unknown global @%s" fr.lay.func.Func.fname g

(* rollback reports need actionable traps: re-raise with the faulting
   function/block/instruction attached (calls excepted — the callee frame
   already annotated, and builtin messages keep their own prefix) *)
let ctx_trap (f : Func.t) (i : Instr.inst) msg =
  let lbl =
    match Hashtbl.find_opt f.Func.blks i.Instr.parent with
    | Some b -> b.Func.label
    | None -> "?"
  in
  trap "%s/%s: inst %d: %s" f.Func.fname lbl i.Instr.id msg

(* evaluate a block's phis against the incoming edge from [prev], then
   count them, then commit: phis read the values live on entry *)
let enter_phis (st : state) (fr : frame) (b : block_code) prev =
  let f = fr.lay.func in
  let row =
    let rec find k =
      if k = Array.length b.phi_preds then b.no_row
      else if b.phi_preds.(k) = prev then b.phi_rows.(k)
      else find (k + 1)
    in
    find 0
  in
  let n = Array.length b.phis in
  let vals = Array.make n undef in
  for j = 0 to n - 1 do
    let i = b.phis.(j) in
    match row.(j) with
    | Some o -> vals.(j) <- (try read fr o with Trap msg -> ctx_trap f i msg)
    | None ->
      ctx_trap f i
        (Printf.sprintf "phi %%%d has no incoming value for block %d" i.Instr.id prev)
  done;
  for j = 0 to n - 1 do
    st.steps <- st.steps + 1;
    st.clock <- Int64.add st.clock 1L;
    match st.hooks.on_inst with Some h -> h f b.phis.(j) | None -> ()
  done;
  for j = 0 to n - 1 do
    fr.regs.(b.phi_dst.(j)) <- vals.(j)
  done

(** Call the function named [fname] with [args].  Returns its return value
    ([VI 0L] for void).  Builtins, defined functions and declarations that
    resolve to builtins are all accepted. *)
let rec call (st : state) (fname : string) (args : v list) : v =
  match Hashtbl.find_opt st.builtins fname with
  | Some b ->
    (match st.hooks.on_builtin with Some h -> h fname args | None -> ());
    b st args
  | None -> (
    match Irmod.func_opt st.m fname with
    | Some f when not f.Func.is_declaration -> exec_func st f (Array.of_list args)
    | Some _ -> trap "call to declaration %s with no builtin" fname
    | None -> trap "call to unknown function %s" fname)

(** Run [f] on [args] in a fresh frame.  The step loop reads [st.hooks]
    at every step: a builtin may swap a hook in the middle of a frame (the
    parallel runtime does), and the change takes effect at the next step. *)
and exec_func (st : state) (f : Func.t) (args : v array) : v =
  if Array.length args <> Array.length f.Func.params then
    trap "%s: expected %d arguments, got %d" f.Func.fname
      (Array.length f.Func.params) (Array.length args);
  let lay = layout st f in
  if Array.length lay.blocks = 0 then ignore (Func.entry f);
  let fr = { lay; regs = Array.make (Array.length lay.ids) undef; args; allocas = [] } in
  let result = ref (VI 0L) in
  let finished = ref false in
  let cur = ref 0 in
  let prev = ref (-1) in
  while not !finished do
    let blk = lay.blocks.(!cur) in
    (match st.hooks.on_block with Some h -> h f blk.bid | None -> ());
    (match blk.fault with Some e -> raise e | None -> ());
    if Array.length blk.phis > 0 then enter_phis st fr blk !prev;
    let body = blk.body in
    let n = Array.length body in
    let k = ref 0 in
    while !k < n do
      let s = body.(!k) in
      incr k;
      st.steps <- st.steps + 1;
      st.clock <- Int64.add st.clock 1L;
      st.fuel <- st.fuel - 1;
      if st.fuel <= 0 then ctx_trap f s.inst "out of fuel (infinite loop?)";
      (match st.hooks.on_inst with Some h -> h f s.inst | None -> ());
      match s.code with
      | Call (callee, cargs, keep) ->
        let name =
          match callee with
          | Direct g -> g
          | Indirect v -> (
            let addr = as_ptr (read fr v) in
            match Hashtbl.find_opt st.addr_fun addr with
            | Some n -> n
            | None -> trap "%s: indirect call to non-function address %d" f.Func.fname addr)
        in
        (match st.hooks.on_call with
        | Some h -> h ~caller:f.Func.fname ~callee:name
        | None -> ());
        let r = call st name (List.map (read fr) cargs) in
        if keep then fr.regs.(s.dst) <- r
      | Br t ->
        prev := blk.bid;
        cur := t;
        k := n
      | Cbr (c, t, e) ->
        prev := blk.bid;
        (cur :=
           try if Int64.equal (as_int (read fr c)) 0L then e else t
           with Trap msg -> ctx_trap f s.inst msg);
        k := n
      | Ret vo ->
        (result :=
           try match vo with Some v -> read fr v | None -> VI 0L
           with Trap msg -> ctx_trap f s.inst msg);
        finished := true;
        k := n
      | code -> (
        let i = s.inst in
        try
          match code with
          | Bin (op, a, b) ->
            fr.regs.(s.dst) <- VI (eval_bin op (as_int (read fr a)) (as_int (read fr b)))
          | Fbin (op, a, b) ->
            fr.regs.(s.dst) <- VF (eval_fbin op (as_float (read fr a)) (as_float (read fr b)))
          | Icmp (c, a, b) ->
            let x = as_int (read fr a) and y = as_int (read fr b) in
            fr.regs.(s.dst) <- VI (if eval_cmp c (Int64.compare x y) then 1L else 0L)
          | Fcmp (c, a, b) ->
            let x = as_float (read fr a) and y = as_float (read fr b) in
            fr.regs.(s.dst) <- VI (if eval_cmp c (Float.compare x y) then 1L else 0L)
          | Cast (kind, a) ->
            let v = read fr a in
            fr.regs.(s.dst) <-
              (match kind with
              | Instr.Sitofp -> VF (Int64.to_float (as_int v))
              | Instr.Fptosi -> VI (Int64.of_float (as_float v))
              | Instr.Ptrtoint -> VI (Int64.of_int (as_ptr v))
              | Instr.Inttoptr -> VP (Int64.to_int (as_int v)))
          | Alloca n ->
            let base = allocate st (Int64.to_int (as_int (read fr n))) in
            fr.allocas <- base :: fr.allocas;
            fr.regs.(s.dst) <- VP base
          | Load p ->
            let addr = as_ptr (read fr p) in
            (match st.hooks.on_mem with Some h -> h f i ~addr ~write:false | None -> ());
            fr.regs.(s.dst) <- load_word st addr
          | Store (x, p) ->
            let addr = as_ptr (read fr p) in
            (match st.hooks.on_mem with Some h -> h f i ~addr ~write:true | None -> ());
            let v = read fr x in
            (match st.hooks.on_store with Some h -> h f i ~addr ~value:v | None -> ());
            store_word st addr v
          | Gep (p, idx) ->
            fr.regs.(s.dst) <- VP (as_ptr (read fr p) + Int64.to_int (as_int (read fr idx)))
          | Select (c, a, b) ->
            fr.regs.(s.dst) <- (if Int64.equal (as_int (read fr c)) 0L then read fr b else read fr a)
          | Unreachable -> trap "reached unreachable"
          | Call _ | Br _ | Cbr _ | Ret _ -> assert false
        with Trap msg -> ctx_trap f i msg)
    done
    (* a block with no terminator falls back into itself, [prev] unchanged *)
  done;
  (* free frame allocas *)
  List.iter
    (fun base ->
      match Hashtbl.find_opt st.allocs base with
      | Some a -> a.alive <- false
      | None -> ())
    fr.allocas;
  !result

(** Run [main] (or [entry]) with integer arguments; returns (exit value,
    program output). *)
let run ?(entry = "main") ?(args = []) ?fuel (m : Irmod.t) =
  let st = create m in
  (match fuel with Some f -> st.fuel <- f | None -> ());
  let r = call st entry (List.map (fun n -> VI (Int64.of_int n)) args) in
  Trace.incr_m "interp.runs";
  Trace.add "interp.steps" st.steps;
  (r, Buffer.contents st.output)

(** Like {!run} but returns the full state for inspection. *)
let run_state ?(entry = "main") ?(args = []) ?fuel ?(configure = fun (_ : state) -> ()) (m : Irmod.t) =
  let st = create m in
  (match fuel with Some f -> st.fuel <- f | None -> ());
  configure st;
  let r = call st entry (List.map (fun n -> VI (Int64.of_int n)) args) in
  Trace.incr_m "interp.runs";
  Trace.add "interp.steps" st.steps;
  (r, st)
