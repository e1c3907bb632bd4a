(** IR interpreter.

    Executes a module with a word-granularity memory model.  The interpreter
    is the substrate that replaces native execution in this reproduction:
    NOELLE's profiler ({!Noelle.Profiler} in [lib/core]) reads the
    layouts' execution counters after a run; the parallel runtime
    ([lib/psim]) registers extra builtins (queues, signals, task spawning)
    and drives task functions as effect-based fibers with per-core virtual
    clocks; CARAT and COOS register their runtime entry points the same
    way.

    Addresses are plain integers (words).  Address 0 is the null pointer and
    never allocated.  Every allocation (global, alloca, malloc) is recorded
    in one index by base address ({!alloc_index}): the CARAT guard
    validates accesses against it, and the recorder ({!Obs}) names the
    observable allocations in it.

    Execution model.  On its first call in a {!state}, a function is
    compiled into a frame layout ({!compile}, cached in [state.layouts]):
    one dense slot per SSA id, operands pre-resolved to a constant, slot,
    argument or global/function address, blocks in an array with
    successors as indices, one phi move row per predecessor, and block
    bodies cut at the first terminator.  A call takes a frame of
    {!words} whose registers are all undefined (a copy of the layout's
    template, or a frame a returned call left in the layout's pool) and
    runs the single step loop in {!exec}.  Each step counts [steps] and
    [clock], spends one unit of [fuel] (phis count steps and clock but
    not fuel), counts itself in the layout's [executed], calls the
    [on_inst] hook if one is installed, then executes; a trap from a
    non-call instruction is re-raised with the function, block and
    instruction attached.  Entering a block bumps its [entries] counter,
    a conditional branch its [taken] or [not_taken] counter, and a call
    its callee's count on the call step: the profiler
    ({!Noelle.Profiler}) reads these after the run instead of hooking
    every step.  The loop re-reads [st.hooks] at every step, because a
    builtin may swap a hook in the middle of a frame (the parallel runtime
    does).  Layouts are never shared across states: passes rewrite
    functions in place between runs, and each run starts from a fresh
    state.

    Calls.  A call step resolves its callee on its first execution
    ({!resolution}) and keeps the answer in the step: a builtin (builtins
    shadow module functions of their name), a defined function's layout,
    or the failure the call raises once its arguments are read (an
    unknown function, a declaration with no builtin, an arity mismatch).
    An indirect step keeps one such target per function address it has
    called.  {!register_builtin} bumps the state's [stamp], and a step
    resolved under an older stamp resolves again, so a builtin
    registered mid-run takes effect at each step's next call.  A call of
    a defined function copies the argument words from the caller's slots
    into the callee's parameter slots, and the callee's [ret] leaves its
    word in [st.ret] for the caller to copy into its destination slot:
    no name is looked up and no value is boxed.

    Values are unboxed inside the loop.  Frames and memory are {!words}:
    a tag byte per word (0 undefined, 1 int, 2 float, 3 pointer), the
    int64 bits of ints and pointers in a [Bytes], and floats in a
    [Float.Array].  Typed readers ({!rd_int}, {!rd_flt}, {!rd_ptr}) read
    an operand straight into an unboxed number and raise the conversion
    traps of {!as_int}/{!as_float}/{!as_ptr}; [load], [store], [select]
    and phis copy a word (tag and bits) without looking at it.  The boxed
    {!v} is the type at the boundary only: {!call} arguments and results
    (the entry of a run, Psim's tasks), builtins, hooks, {!load_word}.
    So a step allocates nothing unless it calls a builtin or allocates
    memory: [clock] is an [int] (the parallel runtime and the tool
    runtimes convert at their edges), and an [alloca] or a direct call
    to [malloc] records its allocation site in [site_fn]/[site_id] for
    {!allocate}, which clears it once the [on_alloc] hook has seen it.
    The recorder ({!Obs}) names escaping heap allocations from that site. *)

type v = VI of int64 | VF of float | VP of int

exception Trap of string

let trap fmt = Printf.ksprintf (fun s -> raise (Trap s)) fmt

let v_to_string = function
  | VI n -> Int64.to_string n
  | VF f -> Printf.sprintf "%.6g" f
  | VP p -> Printf.sprintf "&%d" p

(** An allocation.  [name] is [""] unless the recorder ({!Obs}) named
    it observable: a global ([@g]) or an escaping heap object ([heap#0]). *)
type alloc = { base : int; size : int; mutable alive : bool; mutable name : string }

(** {2 Words}

    Frames and memory hold unboxed words in three parallel arrays: a tag
    byte per word, 8 bytes of int64 bits per word for ints and pointers
    (a pointer [p] is stored as [Int64.of_int p]), and a float per word.
    A word's bits or float is meaningless unless its tag says so; a word
    copy moves all three, so it never looks at the tag. *)

type words = {
  tags : Bytes.t;          (** 0 undefined, 1 int, 2 float, 3 pointer *)
  bits : Bytes.t;
  flts : Float.Array.t;
}

let tag_undef = '\000'
let tag_int = '\001'
let tag_flt = '\002'
let tag_ptr = '\003'

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* [n] words tagged [tag] with zero bits; floats are left uninitialised
   where the tag is not a float, since no read looks at them *)
let make_words n tag =
  { tags = Bytes.make n tag; bits = Bytes.make (8 * n) '\000'; flts = Float.Array.create n }

let copy_words w =
  { tags = Bytes.copy w.tags; bits = Bytes.copy w.bits; flts = Float.Array.copy w.flts }

(** Write boxed [v] into word [j]. *)
let[@inline] put w j = function
  | VI n ->
    Bytes.unsafe_set w.tags j tag_int;
    set64u w.bits (j lsl 3) n
  | VF x ->
    Bytes.unsafe_set w.tags j tag_flt;
    Float.Array.unsafe_set w.flts j x
  | VP p ->
    Bytes.unsafe_set w.tags j tag_ptr;
    set64u w.bits (j lsl 3) (Int64.of_int p)

(** Box word [j]; an undefined word reads as [VI] of its bits. *)
let get w j =
  match Bytes.unsafe_get w.tags j with
  | '\002' -> VF (Float.Array.unsafe_get w.flts j)
  | '\003' -> VP (Int64.to_int (get64u w.bits (j lsl 3)))
  | _ -> VI (get64u w.bits (j lsl 3))

(** Copy word [i] of [src] to word [j] of [dst]. *)
let[@inline] blit src i dst j =
  Bytes.unsafe_set dst.tags j (Bytes.unsafe_get src.tags i);
  set64u dst.bits (j lsl 3) (get64u src.bits (i lsl 3));
  Float.Array.unsafe_set dst.flts j (Float.Array.unsafe_get src.flts i)

type hooks = {
  mutable on_block : (Func.t -> int -> unit) option;
      (** called when control enters a basic block *)
  mutable on_inst : (Func.t -> Instr.inst -> unit) option;
      (** called before each executed instruction *)
  mutable on_mem : (Func.t -> Instr.inst -> addr:int -> write:bool -> unit) option;
      (** called for every load/store with its resolved address *)
  mutable on_alloc : (alloc -> unit) option;
      (** called after every allocation (global, alloca, malloc) with its
          record; the state's [site_fn]/[site_id] name the instruction
          that made it *)
  mutable on_store : (Func.t -> Instr.inst -> addr:int -> unit) option;
      (** called after a store commits; {!load_word} reads the value *)
}

(** {2 Frame layouts}

    A function is translated once per {!state} into a [layout]: every
    instruction id that some block lists gets a dense frame slot, operands
    are pre-resolved to frame slots, blocks sit in an array with
    successors as indices, and each block keeps one phi move row per
    predecessor.  A frame holds every operand a step can name: the
    register slots, then one slot per parameter (filled from the
    arguments on entry), then, in order of first use, a slot per
    distinct constant or global/function address (set in the layout's
    [template]) and per failed lookup.  So every operand read is a read
    of a frame word.  A lookup that fails at compile time is kept as a
    deferred failure (a register no listed instruction defines, an
    unknown global, a block's [fault]) raised when execution reaches
    it, with the text a lookup at that step would give: an undefined
    register gets a slot that is never written, and any other failure a
    fault slot, whose tag stays 0 too. *)

(** An operand: the index of a frame slot. *)
type opnd = int

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
  | Call of call_site
  | Select of opnd * opnd * opnd
  | Br of int                            (** block index *)
  | Cbr of opnd * int * int
  | Ret of opnd option
  | Unreachable

and call_site = {
  callee : callee;
  cargs : opnd array;
  keep : bool;                     (** the result is kept *)
  alloc_site : bool;               (** a direct call to [malloc]: an allocation site *)
}

and callee =
  | Direct of target
  | Indirect of { fp : opnd; mutable seen : target list }
      (** one target per function address called through this step *)

(** A callee of one call step, resolved on the step's first execution
    and again whenever a builtin was registered since ({!resolved}). *)
and target = {
  name : string;
  addr : int;                      (** its function address; [0] for a direct call *)
  mutable calls : int;             (** calls made to it from this step, counted before they run *)
  mutable resolved : resolved;
  mutable resolved_at : int;       (** [st.stamp] when resolved; [-1] before the first call *)
}

and resolved =
  | Builtin of builtin
  | Defined of layout
  | Fails of exn
      (** raised when the call is reached, after its arguments are read:
          an unknown function, a declaration with no builtin, an arity
          mismatch or a function with no blocks *)

and step = { inst : Instr.inst; dst : int; code : code }

and block_code = {
  bid : int;
  mutable entries : int;           (** times control entered the block *)
  mutable taken : int;             (** executions of its [cbr] to the true target *)
  mutable not_taken : int;         (** ... and to the false target *)
  fault : exn option;              (** [Func.insts_of_block] failed: raised on entry *)
  phis : Instr.inst array;         (** every phi of the block, in order *)
  phi_dst : int array;
  phi_preds : int array;           (** predecessor block ids with a move row *)
  phi_rows : opnd array array;
      (** per predecessor: one source per phi, [-1] = no incoming value *)
  no_row : opnd array;             (** the row for any other predecessor *)
  scratch : words;
      (** the phis' values between their reads and their commit; no call
          runs in between, so one row per block serves every frame *)
  body : step array;               (** non-phis, cut after the first terminator *)
}

and layout = {
  func : Func.t;
  ids : int array;                 (** slot -> the register it holds, or [-1] *)
  params : int;                    (** slot of parameter 0 *)
  faults : (int * exn) list;       (** fault slot -> what reading it raises *)
  template : words;                (** a fresh frame: constants in place, the rest undefined *)
  mutable pool : frame array;
  mutable free : int;
      (** [pool.(0 .. free-1)] are frames of returned calls, for reuse:
          only a register or parameter slot is ever written, so a frame
          is fresh again once its register tags are cleared *)
  blocks : block_code array;       (** index 0 is the entry block *)
  mutable executed : int;          (** steps run in this function, phis included *)
}

and frame = {
  lay : layout;
  w : words;                       (** one word per slot *)
  mutable allocas : int list;      (** freed when the frame returns *)
}

and state = {
  m : Irmod.t;
  mutable mem : words;
  mutable brk : int;                       (** bump pointer: next free word *)
  by_base : alloc_index;                   (** every allocation, by base *)
  global_addr : (string, int) Hashtbl.t;
  fun_addr : (string, int) Hashtbl.t;
  addr_fun : (int, string) Hashtbl.t;
  output : Buffer.t;                       (** text written by print builtins *)
  mutable steps : int;                     (** executed instructions (global) *)
  mutable fuel : int;                      (** remaining instruction budget *)
  mutable clock : int;                     (** per-task virtual cycles (swappable) *)
  hooks : hooks;
  builtins : (string, builtin) Hashtbl.t;  (** written through {!register_builtin} *)
  mutable stamp : int;                     (** bumped by every {!register_builtin} *)
  mutable rng : int64;                     (** state of the default rand() *)
  user : (string, int64) Hashtbl.t;        (** scratch counters for tool runtimes *)
  layouts : (string, layout) Hashtbl.t;    (** function name -> its frame layout *)
  ret : words;                             (** word 0: the value the last [ret] returned *)
  mutable site_fn : string;                (** function of the pending allocation site *)
  mutable site_id : int;                   (** its instruction id; [-1]: none pending *)
}

(** Every allocation in increasing base order, dead ones included: the
    first [n] entries of [bases] and [recs], two parallel arrays so that
    a search reads only ints.  The bump pointer puts each allocation at
    or past the end of every one below it, so the greatest base at or
    below an address is the only allocation that can cover it, and a new
    allocation is appended.  Whoever rewinds the bump pointer puts the
    index back with it: a Psim section retry restores [brk] together
    with a copy of the index ({!restore_allocs}), so a record may be
    replaced: hold a base, not a record, across a call. *)
and alloc_index = {
  mutable n : int;
  mutable bases : int array;
  mutable recs : alloc array;
}

and builtin = state -> v list -> v

(* function addresses live far above data so they can never collide *)
let fun_addr_base = 1 lsl 40

(* memory words start as [VI 0L] *)
let ensure_capacity st n =
  let cap = Bytes.length st.mem.tags in
  if n > cap then begin
    let ncap = max (2 * cap) (n + 1024) in
    let nm = make_words ncap tag_int in
    Bytes.blit st.mem.tags 0 nm.tags 0 cap;
    Bytes.blit st.mem.bits 0 nm.bits 0 (8 * cap);
    Float.Array.blit st.mem.flts 0 nm.flts 0 cap;
    st.mem <- nm
  end

(* index of the greatest base <= addr in [ix], or -1: the one search
   over allocations *)
let floor_alloc ix addr =
  let lo = ref 0 and hi = ref (ix.n - 1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) lsr 1 in
    if Array.unsafe_get ix.bases mid <= addr then lo := mid + 1 else hi := mid - 1
  done;
  !hi

(** The index in [ix] of the allocation whose base is [base], or [-1]. *)
let alloc_at ix base =
  let k = floor_alloc ix base in
  if k >= 0 && Array.unsafe_get ix.bases k = base then k else -1

(** The index in [ix] of the allocation covering [addr], live or dead,
    or [-1].  Allocates nothing. *)
let covering ix addr =
  let k = floor_alloc ix addr in
  if k >= 0 && addr < (let a = Array.unsafe_get ix.recs k in a.base + a.size) then k else -1

(* append [a], whose base is past every base in the index *)
let record_alloc st (a : alloc) =
  let ix = st.by_base in
  if ix.n = Array.length ix.recs then begin
    let cap = max 16 (2 * ix.n) in
    ix.bases <- Array.append ix.bases (Array.make (cap - ix.n) 0);
    ix.recs <- Array.append ix.recs (Array.make (cap - ix.n) a)
  end;
  ix.bases.(ix.n) <- a.base;
  ix.recs.(ix.n) <- a;
  ix.n <- ix.n + 1

(* a copy of [ix] with copies of its records, whose [alive] and [name]
   are mutable *)
let copy_index ix =
  { n = ix.n; bases = Array.sub ix.bases 0 ix.n;
    recs = Array.init ix.n (fun k -> let a = ix.recs.(k) in { a with alive = a.alive }) }

(** A copy of every allocation: what a Psim section saves so that a
    retry can put the allocations back with {!restore_allocs}. *)
let save_allocs st = copy_index st.by_base

(** Replace every allocation by a copy of those [saved] holds; [saved]
    stays as it is, for the next retry. *)
let restore_allocs st saved =
  let c = copy_index saved in
  st.by_base.n <- c.n;
  st.by_base.bases <- c.bases;
  st.by_base.recs <- c.recs

(** Allocate [size] words; returns the base address. *)
let allocate st size =
  if size < 0 then trap "negative allocation size %d" size;
  let base = st.brk in
  st.brk <- st.brk + max size 1;
  ensure_capacity st st.brk;
  let a = { base; size; alive = true; name = "" } in
  record_alloc st a;
  (match st.hooks.on_alloc with Some h -> h a | None -> ());
  st.site_id <- -1;
  base

(** The word at [addr], boxed. *)
let load_word st addr =
  if addr <= 0 || addr >= st.brk then trap "load from invalid address %d" addr;
  get st.mem addr

(** Does [addr] fall inside a live allocation?  Used by the CARAT runtime.
    One binary search over the allocations by base; allocates nothing. *)
let addr_is_guarded_valid st addr =
  let k = covering st.by_base addr in
  k >= 0 && (Array.unsafe_get st.by_base.recs k).alive

(* mark the allocation with base [base] dead; [false] if there is none *)
let kill st base =
  let k = alloc_at st.by_base base in
  if k >= 0 then (Array.unsafe_get st.by_base.recs k).alive <- false;
  k >= 0

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
         if not (kill st base) then trap "free: %d is not an allocation base" base)
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
      mem = make_words 4096 tag_int;
      brk = 16;
      by_base = { n = 0; bases = [||]; recs = [||] };
      global_addr = Hashtbl.create 16;
      fun_addr = Hashtbl.create 16;
      addr_fun = Hashtbl.create 16;
      output = Buffer.create 256;
      steps = 0;
      fuel = 200_000_000;
      clock = 0;
      hooks =
        {
          on_block = None;
          on_inst = None;
          on_mem = None;
          on_alloc = None;
          on_store = None;
        };
      builtins = Hashtbl.create 16;
      stamp = 0;
      rng = 88172645463325252L;
      user = Hashtbl.create 8;
      layouts = Hashtbl.create 16;
      ret = make_words 1 tag_int;
      site_fn = "";
      site_id = -1;
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
              put st.mem (base + i)
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

(** Install [fn] as builtin [name], in place of any builtin or module
    function of that name; a call step that resolved [name] before picks
    it up at its next execution. *)
let register_builtin st name fn =
  Hashtbl.replace st.builtins name fn;
  st.stamp <- st.stamp + 1

(* ------------------------------------------------------------------ *)
(* Frame layouts                                                       *)
(* ------------------------------------------------------------------ *)

(** A call target named [name], not yet resolved: [resolved_at] is
    below any state's stamp, so the first call resolves it ([resolved] is
    a placeholder until then). *)
let unresolved name addr =
  { name; addr; calls = 0; resolved = Fails Not_found; resolved_at = -1 }

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
  List.iter add (Func.blocks f);
  List.iter add (Func.block_ids f);
  let insts_of bid =
    match Func.insts_of_block f bid with
    | l -> Ok l
    | exception (Invalid_argument _ as e) -> Error e
  in
  let listed = List.rev_map (fun bid -> (bid, insts_of bid)) !order in
  let slot_of : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let ids_rev = ref [] in
  List.iter
    (fun (_, r) ->
      match r with
      | Ok l ->
        List.iter
          (fun (i : Instr.inst) ->
            if not (Hashtbl.mem slot_of i.Instr.id) then begin
              Hashtbl.add slot_of i.Instr.id (Hashtbl.length slot_of);
              ids_rev := i.Instr.id :: !ids_rev
            end)
          l
      | Error _ -> ())
    listed;
  (* a branch target no block has gets an index too; it faults on entry *)
  let target bid = add bid; Hashtbl.find index bid in
  (* the parameter slots follow the registers; every other slot is made
     on its operand's first use *)
  let nparams = Array.length f.Func.params in
  let params = Hashtbl.length slot_of in
  let nslots = ref (params + nparams) in
  let fresh () =
    let k = !nslots in
    incr nslots;
    k
  in
  let consts = ref [] and faults = ref [] and undefs = ref [] in
  let interned = Hashtbl.create 16 in
  let intern key make =
    match Hashtbl.find_opt interned key with
    | Some k -> k
    | None ->
      let k = make () in
      Hashtbl.add interned key k;
      k
  in
  (* constants are keyed by their bits, so [-0.0] and each NaN payload
     keep their own slot *)
  let const key v =
    intern key (fun () ->
        let k = fresh () in
        consts := (k, v) :: !consts;
        k)
  in
  let fault key e =
    intern key (fun () ->
        let k = fresh () in
        faults := (k, e) :: !faults;
        k)
  in
  let opnd = function
    | Instr.Cint n -> const (`I n) (VI n)
    | Instr.Cfloat x -> const (`F (Int64.bits_of_float x)) (VF x)
    | Instr.Null -> const (`P 0) (VP 0)
    | Instr.Arg i when i >= 0 && i < nparams -> params + i
    | Instr.Arg i -> fault (`A i) (Invalid_argument "index out of bounds")
    | Instr.Reg r -> (
      match Hashtbl.find_opt slot_of r with
      | Some k -> k
      | None ->
        intern (`R r) (fun () ->
            let k = fresh () in
            undefs := (k, r) :: !undefs;
            k))
    | Instr.Glob g -> (
      let addr =
        match Hashtbl.find_opt st.global_addr g with
        | Some a -> Some a
        | None -> Hashtbl.find_opt st.fun_addr g
      in
      match addr with
      | Some a -> const (`P a) (VP a)
      | None ->
        fault (`G g)
          (Trap (Printf.sprintf "%s: unknown global @%s" f.Func.fname g)))
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
        let callee =
          match c with
          | Instr.Glob g -> Direct (unresolved g 0)
          | v -> Indirect { fp = opnd v; seen = [] }
        in
        Call { callee; cargs = Array.of_list (List.map opnd args);
               keep = not (Ty.equal i.Instr.ty Ty.Void);
               alloc_site = (match c with Instr.Glob "malloc" -> true | _ -> false) }
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
      { bid; entries = 0; taken = 0; not_taken = 0; fault = Some e; phis = [||];
        phi_dst = [||]; phi_preds = [||]; phi_rows = [||]; no_row = [||];
        scratch = make_words 0 tag_undef; body = [||] }
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
        Array.of_list
          (List.map
             (fun inc -> match List.assoc_opt p inc with Some v -> opnd v | None -> -1)
             incs)
      in
      let phis = Array.of_list phis in
      {
        bid;
        entries = 0;
        taken = 0;
        not_taken = 0;
        fault = None;
        phis;
        phi_dst = Array.map (fun (i : Instr.inst) -> Hashtbl.find slot_of i.Instr.id) phis;
        phi_preds = Array.of_list preds;
        phi_rows = Array.of_list (List.map row preds);
        no_row = Array.make (Array.length phis) (-1);
        scratch = make_words (Array.length phis) tag_undef;
        body = Array.of_list (List.map step (cut rest));
      }
  in
  let compiled = List.map block listed in
  let missing = List.filteri (fun k _ -> k >= List.length listed) (List.rev !order) in
  let blocks =
    Array.of_list (compiled @ List.map (fun bid -> block (bid, insts_of bid)) missing)
  in
  let ids = Array.make !nslots (-1) in
  List.iteri (fun k id -> ids.(k) <- id) (List.rev !ids_rev);
  List.iter (fun (k, r) -> ids.(k) <- r) !undefs;
  let template = make_words !nslots tag_undef in
  List.iter (fun (k, v) -> put template k v) !consts;
  { func = f; ids; params; faults = !faults; template; pool = [||]; free = 0; blocks;
    executed = 0 }

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

(* [raise], not {!trap}: see the typed readers below *)
let[@inline] eval_bin op a b =
  let open Instr in
  match op with
  | Add -> Int64.add a b
  | Sub -> Int64.sub a b
  | Mul -> Int64.mul a b
  | Sdiv -> if Int64.equal b 0L then raise (Trap "division by zero") else Int64.div a b
  | Srem -> if Int64.equal b 0L then raise (Trap "remainder by zero") else Int64.rem a b
  | And -> Int64.logand a b
  | Or -> Int64.logor a b
  | Xor -> Int64.logxor a b
  | Shl -> Int64.shift_left a (shift_mask b)
  | Ashr -> Int64.shift_right a (shift_mask b)

let[@inline] eval_fbin op a b =
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

(* The readers raise an exception that they build with these functions,
   rather than call {!trap}: a branch that raises keeps the read's
   result an unboxed number, a function call in its place would not. *)

(** What reading slot [k] with tag 0 raises. *)
let undefined (fr : frame) k =
  match List.assoc_opt k fr.lay.faults with
  | Some e -> e
  | None ->
    Trap
      (Printf.sprintf "%s: register %%%d read before definition" fr.lay.func.Func.fname
         fr.lay.ids.(k))

(* the trap of reading slot [k] as [conv] when its tag does not fit:
   the boxed conversion raises exactly what a boxed read raised *)
let mistyped conv (fr : frame) k =
  if Bytes.unsafe_get fr.w.tags k = tag_undef then undefined fr k
  else try ignore (conv (get fr.w k)); assert false with Trap _ as e -> e

(** Slot [k], boxed: the boundary read, for call arguments and results. *)
let operand (fr : frame) k =
  if Bytes.unsafe_get fr.w.tags k = tag_undef then raise (undefined fr k);
  get fr.w k

(* The typed readers: tags 1 (int) and 3 (pointer) both read as an
   integer or a pointer, as [as_int] and [as_ptr] convert. *)

let[@inline] rd_int (fr : frame) k =
  if Char.code (Bytes.unsafe_get fr.w.tags k) land 1 = 0 then raise (mistyped as_int fr k);
  get64u fr.w.bits (k lsl 3)

let[@inline] rd_flt (fr : frame) k =
  if Bytes.unsafe_get fr.w.tags k <> tag_flt then raise (mistyped as_float fr k);
  Float.Array.unsafe_get fr.w.flts k

let[@inline] rd_ptr (fr : frame) k =
  if Char.code (Bytes.unsafe_get fr.w.tags k) land 1 = 0 then raise (mistyped as_ptr fr k);
  Int64.to_int (get64u fr.w.bits (k lsl 3))

(** Copy slot [k] into word [j] of [dst]. *)
let[@inline] copy (fr : frame) k dst j =
  if Bytes.unsafe_get fr.w.tags k = tag_undef then raise (undefined fr k);
  blit fr.w k dst j

let[@inline] set_int (fr : frame) k n =
  Bytes.unsafe_set fr.w.tags k tag_int;
  set64u fr.w.bits (k lsl 3) n

let[@inline] set_flt (fr : frame) k x =
  Bytes.unsafe_set fr.w.tags k tag_flt;
  Float.Array.unsafe_set fr.w.flts k x

let[@inline] set_ptr (fr : frame) k p =
  Bytes.unsafe_set fr.w.tags k tag_ptr;
  set64u fr.w.bits (k lsl 3) (Int64.of_int p)

(* rollback reports need actionable traps: re-raise with the faulting
   function/block/instruction attached (calls excepted — the callee frame
   already annotated, and builtin messages keep their own prefix) *)
let ctx_trap (f : Func.t) (i : Instr.inst) msg =
  let lbl =
    match Func.block_opt f i.Instr.parent with
    | Some b -> b.Func.label
    | None -> "?"
  in
  trap "%s/%s: inst %d: %s" f.Func.fname lbl i.Instr.id msg

(* the phi move row of [b] for the edge from [prev], from row [k] on *)
let rec phi_row (b : block_code) prev k =
  if k = Array.length b.phi_preds then b.no_row
  else if b.phi_preds.(k) = prev then b.phi_rows.(k)
  else phi_row b prev (k + 1)

(* evaluate a block's phis against the incoming edge from [prev] into its
   scratch row, then count them, then commit: phis read the values live
   on entry *)
let enter_phis (st : state) (fr : frame) (b : block_code) prev =
  let f = fr.lay.func in
  let row = phi_row b prev 0 in
  let n = Array.length b.phis in
  for j = 0 to n - 1 do
    let o = row.(j) in
    if o >= 0 then (try copy fr o b.scratch j with Trap msg -> ctx_trap f b.phis.(j) msg)
    else
      let i = b.phis.(j) in
      ctx_trap f i
        (Printf.sprintf "phi %%%d has no incoming value for block %d" i.Instr.id prev)
  done;
  for j = 0 to n - 1 do
    st.steps <- st.steps + 1;
    fr.lay.executed <- fr.lay.executed + 1;
    st.clock <- st.clock + 1;
    match st.hooks.on_inst with Some h -> h f b.phis.(j) | None -> ()
  done;
  for j = 0 to n - 1 do
    blit b.scratch j fr.w (Array.unsafe_get b.phi_dst j)
  done

(** What a call of [name] on [nargs] arguments reaches in [st]: the
    builtin of that name (builtins shadow module functions), else the
    layout of a defined function, else the failure the call raises once
    its arguments are read, with the text a lookup at the call gives. *)
let resolution st name nargs =
  match Hashtbl.find_opt st.builtins name with
  | Some b -> Builtin b
  | None -> (
    match Irmod.func_opt st.m name with
    | Some f when not f.Func.is_declaration -> (
      let n = Array.length f.Func.params in
      if nargs <> n then
        Fails (Trap (Printf.sprintf "%s: expected %d arguments, got %d" name n nargs))
      else
        let lay = layout st f in
        if Array.length lay.blocks > 0 then Defined lay
        else match Func.entry f with _ -> Defined lay | exception e -> Fails e)
    | Some _ -> Fails (Trap (Printf.sprintf "call to declaration %s with no builtin" name))
    | None -> Fails (Trap (Printf.sprintf "call to unknown function %s" name)))

(** The target of a call step, resolved afresh when a builtin was
    registered since it was last resolved. *)
let[@inline] resolved st (t : target) nargs =
  if t.resolved_at <> st.stamp then begin
    t.resolved <- resolution st t.name nargs;
    t.resolved_at <- st.stamp
  end;
  t.resolved

(* what an indirect step finds for an address it has not called yet *)
let no_target = unresolved "" 0

(** The target in [seen] for function address [addr], or [no_target]. *)
let rec find_target addr = function
  | [] -> no_target
  | t :: rest -> if t.addr = addr then t else find_target addr rest

(** A frame for a call of [lay]: a frame its pool holds, with the
    register tags cleared, or else a copy of the template. *)
let take lay =
  if lay.free > 0 then begin
    lay.free <- lay.free - 1;
    let fr = Array.unsafe_get lay.pool lay.free in
    Bytes.fill fr.w.tags 0 lay.params tag_undef;
    fr
  end
  else { lay; w = copy_words lay.template; allocas = [] }

(* by base, not by record: a Psim retry may have replaced the records *)
let rec free_allocas st = function
  | [] -> ()
  | base :: rest ->
    ignore (kill st base);
    free_allocas st rest

(** Free the allocas of [fr], which returned, and put it in its pool. *)
let release (st : state) fr =
  if fr.allocas <> [] then begin
    free_allocas st fr.allocas;
    fr.allocas <- []
  end;
  let lay = fr.lay in
  let n = lay.free in
  if n = Array.length lay.pool then begin
    let pool = Array.make (max 4 (2 * n)) fr in
    Array.blit lay.pool 0 pool 0 n;
    lay.pool <- pool
  end;
  Array.unsafe_set lay.pool n fr;
  lay.free <- n + 1

(** Arguments [args.(j..)], boxed, read left to right: the arguments
    of a builtin. *)
let rec boxed fr (args : opnd array) j =
  if j = Array.length args then []
  else
    let v = operand fr (Array.unsafe_get args j) in
    v :: boxed fr args (j + 1)

(** Run the frame [fr], its parameters in place, and leave its result
    in word 0 of [st.ret] ([VI 0L] for void).  A call step that reaches
    a defined function copies its arguments from the caller's slots
    into a frame of the callee and, once it returns, the [ret] word into
    its own slot.  The step loop reads [st.hooks] at every step: a
    builtin may swap a hook in the middle of a frame (the parallel
    runtime does), and the change takes effect at the next step.
    Binary operands are read right to left. *)
let rec exec (st : state) (fr : frame) =
  let lay = fr.lay and w = fr.w in
  let f = lay.func in
  let finished = ref false in
  let cur = ref 0 in
  let prev = ref (-1) in
  while not !finished do
    let blk = lay.blocks.(!cur) in
    blk.entries <- blk.entries + 1;
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
      st.clock <- st.clock + 1;
      st.fuel <- st.fuel - 1;
      if st.fuel <= 0 then ctx_trap f s.inst "out of fuel (infinite loop?)";
      lay.executed <- lay.executed + 1;
      (match st.hooks.on_inst with Some h -> h f s.inst | None -> ());
      match s.code with
      | Call c -> (
        let t =
          match c.callee with
          | Direct t ->
            if c.alloc_site then begin
              st.site_fn <- f.Func.fname;
              st.site_id <- s.inst.Instr.id
            end;
            t
          | Indirect ind -> (
            let addr = rd_ptr fr ind.fp in
            let t = find_target addr ind.seen in
            if t != no_target then t
            else
              match Hashtbl.find_opt st.addr_fun addr with
              | Some name ->
                let t = unresolved name addr in
                ind.seen <- t :: ind.seen;
                t
              | None -> trap "%s: indirect call to non-function address %d" f.Func.fname addr)
        in
        t.calls <- t.calls + 1;
        let args = c.cargs in
        match resolved st t (Array.length args) with
        | Defined callee ->
          let cf = take callee in
          for j = 0 to Array.length args - 1 do
            copy fr (Array.unsafe_get args j) cf.w (callee.params + j)
          done;
          exec st cf;
          if c.keep then blit st.ret 0 w s.dst
        | Builtin b ->
          let r = b st (boxed fr args 0) in
          if c.keep then put w s.dst r
        | Fails e ->
          ignore (boxed fr args 0);
          raise e)
      | Br t ->
        prev := blk.bid;
        cur := t;
        k := n
      | Cbr (c, t, e) ->
        prev := blk.bid;
        (match Int64.equal (rd_int fr c) 0L with
        | true ->
          blk.not_taken <- blk.not_taken + 1;
          cur := e
        | false ->
          blk.taken <- blk.taken + 1;
          cur := t
        | exception Trap msg -> ctx_trap f s.inst msg);
        k := n
      | Ret vo ->
        (match vo with
        | Some v -> (try copy fr v st.ret 0 with Trap msg -> ctx_trap f s.inst msg)
        | None -> put st.ret 0 (VI 0L));
        finished := true;
        k := n
      | code -> (
        let i = s.inst in
        try
          match code with
          | Bin (op, a, b) -> set_int fr s.dst (eval_bin op (rd_int fr a) (rd_int fr b))
          | Fbin (op, a, b) -> set_flt fr s.dst (eval_fbin op (rd_flt fr a) (rd_flt fr b))
          | Icmp (c, a, b) ->
            let x = rd_int fr a and y = rd_int fr b in
            set_int fr s.dst (if eval_cmp c (Int64.compare x y) then 1L else 0L)
          | Fcmp (c, a, b) ->
            let x = rd_flt fr a and y = rd_flt fr b in
            set_int fr s.dst (if eval_cmp c (Float.compare x y) then 1L else 0L)
          | Cast (kind, a) -> (
            match kind with
            | Instr.Sitofp -> set_flt fr s.dst (Int64.to_float (rd_int fr a))
            | Instr.Fptosi -> set_int fr s.dst (Int64.of_float (rd_flt fr a))
            | Instr.Ptrtoint -> set_int fr s.dst (Int64.of_int (rd_ptr fr a))
            | Instr.Inttoptr -> set_ptr fr s.dst (Int64.to_int (rd_int fr a)))
          | Alloca n ->
            st.site_fn <- f.Func.fname;
            st.site_id <- i.Instr.id;
            let base = allocate st (Int64.to_int (rd_int fr n)) in
            fr.allocas <- base :: fr.allocas;
            set_ptr fr s.dst base
          | Load p ->
            let addr = rd_ptr fr p in
            (match st.hooks.on_mem with Some h -> h f i ~addr ~write:false | None -> ());
            if addr <= 0 || addr >= st.brk then trap "load from invalid address %d" addr;
            blit st.mem addr w s.dst
          | Store (x, p) ->
            let addr = rd_ptr fr p in
            (match st.hooks.on_mem with Some h -> h f i ~addr ~write:true | None -> ());
            if Bytes.unsafe_get w.tags x = tag_undef then raise (undefined fr x);
            if addr <= 0 || addr >= st.brk then trap "store to invalid address %d" addr;
            blit w x st.mem addr;
            (match st.hooks.on_store with Some h -> h f i ~addr | None -> ())
          | Gep (p, idx) -> set_ptr fr s.dst (rd_ptr fr p + Int64.to_int (rd_int fr idx))
          | Select (c, a, b) ->
            if Int64.equal (rd_int fr c) 0L then copy fr b w s.dst else copy fr a w s.dst
          | Unreachable -> trap "reached unreachable"
          | Call _ | Br _ | Cbr _ | Ret _ -> assert false
        with Trap msg -> ctx_trap f i msg)
    done
    (* a block with no terminator falls back into itself, [prev] unchanged *)
  done;
  release st fr

(** Call the function named [fname] with [args].  Returns its return value
    ([VI 0L] for void).  Builtins, defined functions and declarations that
    resolve to builtins are all accepted. *)
let call (st : state) (fname : string) (args : v list) : v =
  match resolution st fname (List.length args) with
  | Builtin b -> b st args
  | Defined lay ->
    let fr = take lay in
    List.iteri (fun j v -> put fr.w (lay.params + j) v) args;
    exec st fr;
    get st.ret 0
  | Fails e -> raise e

(** The one entry path of a run: a fresh state for [m], its [fuel] set,
    [configure]'s setup (whose result is returned), then [entry] called
    on integer [args].  The call's exception is returned, not raised, so
    that the caller still has the state. *)
let start ?(entry = "main") ?(args = []) ?fuel ~configure (m : Irmod.t) =
  let st = create m in
  Option.iter (fun n -> st.fuel <- n) fuel;
  let x = configure st in
  let args = List.map (fun n -> VI (Int64.of_int n)) args in
  (st, x, try Ok (call st entry args) with e -> Error e)

(** Run [main] (or [entry]) with integer arguments under [configure];
    returns its exit value and the state, for inspection. *)
let run_state ?entry ?args ?fuel ?(configure = ignore) (m : Irmod.t) =
  match start ?entry ?args ?fuel ~configure m with
  | st, (), Ok v ->
    Trace.incr_m "interp.runs";
    Trace.add "interp.steps" st.steps;
    (v, st)
  | _, (), Error e -> raise e

(** Like {!run_state}; returns (exit value, program output). *)
let run ?entry ?args ?fuel (m : Irmod.t) =
  let v, st = run_state ?entry ?args ?fuel m in
  (v, Buffer.contents st.output)
