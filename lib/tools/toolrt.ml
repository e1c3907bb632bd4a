(** Runtimes of the custom tools, registered on an interpreter state.

    - CARAT: [carat_guard]/[carat_guard_range] validate accesses against
      the live allocations of the interpreter's allocation index (the
      stand-in for CARAT's kernel allocation map) and count dynamic
      guard executions.
    - COOS: [os_callback] tracks the maximum dynamic-instruction gap
      between consecutive callbacks — the property the tool must bound.
    - PRVJeeves: a costed PRVG family.  [rand] is re-registered to model a
      high-quality generator (extra virtual cycles per call);
      [prv_xorshift] and [prv_lcg] are cheaper, weaker generators. *)

open Ir

let rand_cost = 40
let xorshift_cost = 8
let lcg_cost = 2

type stats = {
  mutable guards_executed : int64;
  mutable guard_faults : int64;      (** would-be invalid accesses caught *)
  mutable max_gap : int;             (** worst distance between callbacks *)
  mutable callbacks : int64;
}

let install (st : Interp.state) : stats =
  let s = { guards_executed = 0L; guard_faults = 0L; max_gap = 0; callbacks = 0L } in
  Interp.register_builtin st "carat_guard" (fun st args ->
      match args with
      | [ p ] ->
        s.guards_executed <- Int64.add s.guards_executed 1L;
        let addr = Interp.as_ptr p in
        if not (Interp.addr_is_guarded_valid st addr) then begin
          s.guard_faults <- Int64.add s.guard_faults 1L;
          Interp.trap "CARAT guard fault: address %d is not in a live allocation" addr
        end;
        Interp.VI 0L
      | _ -> Interp.trap "carat_guard: expected 1 argument");
  Interp.register_builtin st "carat_guard_range" (fun st args ->
      match args with
      | [ p; len ] ->
        s.guards_executed <- Int64.add s.guards_executed 1L;
        let lo = Interp.as_ptr p in
        let hi = lo + Int64.to_int (Interp.as_int len) - 1 in
        if not (Interp.addr_is_guarded_valid st lo && Interp.addr_is_guarded_valid st hi)
        then begin
          s.guard_faults <- Int64.add s.guard_faults 1L;
          Interp.trap "CARAT range-guard fault: [%d, %d] not in a live allocation" lo hi
        end;
        Interp.VI 0L
      | _ -> Interp.trap "carat_guard_range: expected 2 arguments");
  let last = ref 0 in
  Interp.register_builtin st "os_callback" (fun st args ->
      match args with
      | [] ->
        let gap = st.Interp.steps - !last in
        if gap > s.max_gap then s.max_gap <- gap;
        last := st.Interp.steps;
        s.callbacks <- Int64.add s.callbacks 1L;
        Interp.VI 0L
      | _ -> Interp.trap "os_callback: expected no arguments");
  (* PRVG family: the default rand becomes the costly high-quality one *)
  let base_rand = Hashtbl.find_opt st.Interp.builtins "rand" in
  (match base_rand with
  | Some f ->
    Interp.register_builtin st "rand" (fun st args ->
        st.Interp.clock <- st.Interp.clock + rand_cost;
        f st args)
  | None -> ());
  let xs = ref 2463534242L in
  Interp.register_builtin st "prv_xorshift" (fun st args ->
      match args with
      | [] ->
        st.Interp.clock <- st.Interp.clock + xorshift_cost;
        let x = !xs in
        let x = Int64.logxor x (Int64.shift_left x 13) in
        let x = Int64.logxor x (Int64.shift_right_logical x 7) in
        let x = Int64.logxor x (Int64.shift_left x 17) in
        xs := x;
        Interp.VI (Int64.logand (Int64.shift_right_logical x 16) 0x7fffffffL)
      | _ -> Interp.trap "prv_xorshift: expected no arguments");
  let lc = ref 123456789L in
  Interp.register_builtin st "prv_lcg" (fun st args ->
      match args with
      | [] ->
        st.Interp.clock <- st.Interp.clock + lcg_cost;
        lc := Int64.add (Int64.mul !lc 1103515245L) 12345L;
        Interp.VI (Int64.logand (Int64.shift_right_logical !lc 16) 0x7fffffffL)
      | _ -> Interp.trap "prv_lcg: expected no arguments");
  s

