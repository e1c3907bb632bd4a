(** The dynamic side of noelle-check, kept as a test oracle: a sanitizer
    built on the interpreter's [on_mem] hook that observes which memory
    bugs actually happen at runtime.

    It keeps the static checkers honest: the differential test plants a
    fault with {!Ir.Faultgen.inject_info}, asks {!Noelle.Check.run} to find
    it, and then executes the module under this oracle to prove the planted
    bug is real, not an artifact of the checker's imagination. *)

open Ir

type event_kind = Uninit_read | Use_after_free | Out_of_bounds

type event = {
  ekind : event_kind;
  efunc : string;
  einst : int;
  eaddr : int;
}

(** Execute [m] under a word-granularity memory-state oracle and report
    every sanitizer-visible event: reads of never-written allocation words,
    accesses to freed allocations, and accesses outside every allocation.
    Execution continues past events (the interpreter's own trap ends it for
    genuinely wild addresses); a trap is reported alongside the events. *)
let sanitize ?(entry = "main") ?(args = []) ?fuel (m : Irmod.t) :
    event list * string option =
  let events = ref [] in
  let record ekind (f : Func.t) (i : Instr.inst) addr =
    events := { ekind; efunc = f.Func.fname; einst = i.Instr.id; eaddr = addr } :: !events
  in
  let run =
    Interp.start ~entry ~args ?fuel m ~configure:(fun st ->
        (* globals are initialized by [create]; mark their words *)
        let written = Hashtbl.create 256 in
        let ix = st.Interp.by_base in
        Hashtbl.iter
          (fun _ base ->
            let k = Interp.alloc_at ix base in
            if k >= 0 then
              for w = base to base + ix.Interp.recs.(k).Interp.size - 1 do
                Hashtbl.replace written w ()
              done)
          st.Interp.global_addr;
        let covering addr =
          match Interp.covering ix addr with -1 -> None | k -> Some ix.Interp.recs.(k)
        in
        st.Interp.hooks.Interp.on_mem <-
          Some
            (fun f i ~addr ~write ->
              (match covering addr with
              | Some a when not a.Interp.alive -> record Use_after_free f i addr
              | Some _ ->
                if not write && not (Hashtbl.mem written addr) then
                  record Uninit_read f i addr
              | None -> record Out_of_bounds f i addr);
              if write then Hashtbl.replace written addr ()))
  in
  let trap_msg =
    match run.Interp.outcome with
    | Ok _ -> None
    | Error (Interp.Trap msg) -> Some msg
    | Error e -> raise e
  in
  (List.rev !events, trap_msg)

(** Does the dynamic oracle confirm a sanitizer-visible bug at instruction
    [inst] of [func]?  (A trap while executing that instruction counts: the
    wildest accesses die inside the interpreter itself.) *)
let confirms (events, trap) ~func ~inst =
  List.exists (fun e -> e.efunc = func && e.einst = inst) events
  || (match trap with
     | Some msg ->
       (* interpreter trap messages carry "fname/label: inst N:" context *)
       let contains needle =
         let nl = String.length needle and ml = String.length msg in
         let rec find k =
           k + nl <= ml && (String.sub msg k nl = needle || find (k + 1))
         in
         nl > 0 && find 0
       in
       contains (func ^ "/") && contains (Printf.sprintf "inst %d:" inst)
     | None -> false)
