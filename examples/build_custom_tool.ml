(** Build a brand-new custom tool in ~40 lines — the paper's core pitch.

    The tool: a {e redundant-load eliminator}.  A load is redundant when a
    previous load in the same block reads a must-aliasing address with no
    intervening may-writing instruction.  With NOELLE this is a walk over
    blocks consulting the PDG's alias stack; without it you would be
    re-implementing alias queries and memory SSA.

    Run with: [dune exec examples/build_custom_tool.exe] *)

let source =
  {|
int a[100];
int main() {
  int s = 0;
  for (int i = 0; i < 100; i++) a[i] = i * 2;
  for (int i = 1; i < 99; i++) {
    int x = a[i];
    int y = a[i];        // redundant: same address, no store between
    a[i+1] = x + y;
    int z = a[i];        // NOT redundant: the store above may alias
    s += z;
  }
  print(s);
  return 0;
}
|}

(* --- the whole custom tool ----------------------------------------- *)

let redundant_load_elim (n : Noelle.t) (m : Ir.Irmod.t) : int =
  Noelle.set_tool n "RLE";
  let removed = ref 0 in
  List.iter
    (fun (f : Ir.Func.t) ->
      let pdg = Noelle.pdg n f in
      let stack = pdg.Noelle.Pdg.stack in
      Ir.Func.iter_blocks
        (fun b ->
          (* available loads in this block: (address value, loaded value) *)
          let avail = ref [] in
          List.iter
            (fun id ->
              let i = Ir.Func.inst f id in
              match i.Ir.Instr.op with
              | Ir.Instr.Load p -> (
                match
                  List.find_opt
                    (fun (q, _) ->
                      Ir.Alias.alias stack m f p q = Ir.Alias.Must_alias)
                    !avail
                with
                | Some (_, v) ->
                  Ir.Builder.replace_uses f ~old:id ~by:v;
                  Ir.Builder.remove f id;
                  incr removed
                | None -> avail := (p, Ir.Instr.Reg id) :: !avail)
              | Ir.Instr.Store (_, p) ->
                (* kill loads the store may overwrite *)
                avail :=
                  List.filter
                    (fun (q, _) ->
                      Ir.Alias.alias stack m f p q = Ir.Alias.No_alias)
                    !avail
              | Ir.Instr.Call _ -> avail := []
              | _ -> ())
            b.Ir.Func.insts)
        f)
    (Ir.Irmod.defined_functions m);
  Noelle.invalidate n;
  !removed

(* --- driver --------------------------------------------------------- *)

let () =
  let m = Minic.Lower.compile ~name:"custom" source in
  let out_before = Ir.Interp.(output (start ~configure:ignore m)) in
  let before = Ir.Irmod.total_insts m in
  let n = Noelle.create m in
  let removed = redundant_load_elim n m in
  Ir.Verify.verify_module m;
  let out_after = Ir.Interp.(output (start ~configure:ignore m)) in
  Printf.printf "removed %d redundant loads (%d -> %d instructions)\n" removed
    before (Ir.Irmod.total_insts m);
  Printf.printf "outputs identical: %b (%s)" (out_before = out_after)
    (String.trim out_after)
