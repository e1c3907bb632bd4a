(** Small-scope loop families: every counted loop of a small shape, as IR
    text.  A wrong answer that needs an unusual loop to show is found by
    checking every member at a small width, not by sampling (the bet of
    "Nice to Meet You", PAPERS.md).

    A member is a header phi that starts at [start] and moves by [step]
    ([add] up, [sub] down), and an exit test [icmp.pred] that compares the
    phi (or its update) with [bound], the IV on the left or, [swapped],
    on the right, leaving on the true or the false edge.  The loop is
    while-shaped or do-while-shaped, with the test in the header or in a
    separate latch.  The phi is [%2] and its update [%3] in every
    member. *)

open Ir

type shape = While | Do_one_block | Do_two_blocks

let shape_to_string = function
  | While -> "while"
  | Do_one_block -> "do-while"
  | Do_two_blocks -> "do-while+latch"

type member = {
  shape : shape;
  start : int;
  step : int;
  bound : int;
  pred : Instr.cmp;
  exit_on_true : bool;
  on_update : bool;
  swapped : bool;
}

(** What the loop body does:
    - [Print] prints the phi, so the output is the phi's values while the
      body runs;
    - [Store] stores [3*phi+7] to [a[phi+16]] and, after the loop, prints
      the checksum [Σ a[i]*(i+1)] over the 40 words of [@a]. *)
type body = Print | Store

(** Every member: start and bound in -3..3, step in ±1/±2, the six
    predicates, exit on true or false, the test on the phi or its update,
    the three shapes, and the operand orders of [orientations]. *)
let members ~orientations =
  let range a b = List.init (b - a + 1) (fun i -> a + i) in
  List.concat_map
    (fun shape ->
      List.concat_map
        (fun start ->
          List.concat_map
            (fun step ->
              List.concat_map
                (fun bound ->
                  List.concat_map
                    (fun pred ->
                      List.concat_map
                        (fun (exit_on_true, on_update) ->
                          List.map
                            (fun swapped ->
                              { shape; start; step; bound; pred; exit_on_true;
                                on_update; swapped })
                            orientations)
                        [ (true, false); (true, true); (false, false); (false, true) ])
                    [ Instr.Eq; Instr.Ne; Instr.Slt; Instr.Sle; Instr.Sgt; Instr.Sge ])
                (range (-3) 3))
            [ -2; -1; 1; 2 ])
        (range (-3) 3))
    [ While; Do_one_block; Do_two_blocks ]

(** The member as a module whose [main] holds the loop (headed by block
    [header]) and, for [Store], the checksum loop after it. *)
let ir ?(body = Print) (m : member) =
  let update =
    if m.step > 0 then Printf.sprintf "%%3 = add %%2, %d" m.step
    else Printf.sprintf "%%3 = sub %%2, %d" (-m.step)
  in
  let iv = if m.on_update then "%3" else "%2" in
  let test =
    if m.swapped then
      Printf.sprintf "%%4 = icmp.%s %d, %s" (Instr.cmp_to_string (Instr.swap_cmp m.pred))
        m.bound iv
    else Printf.sprintf "%%4 = icmp.%s %s, %d" (Instr.cmp_to_string m.pred) iv m.bound
  in
  let branch cont =
    if m.exit_on_true then Printf.sprintf "%%5 = cbr %%4, exit, %s" cont
    else Printf.sprintf "%%5 = cbr %%4, %s, exit" cont
  in
  let work =
    match body with
    | Print -> [ "%6 = call.void @print(%2)" ]
    | Store ->
      [ "%10 = add %2, 16"; "%11 = gep @a, %10"; "%12 = mul %2, 3"; "%13 = add %12, 7";
        "%14 = store %13, %11" ]
  in
  let loop =
    match m.shape with
    | While ->
      (* a test on the update needs the update in the header *)
      [ "header:"; Printf.sprintf "%%2 = phi.i64 [entry: %d] [body: %%3]" m.start ]
      @ (if m.on_update then [ update ] else [])
      @ [ test; branch "body"; "body:" ]
      @ work
      @ (if m.on_update then [] else [ update ])
      @ [ "%7 = br header" ]
    | Do_one_block ->
      [ "header:"; Printf.sprintf "%%2 = phi.i64 [entry: %d] [header: %%3]" m.start ]
      @ work @ [ update; test; branch "header" ]
    | Do_two_blocks ->
      [ "header:"; Printf.sprintf "%%2 = phi.i64 [entry: %d] [latch: %%3]" m.start ]
      @ work @ [ "%7 = br latch"; "latch:"; update; test; branch "header" ]
  in
  let after =
    match body with
    | Print -> [ "exit:"; "%8 = ret 0" ]
    | Store ->
      (* do-while, so that no parallelizer plans it *)
      [ "exit:"; "%20 = br sum"; "sum:"; "%21 = phi.i64 [exit: 0] [sum: %22]";
        "%23 = phi.i64 [exit: 0] [sum: %24]"; "%27 = gep @a, %21"; "%28 = load.i64 %27";
        "%22 = add %21, 1"; "%29 = mul %28, %22"; "%24 = add %23, %29";
        "%25 = icmp.slt %22, 40"; "%26 = cbr %25, sum, sum.done"; "sum.done:";
        "%31 = call.void @print(%24)"; "%8 = ret 0" ]
  in
  String.concat "\n"
    ((match body with Print -> [] | Store -> [ "global @a = 40" ])
    @ [ "define i64 @main() {"; "entry:"; "%1 = br header" ]
    @ loop @ after
    @ [ "}"; "declare void @print(i64 %a0)" ])
