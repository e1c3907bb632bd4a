(** Compact growable bitsets over dense non-negative ints.

    The sparse analysis engine (DESIGN.md §11) keys abstract points-to
    objects to dense integers and stores each node's points-to set as one
    of these: an [int array] of machine words that grows on demand.  The
    operations the worklist solver leans on are [union_into] (which
    reports how many bits were *newly* set, and can mirror them into a
    delta set for difference propagation) and [is_empty_inter] (the
    disjointness test behind alias disprovals and PDG bucketing). *)

type t = { mutable words : int array }

let bits_per_word = Sys.int_size

let create () = { words = [||] }

(* grow so that word index [w] is addressable *)
let ensure (s : t) w =
  let n = Array.length s.words in
  if w >= n then begin
    let n' = max (w + 1) (max 4 (2 * n)) in
    let a = Array.make n' 0 in
    Array.blit s.words 0 a 0 n;
    s.words <- a
  end

(** Set bit [i]; true iff it was not already set. *)
let add (s : t) i =
  let w = i / bits_per_word and b = i mod bits_per_word in
  ensure s w;
  let old = s.words.(w) in
  let nw = old lor (1 lsl b) in
  if nw = old then false
  else begin
    s.words.(w) <- nw;
    true
  end

let is_empty (s : t) = Array.for_all (fun w -> w = 0) s.words

let popcount x =
  let rec go x acc = if x = 0 then acc else go (x land (x - 1)) (acc + 1) in
  go x 0

(** Union [src] into [into]; returns the number of bits newly set.  When
    [track] is given the fresh bits are also or-ed into it — this is the
    difference-propagation hook: [track] accumulates the delta a worklist
    node still has to push to its successors. *)
let union_into ?track ~(into : t) (src : t) =
  let n = Array.length src.words in
  if n > 0 then ensure into (n - 1);
  let added = ref 0 in
  for w = 0 to n - 1 do
    let sw = src.words.(w) in
    if sw <> 0 then begin
      let old = into.words.(w) in
      let nw = old lor sw in
      if nw <> old then begin
        into.words.(w) <- nw;
        let fresh = nw lxor old in
        added := !added + popcount fresh;
        match track with
        | Some t ->
          ensure t w;
          t.words.(w) <- t.words.(w) lor fresh
        | None -> ()
      end
    end
  done;
  !added

let equal (a : t) (b : t) =
  let na = Array.length a.words and nb = Array.length b.words in
  let n = min na nb in
  let rec common w = w >= n || (a.words.(w) = b.words.(w) && common (w + 1)) in
  let rec zero (s : t) w = w >= Array.length s.words || (s.words.(w) = 0 && zero s (w + 1)) in
  common 0 && zero a n && zero b n

let copy (s : t) = { words = Array.copy s.words }

let iter f (s : t) =
  Array.iteri
    (fun wi w ->
      if w <> 0 then
        for b = 0 to bits_per_word - 1 do
          if (w lsr b) land 1 = 1 then f ((wi * bits_per_word) + b)
        done)
    s.words

let fold f (s : t) init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) s;
  !acc
