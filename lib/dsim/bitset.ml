(* Fixed-capacity sets of small non-negative ints, packed into an int
   array (Sys.int_size bits per word).  The kernel uses these for
   receive-set membership in the window-application hot loop: [mem] is
   two loads and a shift, [cardinal] is a SWAR popcount per word. *)

type t = { capacity : int; words : int array }

let bits = Sys.int_size

let create ~capacity =
  if capacity < 0 then invalid_arg "Bitset.create: negative capacity";
  { capacity; words = Array.make ((capacity + bits - 1) / bits) 0 }

let capacity t = t.capacity
let copy t = { capacity = t.capacity; words = Array.copy t.words }

let fill t =
  for i = 0 to Array.length t.words - 1 do
    let hi = min bits (t.capacity - (i * bits)) in
    t.words.(i) <- (if hi >= bits then -1 else (1 lsl hi) - 1)
  done

let full ~capacity =
  if capacity < 0 then invalid_arg "Bitset.full: negative capacity";
  let t = create ~capacity in
  fill t;
  t

let mem t i =
  i >= 0 && i < t.capacity
  && (t.words.(i / bits) lsr (i mod bits)) land 1 = 1

let add t i =
  if i < 0 || i >= t.capacity then invalid_arg "Bitset.add: out of range";
  t.words.(i / bits) <- t.words.(i / bits) lor (1 lsl (i mod bits))

let remove t i =
  if i >= 0 && i < t.capacity then
    t.words.(i / bits) <- t.words.(i / bits) land lnot (1 lsl (i mod bits))

(* Smallest member >= [i], or -1.  One masked load for the first word,
   then whole-word skips: O(capacity / word-size) worst case, O(1) on
   the dense sets the mailbox's broadcast table iterates. *)
let next_from t i =
  let i = max i 0 in
  if i >= t.capacity then -1
  else begin
    let nwords = Array.length t.words in
    let w = ref (i / bits) in
    let word = ref (t.words.(!w) land lnot ((1 lsl (i mod bits)) - 1)) in
    while !word = 0 && !w < nwords - 1 do
      incr w;
      word := t.words.(!w)
    done;
    if !word = 0 then -1
    else begin
      let b = ref (!w * bits) and m = ref !word in
      while !m land 1 = 0 do
        m := !m lsr 1;
        incr b
      done;
      !b
    end
  end

let of_list ~capacity l =
  let t = create ~capacity in
  List.iter (fun i -> if i >= 0 && i < capacity then add t i) l;
  t

let of_int_mask ~capacity m =
  if capacity < 0 || capacity > bits then
    invalid_arg "Bitset.of_int_mask: capacity out of range";
  if m < 0 then invalid_arg "Bitset.of_int_mask: negative mask";
  let t = create ~capacity in
  if capacity > 0 then
    t.words.(0) <- m land (if capacity >= bits then -1 else (1 lsl capacity) - 1);
  t

(* Popcount of one word: Kernighan's clear-lowest-set-bit loop, one
   iteration per set bit.  (The byte-parallel SWAR trick is unsound on
   OCaml's 63-bit ints, and counts are off the per-delivery hot path.) *)
let popcount_word w =
  let w = ref w and acc = ref 0 in
  while !w <> 0 do
    w := !w land (!w - 1);
    incr acc
  done;
  !acc

let cardinal t =
  let acc = ref 0 in
  for i = 0 to Array.length t.words - 1 do
    acc := !acc + popcount_word t.words.(i)
  done;
  !acc

(* |t ∩ [0, limit)| — O(limit / word-size); the window validator uses
   this to detect out-of-range pids without walking the stored list. *)
let cardinal_below t limit =
  let limit = min (max limit 0) t.capacity in
  let full_words = limit / bits in
  let acc = ref 0 in
  for i = 0 to full_words - 1 do
    acc := !acc + popcount_word t.words.(i)
  done;
  let rem = limit mod bits in
  if rem > 0 then
    acc := !acc + popcount_word (t.words.(full_words) land ((1 lsl rem) - 1));
  !acc

let to_list t =
  let acc = ref [] in
  for i = t.capacity - 1 downto 0 do
    if mem t i then acc := i :: !acc
  done;
  !acc
