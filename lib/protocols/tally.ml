module Int_map = Map.Make (Int)

(* [votes] maps [src / slots] to one immediate int holding that chunk's
   [slots] senders, 3 bits each: bit 0 is "voted", bits 1-2 the code.
   An add path-copies ~log2(n / slots) map nodes, and a tally holds
   ~n / slots of them, not one node per sender.

   [lanes] packs the counts of codes 0, 1 and 2 into three 20-bit
   fields; code 3's count is [total] minus their sum.  Three fields,
   because every [add] copies the record: a wider one would cost every
   delivery of every protocol. *)
type t = { votes : int Int_map.t; total : int; lanes : int }

let slots = 20
let lane_bits = 20
let max_votes = (1 lsl lane_bits) - 1

let empty = { votes = Int_map.empty; total = 0; lanes = 0 }

let chunk_of t chunk =
  match Int_map.find chunk t.votes with bits -> bits | exception Not_found -> 0

let mem t src =
  src >= 0 && chunk_of t (src / slots) land (1 lsl (3 * (src mod slots))) <> 0

let add t ~src code =
  if code < 0 || code > 3 then invalid_arg "Tally.add: code outside [0, 4)";
  if src < 0 then invalid_arg "Tally.add: negative sender";
  let chunk = src / slots and shift = 3 * (src mod slots) in
  let bits = chunk_of t chunk in
  if bits land (1 lsl shift) <> 0 then t
  else if t.total >= max_votes then
    invalid_arg "Tally.add: more than 2^20 - 1 senders"
  else
    {
      votes = Int_map.add chunk (bits lor ((1 lor (code lsl 1)) lsl shift)) t.votes;
      total = t.total + 1;
      lanes = (if code = 3 then t.lanes else t.lanes + (1 lsl (lane_bits * code)));
    }

let count t = t.total
let lane lanes code = (lanes lsr (lane_bits * code)) land max_votes

let count_value t code =
  if code = 3 then t.total - lane t.lanes 0 - lane t.lanes 1 - lane t.lanes 2
  else lane t.lanes code

(* A chunk's walk stops at its highest sender: the slots above it are
   all zero. *)
let iter f t =
  Int_map.iter
    (fun chunk bits ->
      let rest = ref bits and src = ref (chunk * slots) in
      while !rest <> 0 do
        if !rest land 1 = 1 then f !src ((!rest lsr 1) land 3);
        rest := !rest lsr 3;
        incr src
      done)
    t.votes
