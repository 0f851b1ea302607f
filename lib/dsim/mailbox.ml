(* The buffer is a table of broadcast entries: each uniform send is
   stored once — payload and metadata shared, one pending *bit* per
   destination — and per-destination envelopes are materialized lazily
   on access, by handing a visitor their fields.

   Id layout: the engine reserves [count] consecutive ids starting at
   [bc_first], destination [dst] owning id [bc_first + dst].  That is
   exactly the id order an eager per-destination expansion produces,
   which is what keeps lazy executions bit-identical to eager ones.

   A corrupted destination keeps its id and its place in the entry; its
   new payload sits in [overrides], keyed by id.  Lookups consult the
   map only when it is non-empty, so runs without corruption never
   touch it.

   Invariants:
   - an id is pending iff it is a live destination ([bc_first <= id <
     bc_first + bc_count] with the [id - bc_first] pending bit set);
   - [bcs.(0 .. bc_len-1)] is sorted by strictly increasing [bc_first]
     with pairwise disjoint id ranges; [bc_firsts] mirrors the firsts.
     An entry whose last destination was taken stays in its cell, dead
     ([bc_remaining = 0], no pending bit), so binary search stays valid;
   - [bcs.(bc_len .. bc_cells-1)] are dead entries that compaction moved
     to the tail: the pool [add_broadcast] refills in place.  The cells
     [0, bc_cells) hold pairwise distinct records; the cells past
     [bc_cells] are growth filler and are never read;
   - [bc_live]/[bc_pending_total] count live entries and their pending
     destinations; [bc_hi] is the end of the highest range ever added
     (freshness check for new broadcasts);
   - every key of [overrides] is a pending id. *)

module Int_map = Map.Make (Int)

type 'm bc = {
  mutable bc_first : int;
  mutable bc_count : int;
  mutable bc_src : int;
  mutable bc_payload : 'm;
  mutable bc_depth : int;
  mutable bc_pending : Bitset.t;  (* dst in [0, bc_count) still pending *)
  mutable bc_remaining : int;  (* = cardinal of bc_pending; 0 = dead *)
}

type ('a, 'm) visitor = 'a -> id:int -> src:int -> dst:int -> depth:int -> 'm -> unit

type 'm t = {
  mutable bcs : 'm bc array;
  mutable bc_firsts : int array;
  mutable bc_len : int;
  mutable bc_cells : int;
  mutable bc_live : int;
  mutable bc_pending_total : int;
  mutable bc_hi : int;
  mutable overrides : 'm Int_map.t;  (* corrupted pending ids -> payload *)
}

let create () =
  {
    bcs = [||];
    bc_firsts = [||];
    bc_len = 0;
    bc_cells = 0;
    bc_live = 0;
    bc_pending_total = 0;
    bc_hi = 0;
    overrides = Int_map.empty;
  }

(* Only the live entries are copied, each into a fresh record: a copy
   shares no cell with [t], so neither side's refills reach the other. *)
let copy t =
  let live = t.bc_live in
  let bcs = if live = 0 then [||] else Array.make live t.bcs.(0) in
  let bc_firsts = Array.make live 0 in
  let w = ref 0 in
  for k = 0 to t.bc_len - 1 do
    let bc = t.bcs.(k) in
    if bc.bc_remaining > 0 then begin
      bcs.(!w) <- { bc with bc_pending = Bitset.copy bc.bc_pending };
      bc_firsts.(!w) <- bc.bc_first;
      incr w
    end
  done;
  {
    bcs;
    bc_firsts;
    bc_len = live;
    bc_cells = live;
    bc_live = live;
    bc_pending_total = t.bc_pending_total;
    bc_hi = t.bc_hi;
    overrides = t.overrides;
  }

(* {2 Internals} *)

(* Largest k < bc_len with bc_firsts.(k) <= id, or -1: disjoint sorted
   ranges mean only this entry can contain [id]. *)
let bc_index_for t id =
  let lo = ref 0 and hi = ref t.bc_len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.bc_firsts.(mid) <= id then lo := mid + 1 else hi := mid
  done;
  !lo - 1

(* Index of the broadcast entry holding [id] as a still-pending
   destination, or -1.  A dead entry has no pending bit. *)
let bc_slot t id =
  let k = bc_index_for t id in
  if k < 0 then -1
  else
    let bc = t.bcs.(k) in
    if id - bc.bc_first < bc.bc_count && Bitset.mem bc.bc_pending (id - bc.bc_first) then k
    else -1

(* The payload destination [id] of [bc] receives. *)
let payload_of t bc id =
  if Int_map.is_empty t.overrides then bc.bc_payload
  else match Int_map.find_opt id t.overrides with Some p -> p | None -> bc.bc_payload

(* Internal: only called when [id] is a pending destination of [bc].
   The entry's last removal leaves it dead in its cell. *)
let bc_remove t bc id =
  Bitset.remove bc.bc_pending (id - bc.bc_first);
  bc.bc_remaining <- bc.bc_remaining - 1;
  t.bc_pending_total <- t.bc_pending_total - 1;
  if bc.bc_remaining = 0 then t.bc_live <- t.bc_live - 1;
  if not (Int_map.is_empty t.overrides) then t.overrides <- Int_map.remove id t.overrides

(* Lazy compaction, amortized O(1): only [add_broadcast] calls this, so
   iterators holding table indices are never invalidated mid-walk.
   Live entries move down in order; the dead ones are swapped, not
   overwritten, into the tail, where they wait to be refilled. *)
let bc_compact t =
  if t.bc_len > 8 && t.bc_live * 2 < t.bc_len then begin
    let w = ref 0 in
    for k = 0 to t.bc_len - 1 do
      let bc = t.bcs.(k) in
      if bc.bc_remaining > 0 then begin
        t.bcs.(k) <- t.bcs.(!w);
        t.bcs.(!w) <- bc;
        t.bc_firsts.(!w) <- bc.bc_first;
        incr w
      end
    done;
    t.bc_len <- !w
  end

(* Append a fresh entry at [bc_len], growing the table when it is full;
   the new cells past it are filler until a later append owns them.  An
   empty table grows to one cell: a copy of a drained mailbox (each
   child the model checker expands) often takes a single broadcast. *)
let bc_append t bc =
  if t.bc_len = Array.length t.bcs then begin
    let new_cap = if t.bc_len = 0 then 1 else max 8 (t.bc_len * 2) in
    let bcs = Array.make new_cap bc and firsts = Array.make new_cap 0 in
    Array.blit t.bcs 0 bcs 0 t.bc_len;
    Array.blit t.bc_firsts 0 firsts 0 t.bc_len;
    t.bcs <- bcs;
    t.bc_firsts <- firsts
  end;
  t.bcs.(t.bc_len) <- bc;
  t.bc_cells <- t.bc_len + 1

(* {2 Public surface} *)

let add_broadcast t ~first ~count ~src ~payload ~depth =
  if count <= 0 then invalid_arg "Mailbox.add_broadcast: count must be positive";
  if first < t.bc_hi then invalid_arg "Mailbox.add_broadcast: ids not fresh";
  bc_compact t;
  if t.bc_len < t.bc_cells then begin
    let bc = t.bcs.(t.bc_len) in
    bc.bc_first <- first;
    bc.bc_count <- count;
    bc.bc_src <- src;
    bc.bc_payload <- payload;
    bc.bc_depth <- depth;
    if Bitset.capacity bc.bc_pending = count then Bitset.fill bc.bc_pending
    else bc.bc_pending <- Bitset.full ~capacity:count;
    bc.bc_remaining <- count
  end
  else
    bc_append t
      {
        bc_first = first;
        bc_count = count;
        bc_src = src;
        bc_payload = payload;
        bc_depth = depth;
        bc_pending = Bitset.full ~capacity:count;
        bc_remaining = count;
      };
  t.bc_firsts.(t.bc_len) <- first;
  t.bc_len <- t.bc_len + 1;
  t.bc_live <- t.bc_live + 1;
  t.bc_pending_total <- t.bc_pending_total + count;
  t.bc_hi <- first + count

(* The one removal primitive: read the fields, remove, then hand the
   fields to [f] — no envelope record, no option. *)
let take_with t id ctx f =
  let k = bc_slot t id in
  k >= 0
  &&
  let bc = t.bcs.(k) in
  let payload = payload_of t bc id in
  bc_remove t bc id;
  f ctx ~id ~src:bc.bc_src ~dst:(id - bc.bc_first) ~depth:bc.bc_depth payload;
  true

let replace_payload t id payload =
  bc_slot t id >= 0
  &&
  (t.overrides <- Int_map.add id payload t.overrides;
   true)

let size t = t.bc_pending_total

(* Ascending walk over the pending ids in [from, til): a binary search
   to the first entry that can hold [from], then each entry's pending
   bits until an entry starts at or past [til].  The next bit is found
   before [f] runs, so [f] may take or rewrite the visited envelope.
   Ids are never negative ([add_broadcast] rejects a [first] below
   [bc_hi] >= 0), so [til - bc_first] cannot overflow. *)
let iter_range t ~from ~til ctx f =
  let k = ref (max (bc_index_for t from) 0) in
  while !k < t.bc_len && t.bc_firsts.(!k) < til do
    let bc = t.bcs.(!k) in
    if bc.bc_remaining > 0 then begin
      let stop = min bc.bc_count (til - bc.bc_first) in
      let skip = if from <= bc.bc_first then 0 else from - bc.bc_first in
      let d = ref (Bitset.next_from bc.bc_pending skip) in
      while !d >= 0 && !d < stop do
        let dst = !d in
        let id = bc.bc_first + dst in
        d := Bitset.next_from bc.bc_pending (dst + 1);
        f ctx ~id ~src:bc.bc_src ~dst ~depth:bc.bc_depth (payload_of t bc id)
      done
    end;
    incr k
  done

let pending_ids t =
  let acc = ref [] in
  iter_range t ~from:0 ~til:max_int acc (fun acc ~id ~src:_ ~dst:_ ~depth:_ _ ->
      acc := id :: !acc);
  List.rev !acc

(* The per-destination walk behind [iter_for] and [drain_for]: every
   live entry contributes at most one envelope — id [bc_first + dst] —
   and entries are in ascending id order.  Each envelope with id in
   [from, til) whose source passes [allow] is handed to [f] by its
   fields, after its removal when [remove] is set, so [f] may take (or
   rewrite) the visited envelope.  No closure captures the loop, so
   the walk allocates nothing. *)
let walk_for t ~dst ~from ~til ~allow ~remove ctx f =
  for k = 0 to t.bc_len - 1 do
    let bc = t.bcs.(k) in
    if Bitset.mem bc.bc_pending dst then begin
      let id = bc.bc_first + dst in
      if id >= from && id < til && allow ~dst ~src:bc.bc_src then begin
        let payload = payload_of t bc id in
        if remove then bc_remove t bc id;
        f ctx ~id ~src:bc.bc_src ~dst ~depth:bc.bc_depth payload
      end
    end
  done

let allow_all ~dst:_ ~src:_ = true

let iter_for t ~dst ctx f =
  walk_for t ~dst ~from:min_int ~til:max_int ~allow:allow_all ~remove:false ctx f

let drain_for t ~dst ~from ~til ~allow ctx f =
  walk_for t ~dst ~from ~til ~allow ~remove:true ctx f
