(* The buffer is an arena: struct-of-arrays storage indexed by message
   id (ids are issued densely by the engine, so [rel = id - base] is a
   direct probe into parallel arrays), threaded with per-destination
   intrusive doubly-linked queues in ascending-id order, plus a
   broadcast table that stores each uniform send once — payload and
   metadata shared, one pending *bit* per destination — and
   materializes per-destination envelopes lazily on access.

   Id layout for a broadcast: the engine reserves [count] consecutive
   ids starting at [bc_first], destination [dst] owning id
   [bc_first + dst].  That is exactly the id order the old eager
   [List.init count] expansion produced, which is what keeps lazy
   executions bit-identical to eager ones.

   Invariants:
   - an id is pending iff it is an occupied arena slot
     ([lo <= id - base < hi] with [payloads.(rel) = Some _]) or a live
     broadcast destination ([bc_first <= id < bc_first + bc_count] with
     the [id - bc_first] pending bit set); never both;
   - [lo]/[hi] bracket the occupied arena region ([lo = hi = 0] when
     the arena is empty); [ucount] counts occupied arena slots;
   - for every dst >= 0, [heads.(dst)]/[tails.(dst)] delimit a list
     linked through [prevs]/[nexts] (ids, -1 for none) that holds
     exactly the pending *arena* envelopes for [dst], ascending id
     (broadcast destinations are merged in at iteration time);
   - arena envelopes with a negative dst (never produced by the engine,
     which range-checks sends) are stored outside any queue;
   - [bcs.(0 .. bc_len-1)] is sorted by strictly increasing
     [bc_first] with pairwise disjoint id ranges; [bc_firsts] mirrors
     the firsts (kept for dead [None] entries so binary search stays
     valid); [bc_live]/[bc_pending_total] count live entries and their
     pending destinations; [bc_hi] is the end of the highest range ever
     added (freshness check for new broadcasts). *)

type 'm bc = {
  bc_first : int;
  bc_count : int;
  bc_src : int;
  bc_payload : 'm;
  bc_depth : int;
  bc_step : int;
  bc_window : int;
  bc_pending : Bitset.t;  (* dst in [0, bc_count) still pending *)
  mutable bc_remaining : int;  (* = cardinal of bc_pending *)
}

type ('a, 'm) visitor = 'a -> id:int -> src:int -> dst:int -> depth:int -> 'm -> unit

type 'm t = {
  (* arena: parallel arrays indexed by [id - base] *)
  mutable payloads : 'm option array;  (* [None] = empty slot *)
  mutable srcs : int array;
  mutable dsts : int array;
  mutable depths : int array;
  mutable steps : int array;
  mutable wins : int array;
  mutable prevs : int array;  (* per-dst queue links, as ids; -1 none *)
  mutable nexts : int array;
  mutable base : int;  (* id mapped to index 0 *)
  mutable lo : int;  (* relative index: occupied region is [lo, hi) *)
  mutable hi : int;
  mutable ucount : int;
  mutable heads : int array;  (* per-dst queue heads/tails, as ids *)
  mutable tails : int array;
  (* broadcast table *)
  mutable bcs : 'm bc option array;
  mutable bc_firsts : int array;
  mutable bc_len : int;
  mutable bc_live : int;
  mutable bc_pending_total : int;
  mutable bc_hi : int;
}

let create () =
  {
    payloads = [||];
    srcs = [||];
    dsts = [||];
    depths = [||];
    steps = [||];
    wins = [||];
    prevs = [||];
    nexts = [||];
    base = 0;
    lo = 0;
    hi = 0;
    ucount = 0;
    heads = [||];
    tails = [||];
    bcs = [||];
    bc_firsts = [||];
    bc_len = 0;
    bc_live = 0;
    bc_pending_total = 0;
    bc_hi = 0;
  }

let copy t =
  let span = t.hi - t.lo in
  let sub_int a =
    let b = Array.make span 0 in
    if span > 0 then Array.blit a t.lo b 0 span;
    b
  in
  let payloads = Array.make span None in
  if span > 0 then Array.blit t.payloads t.lo payloads 0 span;
  let bcs = Array.make (max t.bc_live 1) None in
  let bc_firsts = Array.make (max t.bc_live 1) 0 in
  let w = ref 0 in
  for k = 0 to t.bc_len - 1 do
    match t.bcs.(k) with
    | None -> ()
    | Some bc ->
        bcs.(!w) <- Some { bc with bc_pending = Bitset.copy bc.bc_pending };
        bc_firsts.(!w) <- bc.bc_first;
        incr w
  done;
  {
    payloads;
    srcs = sub_int t.srcs;
    dsts = sub_int t.dsts;
    depths = sub_int t.depths;
    steps = sub_int t.steps;
    wins = sub_int t.wins;
    prevs = sub_int t.prevs;
    nexts = sub_int t.nexts;
    base = t.base + t.lo;
    lo = 0;
    hi = span;
    ucount = t.ucount;
    heads = Array.copy t.heads;
    tails = Array.copy t.tails;
    bcs;
    bc_firsts;
    bc_len = !w;
    bc_live = !w;
    bc_pending_total = t.bc_pending_total;
    bc_hi = t.bc_hi;
  }

(* {2 Arena internals} *)

let slot_occupied t rel =
  t.ucount > 0 && rel >= t.lo && rel < t.hi && Option.is_some t.payloads.(rel)

(* Internal: [slot_payload] and [env_of_slot] are only called on
   occupied slots. *)
let slot_payload t rel =
  match t.payloads.(rel) with Some p -> p | None -> assert false

let env_of_slot t rel =
  {
    Envelope.id = t.base + rel;
    src = t.srcs.(rel);
    dst = t.dsts.(rel);
    payload = slot_payload t rel;
    depth = t.depths.(rel);
    sent_at_step = t.steps.(rel);
    sent_in_window = t.wins.(rel);
  }

(* Make [rel = id - base] addressable, compacting the live span (and
   advancing [base]) or growing as needed. *)
let ensure_slot t id =
  let cap = Array.length t.payloads in
  if t.ucount = 0 then begin
    if cap = 0 then begin
      t.payloads <- Array.make 64 None;
      t.srcs <- Array.make 64 0;
      t.dsts <- Array.make 64 0;
      t.depths <- Array.make 64 0;
      t.steps <- Array.make 64 0;
      t.wins <- Array.make 64 0;
      t.prevs <- Array.make 64 (-1);
      t.nexts <- Array.make 64 (-1)
    end;
    t.base <- id;
    t.lo <- 0;
    t.hi <- 0
  end
  else begin
    let rel = id - t.base in
    if rel < 0 || rel >= cap then begin
      let new_base = min (t.base + t.lo) id in
      let span = max (t.base + t.hi) (id + 1) - new_base in
      let new_cap =
        let c = ref (max cap 64) in
        while !c < span do
          c := !c * 2
        done;
        !c
      in
      let off = t.base + t.lo - new_base in
      let len = t.hi - t.lo in
      let move_int a fill =
        let b = Array.make new_cap fill in
        Array.blit a t.lo b off len;
        b
      in
      let payloads = Array.make new_cap None in
      Array.blit t.payloads t.lo payloads off len;
      t.payloads <- payloads;
      t.srcs <- move_int t.srcs 0;
      t.dsts <- move_int t.dsts 0;
      t.depths <- move_int t.depths 0;
      t.steps <- move_int t.steps 0;
      t.wins <- move_int t.wins 0;
      t.prevs <- move_int t.prevs (-1);
      t.nexts <- move_int t.nexts (-1);
      t.lo <- off;
      t.hi <- off + len;
      t.base <- new_base
    end
  end

let ensure_dst t dst =
  let len = Array.length t.heads in
  if dst >= len then begin
    let new_len = max (dst + 1) (max 8 (len * 2)) in
    let heads = Array.make new_len (-1) and tails = Array.make new_len (-1) in
    Array.blit t.heads 0 heads 0 len;
    Array.blit t.tails 0 tails 0 len;
    t.heads <- heads;
    t.tails <- tails
  end

(* Splice id into dst's queue keeping ascending-id order.  The engine
   issues ids monotonically, so the common case is an O(1) append after
   [tail]; out-of-order ids (hand-built tests, corrupt splits of a
   broadcast destination) walk backwards to their slot. *)
let enqueue t dst id =
  ensure_dst t dst;
  let rel = id - t.base in
  let tail = t.tails.(dst) in
  if tail < 0 then begin
    t.heads.(dst) <- id;
    t.tails.(dst) <- id
  end
  else if tail < id then begin
    t.nexts.(tail - t.base) <- id;
    t.prevs.(rel) <- tail;
    t.tails.(dst) <- id
  end
  else begin
    let cur = ref tail in
    while !cur >= 0 && !cur > id do
      cur := t.prevs.(!cur - t.base)
    done;
    if !cur < 0 then begin
      let head = t.heads.(dst) in
      t.nexts.(rel) <- head;
      t.prevs.(head - t.base) <- id;
      t.heads.(dst) <- id
    end
    else begin
      let pred = !cur in
      let succ = t.nexts.(pred - t.base) in
      t.prevs.(rel) <- pred;
      t.nexts.(rel) <- succ;
      t.prevs.(succ - t.base) <- id;
      t.nexts.(pred - t.base) <- id
    end
  end

let unlink t rel =
  let dst = t.dsts.(rel) in
  if dst >= 0 then begin
    let prev = t.prevs.(rel) and next = t.nexts.(rel) in
    if prev >= 0 then t.nexts.(prev - t.base) <- next else t.heads.(dst) <- next;
    if next >= 0 then t.prevs.(next - t.base) <- prev else t.tails.(dst) <- prev
  end

let arena_insert t ~id ~src ~dst ~payload ~depth ~step ~window =
  ensure_slot t id;
  let rel = id - t.base in
  t.payloads.(rel) <- Some payload;
  t.srcs.(rel) <- src;
  t.dsts.(rel) <- dst;
  t.depths.(rel) <- depth;
  t.steps.(rel) <- step;
  t.wins.(rel) <- window;
  t.prevs.(rel) <- -1;
  t.nexts.(rel) <- -1;
  if t.ucount = 0 then begin
    t.lo <- rel;
    t.hi <- rel + 1
  end
  else begin
    if rel < t.lo then t.lo <- rel;
    if rel + 1 > t.hi then t.hi <- rel + 1
  end;
  t.ucount <- t.ucount + 1;
  if dst >= 0 then enqueue t dst id

let arena_remove t rel =
  unlink t rel;
  t.payloads.(rel) <- None;
  t.ucount <- t.ucount - 1;
  if t.ucount = 0 then begin
    t.lo <- 0;
    t.hi <- 0
  end
  else begin
    while
      t.lo < t.hi && Option.is_none t.payloads.(t.lo)
    do
      t.lo <- t.lo + 1
    done;
    while
      t.hi > t.lo && Option.is_none t.payloads.(t.hi - 1)
    do
      t.hi <- t.hi - 1
    done
  end

(* {2 Broadcast-table internals} *)

(* Largest k < bc_len with bc_firsts.(k) <= id, or -1: disjoint sorted
   ranges mean only this entry can contain [id]. *)
let bc_index_for t id =
  let lo = ref 0 and hi = ref t.bc_len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.bc_firsts.(mid) <= id then lo := mid + 1 else hi := mid
  done;
  !lo - 1

(* Index of the live broadcast entry holding [id] as a still-pending
   destination, or -1. *)
let bc_slot t id =
  let k = bc_index_for t id in
  if k < 0 then -1
  else
    match t.bcs.(k) with
    | Some bc
      when id - bc.bc_first < bc.bc_count
           && Bitset.mem bc.bc_pending (id - bc.bc_first) ->
        k
    | Some _ | None -> -1

(* Internal: only called on indices [bc_slot] returned. *)
let bc_entry t k = match t.bcs.(k) with Some bc -> bc | None -> assert false


let env_of_bc bc id =
  {
    Envelope.id;
    src = bc.bc_src;
    dst = id - bc.bc_first;
    payload = bc.bc_payload;
    depth = bc.bc_depth;
    sent_at_step = bc.bc_step;
    sent_in_window = bc.bc_window;
  }

(* Internal: only called when [bc_mem] holds for (k, bc, id). *)
let bc_remove t k bc id =
  Bitset.remove bc.bc_pending (id - bc.bc_first);
  bc.bc_remaining <- bc.bc_remaining - 1;
  t.bc_pending_total <- t.bc_pending_total - 1;
  if bc.bc_remaining = 0 then begin
    t.bcs.(k) <- None;
    t.bc_live <- t.bc_live - 1
  end

(* Lazy compaction, amortized O(1): only [add_broadcast] calls this, so
   iterators holding table indices are never invalidated mid-walk. *)
let bc_compact t =
  if t.bc_len > 8 && t.bc_live * 2 < t.bc_len then begin
    let w = ref 0 in
    for k = 0 to t.bc_len - 1 do
      match t.bcs.(k) with
      | None -> ()
      | Some bc ->
          t.bcs.(!w) <- t.bcs.(k);
          t.bc_firsts.(!w) <- bc.bc_first;
          incr w
    done;
    for k = !w to t.bc_len - 1 do
      t.bcs.(k) <- None
    done;
    t.bc_len <- !w
  end

(* {2 Public surface} *)

let mem t id = slot_occupied t (id - t.base) || bc_slot t id >= 0

let add_unicast t ~id ~src ~dst ~payload ~depth ~sent_at_step ~sent_in_window =
  if mem t id then invalid_arg "Mailbox.add: duplicate message id";
  arena_insert t ~id ~src ~dst ~payload ~depth ~step:sent_at_step
    ~window:sent_in_window

let add_broadcast t ~first ~count ~src ~payload ~depth ~sent_at_step
    ~sent_in_window =
  if count <= 0 then invalid_arg "Mailbox.add_broadcast: count must be positive";
  if first < t.bc_hi || (t.ucount > 0 && first < t.base + t.hi) then
    invalid_arg "Mailbox.add_broadcast: ids not fresh";
  bc_compact t;
  if t.bc_len = Array.length t.bcs then begin
    let new_cap = max 8 (t.bc_len * 2) in
    let bcs = Array.make new_cap None and firsts = Array.make new_cap 0 in
    Array.blit t.bcs 0 bcs 0 t.bc_len;
    Array.blit t.bc_firsts 0 firsts 0 t.bc_len;
    t.bcs <- bcs;
    t.bc_firsts <- firsts
  end;
  t.bcs.(t.bc_len) <-
    Some
      {
        bc_first = first;
        bc_count = count;
        bc_src = src;
        bc_payload = payload;
        bc_depth = depth;
        bc_step = sent_at_step;
        bc_window = sent_in_window;
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
  let rel = id - t.base in
  if slot_occupied t rel then begin
    let src = t.srcs.(rel) and dst = t.dsts.(rel) and depth = t.depths.(rel) in
    let payload = slot_payload t rel in
    arena_remove t rel;
    f ctx ~id ~src ~dst ~depth payload;
    true
  end
  else
    let k = bc_slot t id in
    k >= 0
    &&
    let bc = bc_entry t k in
    bc_remove t k bc id;
    f ctx ~id ~src:bc.bc_src ~dst:(id - bc.bc_first) ~depth:bc.bc_depth bc.bc_payload;
    true

let find t id =
  let rel = id - t.base in
  if slot_occupied t rel then Some (env_of_slot t rel)
  else
    let k = bc_slot t id in
    if k < 0 then None else Some (env_of_bc (bc_entry t k) id)

(* Corrupting a broadcast destination splits it out: the destination
   leaves the shared broadcast entry and becomes an ordinary arena
   envelope (same id, new payload), so the other destinations keep the
   original payload.  Arena envelopes are rewritten in place. *)
let replace_payload t id payload =
  let rel = id - t.base in
  if slot_occupied t rel then begin
    t.payloads.(rel) <- Some payload;
    true
  end
  else
    let k = bc_slot t id in
    k >= 0
    &&
    let bc = bc_entry t k in
    bc_remove t k bc id;
    arena_insert t ~id ~src:bc.bc_src ~dst:(id - bc.bc_first) ~payload
      ~depth:bc.bc_depth ~step:bc.bc_step ~window:bc.bc_window;
    true

let size t = t.ucount + t.bc_pending_total
let is_empty t = size t = 0

(* Ascending-id walk over both stores: arena occupancy scan merged with
   the broadcast table's pending bits (both naturally ascending). *)
let iter t f =
  let r = ref t.lo in
  let arena_next () =
    while !r < t.hi && Option.is_none t.payloads.(!r) do
      incr r
    done;
    if !r >= t.hi then max_int else t.base + !r
  in
  let k = ref 0 and d = ref 0 in
  let bc_next () =
    let res = ref max_int and scanning = ref true in
    while !scanning do
      if !k >= t.bc_len then scanning := false
      else
        match t.bcs.(!k) with
        | None ->
            incr k;
            d := 0
        | Some bc -> (
            match Bitset.next_from bc.bc_pending !d with
            | -1 ->
                incr k;
                d := 0
            | nd ->
                res := bc.bc_first + nd;
                scanning := false)
    done;
    !res
  in
  let running = ref true in
  while !running do
    let a = arena_next () and b = bc_next () in
    if a = max_int && b = max_int then running := false
    else if a < b then begin
      let rel = !r in
      incr r;
      f (env_of_slot t rel)
    end
    else
      match t.bcs.(!k) with
      | Some bc ->
          d := b - bc.bc_first + 1;
          f (env_of_bc bc b)
      | None -> assert false
  done

let pending t =
  let acc = ref [] in
  iter t (fun e -> acc := e :: !acc);
  List.rev !acc

let pending_ids t =
  let acc = ref [] in
  iter t (fun e -> acc := e.Envelope.id :: !acc);
  List.rev !acc

(* The per-destination walk behind [iter_for] and [drain_for]: a
   two-pointer merge of dst's arena queue (ascending by construction)
   with the live broadcast entries (ascending [bc_first], at most one
   contribution — id [bc_first + dst] — each).  Every envelope with id
   in [from, til) whose source passes [allow] is handed to [f] by its
   fields, after its removal when [remove] is set.  Cursors advance
   before [f] runs, so [f] may take (or corrupt-split) the visited
   envelope.  The cursors are local refs no closure captures, so the
   walk allocates nothing. *)
let walk_for t ~dst ~from ~til ~allow ~remove ctx f =
  let ucur = ref (if dst < Array.length t.heads then t.heads.(dst) else -1) in
  let k = ref 0 and running = ref true in
  while !running do
    while
      !k < t.bc_len
      &&
      match t.bcs.(!k) with
      | Some bc -> not (dst < bc.bc_count && Bitset.mem bc.bc_pending dst)
      | None -> true
    do
      incr k
    done;
    let bid = if !k < t.bc_len then t.bc_firsts.(!k) + dst else max_int in
    let uid = !ucur in
    if uid >= 0 && uid < bid then begin
      let rel = uid - t.base in
      ucur := t.nexts.(rel);
      let src = t.srcs.(rel) in
      if uid >= from && uid < til && allow ~dst ~src then begin
        let depth = t.depths.(rel) and payload = slot_payload t rel in
        if remove then arena_remove t rel;
        f ctx ~id:uid ~src ~dst ~depth payload
      end
    end
    else if bid < max_int then begin
      let kb = !k in
      incr k;
      let bc = bc_entry t kb in
      if bid >= from && bid < til && allow ~dst ~src:bc.bc_src then begin
        if remove then bc_remove t kb bc bid;
        f ctx ~id:bid ~src:bc.bc_src ~dst ~depth:bc.bc_depth bc.bc_payload
      end
    end
    else running := false
  done

let allow_all ~dst:_ ~src:_ = true

(* Envelopes with a negative dst sit in no queue (the engine never
   makes one), so [iter_for] finds them by scanning the arena. *)
let iter_for t ~dst ctx f =
  if dst >= 0 then
    walk_for t ~dst ~from:min_int ~til:max_int ~allow:allow_all ~remove:false ctx f
  else
    for rel = t.lo to t.hi - 1 do
      if Option.is_some t.payloads.(rel) && t.dsts.(rel) = dst then
        f ctx ~id:(t.base + rel) ~src:t.srcs.(rel) ~dst ~depth:t.depths.(rel)
          (slot_payload t rel)
    done

(* The envelope view of [iter_for], for callers that want whole
   records (the tests compare it with a reference store): one walk
   collects dst's ids, then each pending id is materialized. *)
let pending_for t ~dst =
  let ids = ref [] in
  iter_for t ~dst ids (fun ids ~id ~src:_ ~dst:_ ~depth:_ _ -> ids := id :: !ids);
  List.rev_map
    (fun id ->
      let rel = id - t.base in
      if slot_occupied t rel then env_of_slot t rel
      else env_of_bc (bc_entry t (bc_slot t id)) id)
    !ids

let drain_for t ~dst ~from ~til ~allow ctx f =
  if dst < 0 then invalid_arg "Mailbox.drain_for: negative dst";
  walk_for t ~dst ~from ~til ~allow ~remove:true ctx f

(* Ascending walk over the pending ids in [from, til), merging the
   arena occupancy scan with the broadcast pending bits.  The callback
   may [take_with] (the engine's drop sweep does) but must not add; after
   full-delivery windows the arena region is empty and the walk is a
   near-free bounds check instead of the old per-id [mem] probes. *)
let iter_ids_in_range t ~from ~til f =
  let r = ref (max t.lo (from - t.base)) in
  let arena_next () =
    while !r < t.hi && Option.is_none t.payloads.(!r) do
      incr r
    done;
    if !r >= t.hi then max_int else t.base + !r
  in
  let k = ref (max (bc_index_for t from) 0) in
  let bc_next i =
    let res = ref max_int and scanning = ref true in
    while !scanning do
      if !k >= t.bc_len then scanning := false
      else
        match t.bcs.(!k) with
        | None -> incr k
        | Some bc ->
            if bc.bc_first + bc.bc_count <= i then incr k
            else (
              match Bitset.next_from bc.bc_pending (max 0 (i - bc.bc_first)) with
              | -1 -> incr k
              | nd ->
                  res := bc.bc_first + nd;
                  scanning := false)
    done;
    !res
  in
  let i = ref from and running = ref true in
  while !running && !i < til do
    if t.ucount > 0 then r := max !r (!i - t.base);
    let a = arena_next () in
    let b = bc_next !i in
    let id = min a b in
    if id >= til then running := false
    else begin
      if id = a then incr r;
      f id;
      i := id + 1
    end
  done
