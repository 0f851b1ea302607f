type invariant = Fifo | Depth | Provenance | Window | Quorum

let invariant_id = function
  | Fifo -> "fifo"
  | Depth -> "depth"
  | Provenance -> "provenance"
  | Window -> "window"
  | Quorum -> "quorum"

type violation = { invariant : invariant; detail : string }

let pp_violation ppf v =
  Format.fprintf ppf "[%s] %s" (invariant_id v.invariant) v.detail

type config = {
  n : int;
  t : int;
  windowed : bool;
  fifo : bool;
  decision_quorum : int option;
}

(* A message ledger: parallel int arrays indexed by slot.  [state] is
   -1 for a slot no [Sent] filled, 0 for a message in flight, and then
   [delivered] or [dropped] once consumed. *)
type ledger = {
  mutable src : int array;
  mutable dst : int array;
  mutable depth : int array;
  mutable sent_window : int array;
  mutable state : int array;
}

let unsent = -1
let in_flight = 0
let delivered = 1
let dropped = 2
let consumed_name how = if how = delivered then "delivered" else "dropped"

let ledger_create capacity =
  {
    src = Array.make capacity 0;
    dst = Array.make capacity 0;
    depth = Array.make capacity 0;
    sent_window = Array.make capacity 0;
    state = Array.make capacity unsent;
  }

let ledger_grow lg capacity =
  let extend a fill =
    let b = Array.make capacity fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  in
  lg.src <- extend lg.src 0;
  lg.dst <- extend lg.dst 0;
  lg.depth <- extend lg.depth 0;
  lg.sent_window <- extend lg.sent_window 0;
  lg.state <- extend lg.state unsent

(* Whatever the dense tables cannot index: ids outside the dense
   ledger, and endpoints outside 0..n-1.  No engine produces these, so
   the table stays empty on audited runs and is only hashed when it is
   not. *)
type overflow_key =
  | Msg of int  (* an id outside the dense ledger -> its slot in [spill] *)
  | Channel of int * int  (* (src, dst), an endpoint outside 0..n-1 -> last delivered id *)
  | Heard of int * int  (* (dst, src), src outside 0..n-1: dst heard from src *)

type state = {
  config : config;
  mutable violations : violation list;
  (* Engine-issued ids are dense from 0, so the ledger is indexed by the
     id itself; [sent_count] bounds how far it may grow. *)
  ids : ledger;
  mutable sent_count : int;
  spill : ledger;
  mutable spilled : int;
  overflow : (overflow_key, int) Hashtbl.t;
  (* Per-channel last delivered id (src * n + dst), for FIFO.  A channel
     has one exactly when its destination has heard from its source. *)
  last_delivered : int array;
  (* Per-processor max delivered depth, for the depth invariant. *)
  recv_depth : int array;
  (* Per-processor distinct senders heard from, for the quorum check. *)
  heard : Dsim.Bitset.t array;
  heard_count : int array;
  decided : (int, bool) Hashtbl.t;
  mutable window : int;
  mutable resets_this_window : int;
}

let flag st invariant fmt =
  Format.kasprintf
    (fun detail -> st.violations <- { invariant; detail } :: st.violations)
    fmt

let in_range st pid = pid >= 0 && pid < st.config.n

(* Slots name a message's ledger entry without allocating: a slot [s >=
   0] is [st.ids] at index [s] (the id itself), a negative slot is
   [st.spill] at index [lnot s], and [absent] is an id never sent. *)
let absent = min_int
let ledger_of st slot = if slot >= 0 then st.ids else st.spill
let index slot = if slot >= 0 then slot else lnot slot

let locate st id =
  if id >= 0 && id < Array.length st.ids.state && st.ids.state.(id) <> unsent then id
  else if st.spilled = 0 then absent
  else match Hashtbl.find_opt st.overflow (Msg id) with Some k -> lnot k | None -> absent

(* The slot a fresh [Sent] of [id] fills.  The dense ledger grows to
   cover ids below twice the number of [Sent] events seen, so its size
   stays O(ids) whatever the ids are; anything else spills. *)
let claim st id =
  let capacity = Array.length st.ids.state in
  if id >= 0 && id < capacity then id
  else if id >= capacity && id < (2 * st.sent_count) + 64 then begin
    ledger_grow st.ids (Int.max (Int.max 64 (2 * capacity)) (id + 1));
    id
  end
  else begin
    let k = st.spilled in
    if k = Array.length st.spill.state then ledger_grow st.spill (Int.max 8 (2 * k));
    Hashtbl.replace st.overflow (Msg id) k;
    st.spilled <- k + 1;
    lnot k
  end

(* Mark slot [slot] consumed as [how]; false (and a violation) if it
   already was. *)
let consume st slot ~msg_id how =
  let lg = ledger_of st slot and i = index slot in
  let earlier = lg.state.(i) in
  if earlier <> in_flight then begin
    flag st Provenance "message #%d %s after already being %s" msg_id
      (consumed_name how) (consumed_name earlier);
    false
  end
  else begin
    lg.state.(i) <- how;
    true
  end

let on_sent st ~src ~dst ~msg_id ~depth =
  if not (in_range st src && in_range st dst) then
    flag st Provenance "message #%d has endpoints %d->%d outside 0..%d" msg_id src dst
      (st.config.n - 1);
  st.sent_count <- st.sent_count + 1;
  if locate st msg_id <> absent then flag st Provenance "message id #%d sent twice" msg_id
  else begin
    let slot = claim st msg_id in
    let lg = ledger_of st slot and i = index slot in
    lg.src.(i) <- src;
    lg.dst.(i) <- dst;
    lg.depth.(i) <- depth;
    lg.sent_window.(i) <- st.window;
    lg.state.(i) <- in_flight
  end;
  if in_range st src then begin
    let expected = st.recv_depth.(src) + 1 in
    if depth <> expected then
      flag st Depth
        "message #%d from %d has depth %d, expected %d (1 + max delivered depth %d)" msg_id
        src depth expected st.recv_depth.(src)
  end

let fifo_order st ~src ~dst ~msg_id prev =
  if msg_id <= prev then
    flag st Fifo
      "channel %d->%d delivered message #%d after #%d (ids must be strictly increasing)" src
      dst msg_id prev

let on_delivered st ~src ~dst ~msg_id ~depth =
  let slot = locate st msg_id in
  if slot = absent then flag st Provenance "delivered message #%d was never sent" msg_id
  else if consume st slot ~msg_id delivered then begin
    let lg = ledger_of st slot and i = index slot in
    if lg.src.(i) <> src || lg.dst.(i) <> dst || lg.depth.(i) <> depth then
      flag st Provenance
        "message #%d delivered as %d->%d depth %d but sent as %d->%d depth %d" msg_id src
        dst depth lg.src.(i) lg.dst.(i) lg.depth.(i);
    if st.config.windowed && lg.sent_window.(i) <> st.window then
      flag st Window "message #%d sent in window %d but delivered in window %d" msg_id
        lg.sent_window.(i) st.window
  end;
  let src_in = in_range st src and dst_in = in_range st dst in
  (if st.config.fifo then
     if src_in && dst_in then begin
       let c = (src * st.config.n) + dst in
       if Dsim.Bitset.mem st.heard.(dst) src then
         fifo_order st ~src ~dst ~msg_id st.last_delivered.(c);
       st.last_delivered.(c) <- msg_id
     end
     else begin
       let key = Channel (src, dst) in
       (match Hashtbl.find_opt st.overflow key with
       | Some prev -> fifo_order st ~src ~dst ~msg_id prev
       | None -> ());
       Hashtbl.replace st.overflow key msg_id
     end);
  if dst_in then begin
    if depth > st.recv_depth.(dst) then st.recv_depth.(dst) <- depth;
    let fresh =
      if src_in then not (Dsim.Bitset.mem st.heard.(dst) src)
      else not (Hashtbl.mem st.overflow (Heard (dst, src)))
    in
    if fresh then begin
      if src_in then Dsim.Bitset.add st.heard.(dst) src
      else Hashtbl.replace st.overflow (Heard (dst, src)) 0;
      st.heard_count.(dst) <- st.heard_count.(dst) + 1
    end
  end

let on_dropped st ~msg_id =
  let slot = locate st msg_id in
  if slot = absent then flag st Provenance "dropped message #%d was never sent" msg_id
  else ignore (consume st slot ~msg_id dropped : bool)

let on_decided st ~pid ~value =
  (match Hashtbl.find_opt st.decided pid with
  | Some _ -> flag st Quorum "processor %d decided twice" pid
  | None -> Hashtbl.replace st.decided pid value);
  (match st.config.decision_quorum with
  | Some quorum when in_range st pid ->
      let senders = st.heard_count.(pid) in
      if senders < quorum then
        flag st Quorum
          "processor %d decided %b having heard from only %d distinct senders (quorum %d)"
          pid value senders quorum
  | _ -> ());
  (* At most n decisions per run, so this stays hashed: the table's
     iteration order fixes the order of the messages below. *)
  Hashtbl.iter
    (fun other v ->
      if other <> pid && Bool.equal v (not value) then
        flag st Quorum "processors %d and %d decided opposite values" other pid)
    st.decided

let step st (event : Dsim.Trace.event) =
  match event with
  | Sent { src; dst; msg_id; depth } -> on_sent st ~src ~dst ~msg_id ~depth
  | Delivered { src; dst; msg_id; depth } -> on_delivered st ~src ~dst ~msg_id ~depth
  | Dropped { msg_id } -> on_dropped st ~msg_id
  | Reset_done { pid } ->
      if st.config.windowed then begin
        st.resets_this_window <- st.resets_this_window + 1;
        if st.resets_this_window = st.config.t + 1 then
          flag st Window
            "window %d performed more than t = %d resets (processor %d was reset %d-th)"
            st.window st.config.t pid st.resets_this_window
      end
  | Crashed _ -> ()
  | Decided { pid; value; _ } -> on_decided st ~pid ~value
  | Window_closed { index } ->
      if st.config.windowed then begin
        (* The engine increments its window counter before recording,
           so the k-th closing event carries index k (1-based). *)
        if index <> st.window + 1 then
          flag st Window "window closed with index %d, expected %d" index (st.window + 1);
        st.window <- st.window + 1;
        st.resets_this_window <- 0
      end

let rec walk st = function
  | [] -> ()
  | event :: rest ->
      step st event;
      walk st rest

(* [ids] sizes the dense ledger up front (an engine's sent count); the
   ledger grows from there as [claim] allows. *)
let check_sized ~ids config events =
  let n = Int.max config.n 0 in
  let st =
    {
      config;
      violations = [];
      ids = ledger_create (Int.max ids 0);
      sent_count = 0;
      spill = ledger_create 0;
      spilled = 0;
      overflow = Hashtbl.create 8;
      last_delivered = (if config.fifo then Array.make (n * n) 0 else [||]);
      recv_depth = Array.make (Int.max n 1) 0;
      heard = Array.init (Int.max n 1) (fun _ -> Dsim.Bitset.create ~capacity:n);
      heard_count = Array.make (Int.max n 1) 0;
      decided = Hashtbl.create 16;
      window = 0;
      resets_this_window = 0;
    }
  in
  walk st events;
  List.rev st.violations

let check config events = check_sized ~ids:64 config events

let audit ?decision_quorum ?(fifo = true) engine =
  let trace = Dsim.Engine.trace engine in
  match Dsim.Trace.events trace with
  | [] ->
      if Dsim.Engine.decision_conflict engine then
        [ { invariant = Quorum;
            detail = "processors decided opposite values (agreement violated)" } ]
      else []
  | events ->
      let config =
        { n = Dsim.Engine.n engine;
          t = Dsim.Engine.fault_bound engine;
          (* Recorded from [init], the trace holds a [Window_closed] for
             every window the engine applied. *)
          windowed = Dsim.Engine.window_index engine > 0;
          fifo;
          decision_quorum }
      in
      check_sized ~ids:(Dsim.Trace.sent trace) config events
