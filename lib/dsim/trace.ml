type event =
  | Sent of { src : int; dst : int; msg_id : int; depth : int }
  | Delivered of { src : int; dst : int; msg_id : int; depth : int }
  | Dropped of { msg_id : int }
  | Reset_done of { pid : int }
  | Crashed of { pid : int }
  | Decided of { pid : int; value : bool; step : int; window : int; chain_depth : int }
  | Window_closed of { index : int }

type t = {
  record_events : bool;
  mutable events_rev : event list;
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable resets : int;
  mutable crashes : int;
  mutable windows_closed : int;
  mutable decisions_rev : (int * bool * int * int * int) list;
}

let create ~record_events () =
  {
    record_events;
    events_rev = [];
    sent = 0;
    delivered = 0;
    dropped = 0;
    resets = 0;
    crashes = 0;
    windows_closed = 0;
    decisions_rev = [];
  }

(* Counters are ints and both lists are persistent, so a shallow record
   copy is already independent of the original. *)
let copy t = { t with sent = t.sent }

(* Only reached when [record_events] is on, so the per-delivery hot
   path of plain sweeps never touches the event list. *)
let note_event t event = t.events_rev <- event :: t.events_rev

(* One entry point per event kind: each bumps its counter and builds
   the event value only when the trace keeps events, so an unrecorded
   delivery allocates nothing here. *)
let record_delivered t ~src ~dst ~msg_id ~depth =
  t.delivered <- t.delivered + 1;
  if t.record_events then note_event t (Delivered { src; dst; msg_id; depth })

let record_dropped t ~msg_id =
  t.dropped <- t.dropped + 1;
  if t.record_events then note_event t (Dropped { msg_id })

let record_reset t ~pid =
  t.resets <- t.resets + 1;
  if t.record_events then note_event t (Reset_done { pid })

let record_crash t ~pid =
  t.crashes <- t.crashes + 1;
  if t.record_events then note_event t (Crashed { pid })

let record_window_closed t ~index =
  t.windows_closed <- t.windows_closed + 1;
  if t.record_events then note_event t (Window_closed { index })

(* Decisions are rare (at most one per processor) and always kept. *)
let record_decided t ~pid ~value ~step ~window ~chain_depth =
  t.decisions_rev <- (pid, value, step, window, chain_depth) :: t.decisions_rev;
  if t.record_events then note_event t (Decided { pid; value; step; window; chain_depth })

(* Bulk accounting for a lazily-expanded broadcast: the engine reserves
   ids [first .. first + count - 1] (id = first + dst) in one step, so
   the counter bumps once by [count]; the per-destination [Sent] events
   are only materialized when the trace keeps event lists at all. *)
let record_broadcast t ~src ~first ~count ~depth =
  t.sent <- t.sent + count;
  if t.record_events then
    for dst = 0 to count - 1 do
      note_event t (Sent { src; dst; msg_id = first + dst; depth })
    done

let events t = List.rev t.events_rev

let sent t = t.sent
let delivered t = t.delivered
let dropped t = t.dropped
let resets t = t.resets
let crashes t = t.crashes
let windows_closed t = t.windows_closed
let decisions t = List.rev t.decisions_rev

let first_decision t =
  match List.rev t.decisions_rev with [] -> None | d :: _ -> Some d
