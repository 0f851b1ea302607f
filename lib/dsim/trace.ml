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

let record t event =
  (match event with
  | Sent _ -> t.sent <- t.sent + 1
  | Delivered _ -> t.delivered <- t.delivered + 1
  | Dropped _ -> t.dropped <- t.dropped + 1
  | Reset_done _ -> t.resets <- t.resets + 1
  | Crashed _ -> t.crashes <- t.crashes + 1
  | Window_closed _ -> t.windows_closed <- t.windows_closed + 1
  | Decided { pid; value; step; window; chain_depth } ->
      t.decisions_rev <- (pid, value, step, window, chain_depth) :: t.decisions_rev);
  if t.record_events then note_event t event

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
