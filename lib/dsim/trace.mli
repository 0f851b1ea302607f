(** Execution traces and running-time accounting.

    A trace records the events of an execution at the granularity the
    paper measures: sends, deliveries, resets, crashes, decisions and
    window boundaries.  The counters (and the decision list) are always
    kept.  The events themselves are kept as an in-memory list only
    when [record_events] is set: long adversarial executions are
    exponentially long, so plain sweeps record none. *)

type event =
  | Sent of { src : int; dst : int; msg_id : int; depth : int }
  | Delivered of { src : int; dst : int; msg_id : int; depth : int }
  | Dropped of { msg_id : int }
  | Reset_done of { pid : int }
  | Crashed of { pid : int }
  | Decided of { pid : int; value : bool; step : int; window : int; chain_depth : int }
  | Window_closed of { index : int }

type t

val create : record_events:bool -> unit -> t

val copy : t -> t
(** Independent counters and recorded events. *)

(** {2 Recording}

    One entry point per event kind.  Each takes the event's fields,
    bumps its counter and builds the {!event} value only when
    [record_events] is set, so a trace that keeps no events allocates
    nothing per call (decisions excepted: they are always kept). *)

val record_delivered : t -> src:int -> dst:int -> msg_id:int -> depth:int -> unit
val record_dropped : t -> msg_id:int -> unit
val record_reset : t -> pid:int -> unit
val record_crash : t -> pid:int -> unit
val record_window_closed : t -> index:int -> unit

val record_decided :
  t -> pid:int -> value:bool -> step:int -> window:int -> chain_depth:int -> unit

val record_broadcast : t -> src:int -> first:int -> count:int -> depth:int -> unit
(** Account for a send: a lazily-expanded broadcast occupying ids
    [first .. first + count - 1] (destination [dst] gets id
    [first + dst]).  Bumps the sent counter by [count] in O(1) and, when
    event recording is on, appends one [Sent] event per destination in
    id order, as an eager expansion would. *)

val events : t -> event list
(** Chronological; empty unless [record_events] was set. *)

val sent : t -> int
val delivered : t -> int
val dropped : t -> int
val resets : t -> int
val crashes : t -> int
val windows_closed : t -> int

val decisions : t -> (int * bool * int * int * int) list
(** [(pid, value, step, window, chain_depth)] in decision order; always
    recorded, even when events are not. *)

val first_decision : t -> (int * bool * int * int * int) option
