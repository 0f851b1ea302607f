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

val record : t -> event -> unit

val record_broadcast : t -> src:int -> first:int -> count:int -> depth:int -> unit
(** Account for a lazily-expanded broadcast occupying ids
    [first .. first + count - 1] (destination [dst] gets id
    [first + dst]): bumps the sent counter by [count] in O(1) and, when
    event recording is on, appends the same per-destination [Sent]
    events the eager expansion produced. *)

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
