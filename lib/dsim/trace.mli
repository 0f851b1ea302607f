(** Execution traces and running-time accounting.

    A trace records the events of an execution at the granularity the
    paper measures: sends, deliveries, resets, crashes, decisions and
    window boundaries.  Recording full event lists is optional (long
    adversarial executions are exponentially long); the counters are
    always maintained.

    When events are recorded they flow into a {!sink}: the default
    in-memory store (today's unbounded list), a bounded ring keeping
    only the last k events, or a chunk-flushed streaming consumer that
    keeps O(chunk) live heap on multi-million-event runs.  Every sink
    maintains the same incremental {!events_fingerprint}, so a streamed
    run can prove itself bit-identical to an in-memory one without
    either holding the whole event list. *)

type event =
  | Sent of { src : int; dst : int; msg_id : int; depth : int }
  | Delivered of { src : int; dst : int; msg_id : int; depth : int }
  | Dropped of { msg_id : int }
  | Reset_done of { pid : int }
  | Crashed of { pid : int }
  | Decided of { pid : int; value : bool; step : int; window : int; chain_depth : int }
  | Window_closed of { index : int }

type sink =
  | Memory  (** Unbounded in-memory event list — the historical default. *)
  | Ring of int
      (** Keep only the last k events; {!events} returns the retained
          suffix in chronological order. *)
  | Chunks of { emit : string -> unit; chunk_bytes : int }
      (** Render events to text ({!pp_event} lines) and hand the
          consumer chunks of at least [chunk_bytes]; {!events} returns
          [[]].  Build with {!chunks} / {!to_buffer} / {!to_channel}. *)

val chunks : ?chunk_bytes:int -> (string -> unit) -> sink
(** Streaming sink with chunked flush (default 64 KiB).  Call {!flush}
    at end of run to push the final partial chunk. *)

val to_buffer : ?chunk_bytes:int -> Buffer.t -> sink
val to_channel : ?chunk_bytes:int -> out_channel -> sink

type t

val create : ?sink:sink -> record_events:bool -> unit -> t
(** [sink] defaults to [Memory].  The sink only matters when
    [record_events] is set; counters are maintained regardless. *)

val copy : t -> t
(** Independent counters and retained events.  A copied [Chunks] trace
    keeps its own scratch buffer but shares the downstream consumer. *)

val record : t -> event -> unit

val record_broadcast : t -> src:int -> first:int -> count:int -> depth:int -> unit
(** Account for a lazily-expanded broadcast occupying ids
    [first .. first + count - 1] (destination [dst] gets id
    [first + dst]): bumps the sent counter by [count] in O(1) and, when
    event recording is on, appends the same per-destination [Sent]
    events the eager expansion produced. *)

val flush : t -> unit
(** Push the streaming sink's pending partial chunk to its consumer;
    a no-op on the other sinks. *)

val events : t -> event list
(** Chronological; empty unless [record_events] was set.  Under a
    [Ring] sink, only the retained suffix; under [Chunks], always
    empty (the text already left through the consumer). *)

val events_fingerprint : t -> string
(** Incremental FNV-1a digest (16 hex chars) over the rendered text of
    every event recorded so far — identical across sinks for identical
    event sequences, and the basis of the streamed-vs-memory
    differential tests.  Constant (the empty-sequence digest) when
    [record_events] is off. *)

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

val pp_event : Format.formatter -> event -> unit
val pp : Format.formatter -> t -> unit
