(** The message buffer of the asynchronous system.

    Sent messages sit here until the adversary schedules their delivery
    (or drops them, when it is entitled to).  Iteration order is always
    ascending message id, so executions are fully deterministic.

    Every send is a broadcast, so the buffer is one table that keeps
    each send as a single shared entry (payload + one pending bit per
    destination).  Per-destination envelopes are never built: every
    read hands a {!visitor} the envelope's fields.  A corrupted
    destination keeps its id and its place; only its payload is
    overridden.

    An entry whose last destination is taken stays in its table cell,
    dead: it has no pending bit, so reads pass over it.  When fewer
    than half the entries are live, the next {!add_broadcast} compacts
    the table, swapping the dead entries to its tail, and then adds by
    refilling the first of them in place — its pending bits too, when
    its destination count is the same — so a mailbox whose broadcasts
    are all delivered (every balancing window's are) allocates nothing
    for the next window's.  A dead entry keeps its payload reachable
    until it is refilled. *)

type 'm t

val create : unit -> 'm t

val copy : 'm t -> 'm t
(** An independent mailbox with the same pending envelopes.  Only live
    entries are copied, each with its pending bits, into a table sized
    to them: O(live entries), and no dead cell is shared, so refills on
    either side never reach the other. *)

val add_broadcast :
  'm t -> first:int -> count:int -> src:int -> payload:'m -> depth:int -> unit
(** Store a uniform send to destinations [0 .. count-1] as one shared
    entry occupying ids [first .. first + count - 1], destination [dst]
    owning id [first + dst] — the id order an eager per-destination
    expansion would have produced.  O(count / word-size): the only
    per-destination state is one pending bit.  Refills a dead entry in
    place when the table holds one past its live entries, and allocates
    nothing then unless [count] differs from that entry's.  The id range
    must be fresh (beyond every id ever stored); [Invalid_argument]
    otherwise. *)

type ('a, 'm) visitor = 'a -> id:int -> src:int -> dst:int -> depth:int -> 'm -> unit
(** A callback handed an envelope's fields, with the caller's state
    ['a] passed in explicitly: a top-level visitor needs no closure, so
    visiting or removing an envelope allocates nothing. *)

val take_with : 'm t -> int -> 'a -> ('a, 'm) visitor -> bool
(** [take_with t id ctx f] removes the pending envelope [id] and then
    calls [f ctx] on its fields; [false], and no call, when no message
    with this id is pending.  The engine's [Deliver] and [Drop] steps
    remove through this.  One binary search over the live entries. *)

val replace_payload : 'm t -> int -> 'm -> bool
(** Byzantine corruption hook: rewrite the payload of pending message
    [id], leaving the other destinations of its broadcast alone.
    Returns [false] when no such message is pending. *)

val size : 'm t -> int

val iter_range : 'm t -> from:int -> til:int -> 'a -> ('a, 'm) visitor -> unit
(** [iter_range t ~from ~til ctx f] visits the pending envelopes with
    id in [\[from, til)] in ascending-id order, handing [f ctx] each
    one's fields.  The callback may {!take_with} or {!replace_payload}
    the envelope it is visiting (the engine's drop sweep takes it), but
    must not add to this mailbox.  Cost: the live entries overlapping
    the range plus the envelopes visited — after a full-delivery window
    the engine's sweep of that window's ids is O(log entries). *)

val pending_ids : 'm t -> int list
(** All pending ids, ascending: {!iter_range} over every id. *)

val iter_for : 'm t -> dst:int -> 'a -> ('a, 'm) visitor -> unit
(** [iter_for t ~dst ctx f] visits the pending envelopes addressed to
    [dst] in ascending-id order (each live entry contributes at most
    one), handing [f ctx] each one's fields.  The callback may
    {!take_with} or {!replace_payload} the envelope it is visiting, but
    must not add to this mailbox while the iteration runs.  Allocates
    nothing. *)

val drain_for :
  'm t ->
  dst:int ->
  from:int ->
  til:int ->
  allow:(dst:int -> src:int -> bool) ->
  'a ->
  ('a, 'm) visitor ->
  unit
(** {!iter_for} combined with removal: visit the pending envelopes
    addressed to [dst] in ascending-id order, and for each with id in
    [\[from, til)] whose source passes [allow ~dst ~src], remove it
    from the store and then hand its fields to the callback.
    Envelopes outside the range or not allowed stay pending and are
    skipped.  One walk instead of an iteration plus per-envelope
    {!take_with} re-probes — every engine window delivers through this.
    The callback must not add to this mailbox. *)
