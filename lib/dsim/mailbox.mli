(** The message buffer of the asynchronous system.

    Sent messages sit here until the adversary schedules their delivery
    (or drops them, when it is entitled to).  Iteration order is always
    ascending message id, so executions are fully deterministic.

    Internally an arena: struct-of-arrays storage indexed by message id
    (the engine issues ids densely, so probes are O(1)) threaded with
    per-destination intrusive queues, plus a broadcast table that keeps
    each uniform send as a single shared entry (payload + one pending
    bit per destination) and materializes per-destination envelopes
    lazily; the list-returning accessors are derived views built in a
    single ascending-id merge of the two stores. *)

type 'm t

val create : unit -> 'm t
val copy : 'm t -> 'm t

val add_unicast :
  'm t ->
  id:int ->
  src:int ->
  dst:int ->
  payload:'m ->
  depth:int ->
  sent_at_step:int ->
  sent_in_window:int ->
  unit
(** Store one envelope, writing its fields straight into the arena's
    parallel arrays (no intermediate {!Envelope.t} record).  Ids must
    be unique; violating this raises [Invalid_argument]. *)

val add_broadcast :
  'm t ->
  first:int ->
  count:int ->
  src:int ->
  payload:'m ->
  depth:int ->
  sent_at_step:int ->
  sent_in_window:int ->
  unit
(** Store a uniform send to destinations [0 .. count-1] as one shared
    entry occupying ids [first .. first + count - 1], destination [dst]
    owning id [first + dst] — the id order an eager per-destination
    expansion would have produced.  O(count / word-size): the only
    per-destination state is one pending bit.  The id range must be
    fresh (beyond every id ever stored); [Invalid_argument] otherwise.
    Destinations become visible to [take_with]/[find]/[mem]/[iter_for]
    exactly as if [count] envelopes had been added individually. *)

type ('a, 'm) visitor = 'a -> id:int -> src:int -> dst:int -> depth:int -> 'm -> unit
(** A callback handed an envelope's fields rather than an {!Envelope.t},
    with the caller's state ['a] passed in explicitly: a top-level
    visitor needs no closure, so visiting or removing an envelope
    allocates nothing. *)

val take_with : 'm t -> int -> 'a -> ('a, 'm) visitor -> bool
(** [take_with t id ctx f] removes the pending envelope [id] and then
    calls [f ctx] on its fields; [false], and no call, when no message
    with this id is pending.  The engine's [Deliver] and [Drop] steps
    remove through this.  O(1) for a unicast, a binary search over the
    live broadcast entries for a broadcast destination. *)

val find : 'm t -> int -> 'm Envelope.t option

val mem : 'm t -> int -> bool
(** [mem t id] iff a message with this id is pending — O(1). *)

val replace_payload : 'm t -> int -> 'm -> bool
(** Byzantine corruption hook: rewrite a pending message in place.
    Returns [false] when no such message is pending.  Corrupting one
    destination of a broadcast splits that destination out of the
    shared entry (same id, new payload); the others keep the original
    payload. *)

val size : 'm t -> int
val is_empty : 'm t -> bool

val iter : 'm t -> ('m Envelope.t -> unit) -> unit
(** Visit every pending envelope in ascending-id order (arena merged
    with the broadcast table).  The callback must not add to this
    mailbox. *)

val pending : 'm t -> 'm Envelope.t list
(** All pending envelopes, ascending id: {!iter} collected. *)

val pending_for : 'm t -> dst:int -> 'm Envelope.t list
val pending_ids : 'm t -> int list

val iter_for : 'm t -> dst:int -> 'a -> ('a, 'm) visitor -> unit
(** [iter_for t ~dst ctx f] visits the pending envelopes addressed to
    [dst] in ascending-id order (arena queue merged with the broadcast
    table's contributions for [dst]), handing [f ctx] each one's
    fields.  The callback may {!take_with} (or {!mem}, {!find},
    {!replace_payload}) the envelope it is visiting, but must not add
    to this mailbox while the iteration runs.  Allocates nothing. *)

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
    skipped.  One merge walk instead of an iteration plus per-envelope
    {!take_with} re-probes — every engine window delivers through this.  No
    envelope record is built.  The callback must not add to this
    mailbox.  Raises [Invalid_argument] on a negative [dst]. *)

val iter_ids_in_range : 'm t -> from:int -> til:int -> (int -> unit) -> unit
(** Visit the pending ids in [\[from, til)] ascending.  The callback
    may {!take_with} the visited id (the engine's drop sweep does) but must
    not add to this mailbox.  Cost: the occupied arena span intersected with the
    range plus the live broadcast entries overlapping it — after a
    full-delivery window both are empty and the walk is O(1). *)
