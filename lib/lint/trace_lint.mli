(** Layer 2: the runtime trace invariant auditor.

    Replays a {!Dsim.Trace} event list and checks the structural
    invariants every legal execution of the engine must satisfy:

    - {b FIFO}: per (src, dst) channel, delivered message ids are
      strictly increasing (optional — deferral adversaries such as the
      echo chamber legitimately reorder channels);
    - {b Depth}: every [Sent] carries causal depth exactly one more
      than the maximum depth delivered to its sender so far (depths
      survive resets and crashes by construction);
    - {b Provenance}: every [Delivered]/[Dropped] id was previously
      [Sent] with the same endpoints and depth, and is consumed at most
      once;
    - {b Window}: in windowed executions (Definition 1), at most [t]
      resets occur per window, and every message a window sends is
      delivered or dropped before its [Window_closed] (so a delivery
      only carries a message of its own window; a message left open is
      flagged at the close, not again when it is consumed later);
    - {b Quorum}: a processor decides only after messages from at least
      [decision_quorum] distinct senders reached it, and no two
      processors decide opposite values.

    {b Cost.}  Time is O(events).  Memory is O(n{^2} + ids): the message
    ledger is parallel int arrays indexed by message id (the engine
    issues ids densely from 0), FIFO keeps an n×n table of the last
    delivered id per channel, and "heard from" is a bitset per
    destination plus a distinct-sender count; the window rule keeps
    one int, the current window's messages still in flight.  On
    engine-issued ids nothing is allocated per event.  Ids the dense ledger does not
    cover (negative, huge, or past twice the [Sent] count) and
    endpoints outside [0, n) go to a small hash table, so nothing is
    sized by the largest id.  Decisions (at most n per run) stay
    hashed. *)

type invariant = Fifo | Depth | Provenance | Window | Quorum

val invariant_id : invariant -> string
(** "fifo" | "depth" | "provenance" | "window" | "quorum". *)

type violation = { invariant : invariant; detail : string }

val pp_violation : Format.formatter -> violation -> unit

type config = {
  n : int;  (** number of processors *)
  t : int;  (** fault bound (caps resets per window) *)
  windowed : bool;  (** enforce the per-window invariants *)
  fifo : bool;  (** enforce per-channel FIFO delivery *)
  decision_quorum : int option;
      (** messages from at least this many distinct senders must have
          been delivered to a processor before it decides *)
}

val check : config -> Dsim.Trace.event list -> violation list
(** Audit an event list against the configured invariants.  Violations
    come back in detection order; an empty list means the trace is
    consistent. *)

val audit :
  ?decision_quorum:int -> ?fifo:bool -> ('s, 'm) Dsim.Engine.t -> violation list
(** Audit a finished (or in-flight) engine's own trace.  [n] and [t]
    are read off the engine; the window invariants are enforced exactly
    when the engine has applied a window ([Dsim.Engine.window_index] >
    0), which for events recorded from [init] means exactly when the
    trace contains [Window_closed] events.  The event list is walked
    once.  [fifo] defaults to
    [true].  Returns [] when the engine was initialised without
    [~record_events:true] and there is nothing to audit beyond
    decision conflicts. *)
