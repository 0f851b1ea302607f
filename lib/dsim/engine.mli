(** The execution engine: configurations and step application.

    A configuration (Section 2) is the n-tuple of processor states plus
    the message buffer; the engine additionally tracks crash flags,
    reset counters, causal depths and the trace.  All mutation goes
    through {!apply} or {!apply_window}, so every execution is a
    deterministic function of (protocol, inputs, seed, adversary
    choices).

    Configurations are copyable ({!copy}); lookahead adversaries fork
    speculative executions and may re-randomize the fork ({!reseed}) to
    model their ignorance of coins not yet flipped. *)

type ('s, 'm) t

val init :
  protocol:('s, 'm) Protocol.t ->
  n:int ->
  fault_bound:int ->
  inputs:bool array ->
  seed:int ->
  ?record_events:bool ->
  ?track_deliveries:bool ->
  unit ->
  ('s, 'm) t
(** Fresh configuration; every processor's outbox holds its initial
    messages (not yet sent: the first [Send] steps flush them).
    [track_deliveries] (default [false]) turns on the per-delivery
    conditioning log behind {!recent_deliveries}; leave it off for
    plain sweeps so the hot loop records nothing.  [record_events]
    (default [false]) keeps every event in the trace's in-memory list
    ({!Trace.events}); the trace's counters are kept regardless. *)

val copy : ('s, 'm) t -> ('s, 'm) t
(** Deep copy: future steps on the copy do not affect the original.
    The copy replays the same coins unless {!reseed} is called. *)

val reseed : ('s, 'm) t -> Prng.Stream.t -> unit
(** Re-derive every processor's randomness stream from the given
    stream, so a forked configuration flips fresh coins. *)

val reseed_shared : ('s, 'm) t -> Prng.Stream.t -> unit
(** Give every processor an identical copy of [stream], so all coins
    are perfectly correlated.  The model checker uses this: safety must
    hold for {e every} coin assignment, including correlated ones, and
    identical per-processor streams make configurations equivariant
    under pid permutation — the precondition of its symmetry
    reduction. *)

(* {2 Accessors (the adversary's full-information view)} *)

val n : ('s, 'm) t -> int
val fault_bound : ('s, 'm) t -> int
val protocol : ('s, 'm) t -> ('s, 'm) Protocol.t
val state : ('s, 'm) t -> int -> 's
val observe : ('s, 'm) t -> int -> Obs.t
val observations : ('s, 'm) t -> Obs.t array
val output : ('s, 'm) t -> int -> bool option
val crashed : ('s, 'm) t -> int -> bool
val crashed_count : ('s, 'm) t -> int
val reset_count : ('s, 'm) t -> int -> int
val inputs : ('s, 'm) t -> bool array
val mailbox : ('s, 'm) t -> 'm Mailbox.t
val step_index : ('s, 'm) t -> int
val window_index : ('s, 'm) t -> int
val trace : ('s, 'm) t -> Trace.t
val receive_depth : ('s, 'm) t -> int -> int
(** Maximum causal depth among messages this processor has received. *)

val recent_deliveries : ('s, 'm) t -> int -> string list
(** Canonical "src:payload" strings of the messages delivered to this
    processor since its last message-emitting sending step (cleared by
    resets), most recent first.  This is exactly the data a forgetful
    algorithm (Definition 15) may condition its next messages on; the
    classifier keys on it.  The strings are rendered on demand from the
    recorded (src, payload) pairs; always [[]] unless the configuration
    was created with [~track_deliveries:true]. *)

val max_chain_depth : ('s, 'm) t -> int

val decided_values : ('s, 'm) t -> (int * bool) list
(** All processors with a written output bit. *)

val all_decided : ('s, 'm) t -> bool
(** Every non-crashed processor has decided. *)

val some_decided : ('s, 'm) t -> bool

val decision_conflict : ('s, 'm) t -> bool
(** Both a 0-output and a 1-output exist — a correctness violation. *)

val state_cores : ('s, 'm) t -> string array
(** Per-processor canonical cores (via [Protocol.state_core]): two
    configurations with equal cores agree on all decision-relevant
    processor memory.  Hamming distance between configurations is
    computed coordinate-wise on these. *)

val config_fingerprint : ('s, 'm) t -> string
(** Canonical rendering of the {e full} decision-relevant
    configuration: per-processor state cores, crash flags, reset
    counters, PRNG states, and pending outbox sends (peeked via the
    pure [outgoing]), plus the mailbox's in-transit envelopes.  Two
    configurations with equal fingerprints have identical futures
    under identical adversary choices, which is what memoized
    deduplication in the bounded model checker needs.  Causal receive
    depths and step/window/message counters are excluded — they never
    feed a protocol transition. *)

(* {2 Step application} *)

val apply : ('s, 'm) t -> 'm Step.t -> unit
(** Apply one step.  Steps addressing crashed processors are silent
    no-ops for [Send]/[Reset]; a [Deliver] to a crashed processor drops
    the message.  [Deliver]/[Drop]/[Corrupt] of an unknown message id
    raise [Invalid_argument] (the adversary is a deterministic function
    of the visible configuration, so this is a strategy bug). *)

val apply_window :
  ('s, 'm) t -> ?tamper:(from_id:int -> til_id:int -> unit) -> Window.t -> unit
(** Apply one acceptable window (Definition 1): sending steps for all
    non-crashed processors, then for each [i] deliver the just-sent
    messages from senders in [S_i] (ascending sender order), then the
    resetting steps.  Delivery is one {!Mailbox.drain_for} walk per
    processor, which removes each envelope as it visits it.  Fresh
    messages outside every receive set are dropped at window end —
    windows only ever deliver "just sent" messages, so stale messages
    can never be delivered later anyway.  [tamper], if given, runs
    after the sending phase and before any delivery, with the fresh id
    range [\[from_id, til_id)]; it is the hook for in-transit Byzantine
    corruption ([Step.Corrupt] on fresh ids) and is what the model
    checker's corruption menu drives.  This is the only window
    applier: the strongly adaptive adversary picks each window after
    seeing the configuration the previous one produced, so windows are
    applied one at a time.  Windows are not validated — callers run
    {!Window.validate} first, as {!Runner.run_windows} does. *)

val deliver_all_pending : ('s, 'm) t -> dst:int -> unit
(** Deliver every pending message addressed to [dst], ascending id. *)
