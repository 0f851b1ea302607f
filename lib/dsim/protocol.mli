(** First-class protocol descriptions.

    An algorithm in the paper's sense (Section 2) is a family of
    distributions on (new state, outgoing messages) indexed by (state,
    received message).  We realize it as a record of pure functions over
    an immutable state type ['s] and message type ['m]:

    - receiving steps ({!field-on_deliver}) are the only randomized
      transitions, matching the model;
    - sending steps ({!field-outgoing}) drain a deterministic outbox
      accumulated by previous transitions, so that a sending step is a
      "complete response to prior events" and a repeated send is a
      no-op;
    - resets ({!field-on_reset}) erase everything except the input bit,
      the output bit, the identity and the reset counter. *)

type props = {
  forgetful : bool;
      (** Declared: messages depend only on the input bit plus messages
          and randomness since the previous sending event (Def. 15). *)
  fully_communicative : bool;
      (** Declared: receiving the latest messages from [n - t]
          processors triggers a send to all [n] (Def. 16). *)
}

type ('s, 'm) t = {
  name : string;
  init : n:int -> t:int -> id:int -> input:bool -> 's;
      (** Initial state; must leave round-1 messages in the outbox. *)
  outgoing : 's -> 's * 'm Step.send list;
      (** Drain the outbox: returns the flushed state and the sends to
          place in the buffer — each a [Step.Broadcast m] to all [n]
          (stored once and expanded lazily by the engine, so a send is
          O(1) to emit).  Must be idempotent: flushing a flushed state
          returns no messages. *)
  on_deliver : 's -> src:int -> 'm -> Prng.Stream.t -> 's;
      (** Receiving step; the single randomized transition. *)
  on_reset : 's -> 's;
      (** Resetting failure.  Keeps input, output, identity, and must
          increment the reset counter reported by {!field-observe}. *)
  output : 's -> bool option;  (** The write-once output bit. *)
  observe : 's -> Obs.t;  (** Full-information view for adversaries. *)
  message_bit : 'm -> bool option;
      (** The vote a message carries, when it carries one; lets generic
          balancing adversaries count 0s and 1s in flight. *)
  message_round : 'm -> int option;
  message_origin : 'm -> int option;
      (** The processor whose vote this message carries, when it is not
          the sender: an echo or ready in reliable broadcast relays the
          *origin*'s vote.  [None] means "the sender is the origin"
          (the common case; consumers fall back to the envelope's
          source).  Lets view-splitting adversaries defer a vote
          wherever it travels. *)
  rewrite_bit : 'm -> bool -> 'm option;
      (** Byzantine hook: the same message with its vote replaced;
          [None] when the message carries no rewritable vote. *)
  state_core : 's -> string;
      (** Canonical serialization of the full local state (identity,
          memory, counters).  Configurations are compared coordinate-
          wise on these for the Hamming-distance machinery, and each
          is one processor's share of the model checker's dedup key,
          so implementations fill one local [Buffer] rather than
          formatting. *)
  props : props;
  add_message : Buffer.t -> 'm -> unit;
      (** Append the message's canonical text ([init[3]V1],
          [echo[3@0]D0], ...) to the buffer.  Written straight into the
          caller's buffer, with no [Format] or [Printf], because the
          model checker renders every pending message of every explored
          configuration into its dedup key
          ({!Engine.config_fingerprint}). *)
}

val default_props : props
(** Conservative defaults: not forgetful, not fully communicative.
    Fault bounds are not protocol properties here: each family declares
    its resilience in its [Protocols.Quorums.t]. *)
