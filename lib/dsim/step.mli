(** The fine-grained steps of Section 2's execution model.

    An execution is a sequence of these, chosen by the adversary.  The
    three step kinds of the strongly adaptive model (sending, receiving,
    resetting) are joined by the crash and corruption steps needed for
    the classical models of Section 5 and the Byzantine baseline. *)

type 'm send =
  | Unicast of int * 'm  (** One envelope to one destination. *)
  | Broadcast of 'm
      (** One envelope to every processor [0 .. n-1].  The engine
          reserves [n] consecutive message ids (id = first + dst) and
          stores a single payload; per-destination envelopes are
          materialized lazily at delivery time, so a uniform send is
          O(1) at emission regardless of [n]. *)

type 'm t =
  | Send of int
      (** Processor places its complete outgoing response in the buffer.
          A second consecutive [Send] with no intervening delivery or
          reset is a no-op, as the model requires. *)
  | Deliver of int  (** Deliver the buffered message with this id. *)
  | Drop of int
      (** Remove a buffered message without delivering it.  Legal for
          the resetting adversary (messages of reset processors) and for
          the crash adversary (messages to crashed processors). *)
  | Reset of int  (** Erase a processor's memory (resetting failure). *)
  | Crash of int  (** Permanently stop a processor (crash failure). *)
  | Corrupt of int * 'm
      (** Byzantine corruption: rewrite buffered message [id] in place. *)

val send_count : n:int -> 'm send list -> int
(** Number of envelopes the engine will place in the buffer for these
    sends: unicasts count 1, broadcasts count [n]. *)

val expand : n:int -> 'm send list -> (int * 'm) list
(** Materialize the per-destination [(dst, payload)] pairs, in the
    exact order the engine assigns message ids (broadcasts expand to
    dst [0 .. n-1] ascending).  O(total envelopes) — for analysis and
    tests, not the engine's hot path. *)
