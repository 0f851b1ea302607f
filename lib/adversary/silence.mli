(** Silencing adversaries: never deliver from a (fixed or rotating) set
    of up to [t] senders.

    This is the schedule used in the proofs of Lemmas 11 and 13: "the
    adversary can continue such an execution by always delivering the
    messages from the last [n - t] processors".  Against a correct
    algorithm it must still terminate (the silenced processors simply
    look crashed). *)

val fixed : silenced:int list -> ('s, 'm) Strategy.windowed
(** Every window excludes exactly the given senders (at most [t] of
    them) from every receive set; no resets. *)

val rotating : period:int -> count:int -> ('s, 'm) Strategy.windowed
(** Every [period] windows, shift the silenced block of [count]
    processors by [count] (mod n): models transient partitions. *)

val first_t : ('s, 'm) Strategy.windowed
(** The proofs' canonical choice: silence processors [{0, ..., t-1}],
    i.e. always deliver from [S = {t, ..., n-1}] ("the last n - t
    processors"). *)

val last_t : ('s, 'm) Strategy.windowed
(** Mirror image: silence [{n-t, ..., n-1}].  Note that with ascending
    delivery order and threshold-triggered protocols this schedule is
    observationally identical to the benign one (the first [T1]
    messages coincide) — a useful control. *)

val random : seed:int -> ('s, 'm) Strategy.windowed
(** Silence [t] senders drawn uniformly at random each window.  Random
    silencing is not adversarial enough for the exponential slowdown:
    E10's control against the balancing adversary. *)
