(** Bracha's [(n-1)/3]-resilient asynchronous agreement protocol
    (PODC 1984), built on {!Reliable_broadcast}.

    Each round has three phases, all communicated through reliable
    broadcast so that Byzantine processors cannot equivocate:

    + broadcast [x]; on [n - t] accepted phase-1 votes, adopt the
      majority;
    + broadcast [x]; if more than [n/2] of the [n - t] accepted phase-2
      votes agree on [v], mark [v] as a decision candidate [D v];
    + broadcast the (possibly marked) vote; on [n - t] accepted phase-3
      votes: with [2t + 1] matching [D v] decide [v]; with [t + 1]
      adopt [v]; otherwise flip a coin.

    With [~validated:true] the protocol additionally applies Bracha's
    message-validation filter in its monotone form: an accepted vote is
    *quarantined* until it is justified by the validator's own view of
    the previous phase —

    - a phase-2 vote for [v] needs a possible [n - t] phase-1 subset
      with majority [v], i.e. at least [floor((n-t)/2) + 1] accepted
      phase-1 votes for [v];
    - a phase-3 decision candidate [D v] needs a possible phase-2
      subset with more than [n/2] votes for [v], i.e. at least
      [floor(n/2) + 1] accepted phase-2 votes for [v];
    - phase-1 votes of later rounds and plain phase-3 votes pass (their
      justification can always include a coin flip).

    Justification is monotone in the validator's accepted sets, so
    quarantined votes are re-examined as prior-phase acceptances
    arrive.  The filter blunts Byzantine senders that fabricate
    unjustified decision candidates (see the tests); the remaining gap
    to Bracha's full history-tracking validation is recorded in
    DESIGN.md. *)

type vote = Val of bool | Dec of bool
type message = vote Reliable_broadcast.msg
type state

val quorums : Quorums.t
(** The family's threshold declaration, under the resilience bound
    [t <= (n - 1) / 3] that [props.byzantine_resilience] reports:
    [decide_at = 2t + 1] matching [Dec v], [adopt_at = t + 1],
    [quorum = n - t] accepted votes per phase, and the three [rbc_*]
    keys of {!Reliable_broadcast.quorums}. *)

val protocol :
  ?validated:bool ->
  ?name:string ->
  ?quorums:Quorums.t ->
  unit ->
  (state, message) Dsim.Protocol.t
(** [validated] defaults to [false] (thresholds + RBC only).

    [quorums] replaces the declaration above, for mutation-style
    negative tests (build it with {!Quorums.override}); its [rbc_*]
    keys are passed to {!Reliable_broadcast.create}.  A mutated
    protocol must also be given a distinct [name] so traces, repro
    tables and model-checker reports cannot be mistaken for the sound
    protocol. *)

val quarantined_count : state -> int
(** Accepted-but-unjustified votes currently held back (always 0 when
    the protocol was built without validation). *)

(* White-box accessors for tests. *)
val round_of_state : state -> int
val phase_of_state : state -> int
val estimate_of_state : state -> bool
val tag_of : round:int -> phase:int -> int
