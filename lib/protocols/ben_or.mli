(** Ben-Or's randomized agreement protocol (PODC 1983), in the
    formulation whose correctness for [t < n/2] crash failures is proved
    by Aguilera and Toueg (the paper's reference [1]).

    Each round has two phases.  Report: broadcast [(R, r, x)] and wait
    for [n - t] round-[r] reports; if more than [n/2] carry the same [v]
    propose [v], otherwise propose [?].  Propose: wait for [n - t]
    round-[r] proposals; with at least [t + 1] proposals for [v] decide
    [v]; with at least one, adopt [x := v]; with none, flip a coin.

    The protocol is forgetful and fully communicative (Defs. 15/16) —
    it is the motivating member of the class Theorem 17's crash-failure
    lower bound applies to. *)

type message =
  | Report of { round : int; value : bool }
  | Propose of { round : int; value : bool option }
      (** [None] is the '?' proposal. *)

type state

val quorums : Quorums.t
(** The family's threshold declaration: [decide_at = t + 1] matching
    proposals, [wait_quorum = n - t] messages per phase, under the
    Byzantine resilience bound [t <= (n - 1) / 5] that
    [props.byzantine_resilience] reports. *)

val protocol :
  ?name:string ->
  ?quorums:Quorums.t ->
  unit ->
  (state, message) Dsim.Protocol.t
(** Resets are handled by restarting from the input bit (the protocol
    is not designed for the resetting model; its [reset_resilience] is
    0, and E1 measures what actually happens).

    [quorums] replaces the declaration above — the mutation-testing
    hook for the model checker's negative suite (build it with
    {!Quorums.override}); give the mutant a distinct [name]. *)

(* White-box accessors for tests. *)
val round_of_state : state -> int
val phase_of_state : state -> [ `Report | `Propose ]
val estimate_of_state : state -> bool
