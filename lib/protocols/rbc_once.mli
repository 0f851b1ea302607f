(** A single reliable-broadcast instance as a checkable protocol.

    Processor [origin] (default 0) reliably broadcasts its input bit;
    every processor decides the first payload it accepts for the
    origin's instance.  This exposes {!Reliable_broadcast}'s own
    guarantees — no two correct processors accept different payloads,
    and a correct origin's payload is the only acceptable one — to
    every harness built over [Dsim.Protocol.t], in particular the
    bounded model checker: with [n >= 3t + 1] the explorer must find no
    agreement violation even under an equivocating corruption menu,
    while the [rbc_*] threshold mutations must yield a minimal
    counterexample.

    Note the decision here is "accept", not consensus: validity means
    the decided value equals the {e origin's} input whenever the origin
    is correct; other processors' inputs are irrelevant. *)

type message = bool Reliable_broadcast.msg
type state

val protocol :
  ?name:string ->
  ?origin:int ->
  ?quorums:Quorums.t ->
  unit ->
  (state, message) Dsim.Protocol.t
(** [quorums] (default {!Reliable_broadcast.quorums}, whose resilience
    bound [props.byzantine_resilience] reports) is the mutation-testing
    hook: a declaration with weakened [rbc_*] thresholds, forwarded to
    {!Reliable_broadcast.create}.  Give mutants a distinct [name]. *)

val origin_of_state : state -> int
