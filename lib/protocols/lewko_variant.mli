(** The paper's Section 3 algorithm: a Ben-Or/Bracha-style randomized
    agreement protocol that tolerates the strongly adaptive (resetting)
    adversary for [t < n/6].

    Per round [r], a processor broadcasts [(r, x)] and waits for [T1]
    round-[r] votes.  If [T2] of them agree on [v] it writes [v] to its
    output bit; if [T3] agree on [v] it adopts [x := v]; otherwise it
    adopts a fresh random bit.  Then it advances to round [r + 1].

    A reset processor (detectable, per the model) refrains from sending;
    it waits until it has seen [T1] votes sharing a common round [r],
    adopts that round, runs the same step-3 rule on those votes, and
    resumes normal operation at round [r + 1].

    Theorem 4: with [n - 2t >= T1 >= T2 >= T3 + t] and [2*T3 > n] this
    achieves measure-one correctness and termination against every
    strongly adaptive adversary — at exponential cost in the worst case
    (Section 3's closing remark, reproduced by experiment E2). *)

type message = { round : int; value : bool }

type state

val protocol :
  ?thresholds:Thresholds.t ->
  ?coin:(Prng.Stream.t -> bool) ->
  unit ->
  (state, message) Dsim.Protocol.t
(** Thresholds default to [Thresholds.default] for the engine's
    [(n, t)]; raises at [init] time when the triple is infeasible or
    fails validation.

    [coin] replaces the step-3 fallback coin; the default is a fair
    local coin.  Passing a constant function derandomizes the algorithm
    — the resulting deterministic protocol is exactly what the FLP
    impossibility (and the paper's introduction) says cannot always
    terminate: the balancing adversary keeps it undecided forever
    (see [examples/flp_determinism.ml]). *)

(* Exposed for white-box tests. *)

val pending_votes : state -> round:int -> int
(** Distinct votes collected so far for the given round. *)
