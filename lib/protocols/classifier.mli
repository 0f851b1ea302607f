(** Dynamic classification of algorithms against Definitions 15 and 16.

    Theorem 17's lower bound applies to algorithms that are *forgetful*
    (messages depend only on the input bit plus messages and randomness
    received since the previous sending event) and *fully communicative*
    (receiving the latest messages from [n - t] processors triggers a
    send to all [n]).  These are semantic properties; a dynamic analysis
    can falsify them but not prove them, so verdicts are
    "no counterexample found" versus a concrete counterexample.

    Method:
    - {e fully communicative}: run windowed executions (full delivery,
      then silencing [t]); after every window in which a processor
      received at least [n - t] fresh messages, check that its next
      sending step emits messages to all [n] processors.
    - {e forgetful}: collect, across many randomized executions, pairs
      (observable core, messages emitted at the next sending step).
      The observable core — round, phase, estimate, input — is what a
      forgetful round-based algorithm's sends may depend on; two equal
      cores emitting different message sets witness hidden long-term
      memory.  (The witness is sound for the protocols in this library,
      whose per-send randomness is only the step-3 coin already folded
      into the estimate.) *)

type verdict =
  | No_counterexample of int  (** Trials performed without a violation. *)
  | Counterexample of string  (** Human-readable witness. *)

type report = {
  protocol_name : string;
  declared_forgetful : bool;
  declared_fully_communicative : bool;
  forgetful : verdict;
  fully_communicative : verdict;
}

val check :
  ('s, 'm) Dsim.Protocol.t ->
  n:int ->
  t:int ->
  seeds:int list ->
  windows_per_run:int ->
  report

val consistent : report -> bool
(** Declared properties are not contradicted by the dynamic evidence:
    a declared-true property found a counterexample means [false];
    everything else is consistent. *)
