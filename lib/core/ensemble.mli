(** Seed ensembles: run one (protocol, adversary) pair across many
    seeds and aggregate the paper-relevant statistics.

    Every experiment row in the reproduction harness is produced by one
    of these sweeps.  All runs are deterministic functions of their
    seed, which is what makes the [?jobs] parallel path below safe:
    seeds are distributed over [jobs] domains via {!Par_sweep} and the
    per-seed {!Partial} results are reduced with an integer-exact
    commutative/associative merge, so the result is bit-identical to
    the sequential fold for every [jobs] value. *)

type spec = {
  n : int;
  t : int;
  inputs : int -> bool array;
      (** Inputs per seed (e.g. constant split, or rotated). *)
  max_windows : int;  (** Budget for windowed runs. *)
  max_steps : int;  (** Budget for free-running runs. *)
  stop : Dsim.Runner.stop_condition;
}

val split_inputs : n:int -> int -> bool array
(** Alternating 0/1 inputs, rotated by the seed so both values lead. *)

val constant_inputs : n:int -> bool -> int -> bool array

(** Integer-exact per-chunk aggregation state.  [merge] is commutative
    and associative with [empty ()] as identity — exactly, not up to
    float rounding — so merging the partials of {i any} chunking of a
    seed list equals the unchunked fold bit for bit (the property
    [test/test_par_sweep.ml] checks mechanically). *)
module Partial : sig
  type t

  val empty : unit -> t
  (** Fresh identity element (the histogram inside is mutable, hence a
      function). *)

  val merge : t -> t -> t
  (** Combines without mutating either operand. *)

  val equal : t -> t -> bool
  val runs : t -> int
end

type result = {
  runs : int;
  agreement_failures : int;
  validity_failures : int;
  terminated : int;  (** Runs where the stop condition fired in budget. *)
  windows : Stats.Summary.t;  (** Windows to stop, over terminated runs. *)
  steps : Stats.Summary.t;
  chain_depth : Stats.Summary.t;  (** Message-chain length at stop. *)
  total_resets : Stats.Summary.t;
  decisions_zero : int;  (** Terminated runs deciding 0. *)
  decisions_one : int;
  window_histogram : Stats.Histogram.t;  (** Windows-to-stop distribution. *)
  lint_violations : int;
      (** Trace-invariant violations across all audited runs; always 0
          unless the sweep ran with [~lint:true]. *)
}

val finalize : Partial.t -> result
(** Deterministic conversion of exact integer moments into the public
    summaries; the single place floats enter the aggregation.  The
    result shares the partial's histogram. *)

val equal_result : result -> result -> bool
(** Field-by-field equality (bitwise on summary floats, observational
    on histograms): what "bit-identical sweeps" means operationally. *)

val run_windowed :
  ?jobs:int ->
  ?lint:bool ->
  ?lint_fifo:bool ->
  ?lint_quorum:int ->
  protocol:('s, 'm) Dsim.Protocol.t ->
  strategy:(int -> ('s, 'm) Adversary.Strategy.windowed) ->
  spec:spec ->
  seeds:int list ->
  unit ->
  result
(** One windowed run per seed; the strategy factory receives the seed
    so stateful strategies are fresh per run.

    [jobs] (default 1) runs seeds on up to that many domains; the
    result is bit-identical for every value (see {!Partial}).  The
    protocol record, spec and strategy factory are shared across
    domains and must stay immutable — true of every protocol/adversary
    in this repository, where all per-run state is created inside the
    run from the seed.

    With [~lint:true] (default false) every engine records its full
    event trace and {!Lintkit.Trace_lint.audit} checks it after the
    run; the violation count lands in [lint_violations] (summed over
    per-seed audits, so it parallelizes like every other field).
    [lint_fifo] (default true) controls the per-channel FIFO invariant
    — disable it for deferral adversaries that legitimately reorder
    channels.  [lint_quorum] is the minimum number of distinct senders
    a processor must have heard from before deciding. *)

val run_stepwise :
  ?jobs:int ->
  ?lint:bool ->
  ?lint_fifo:bool ->
  ?lint_quorum:int ->
  protocol:('s, 'm) Dsim.Protocol.t ->
  strategy:(int -> ('s, 'm) Adversary.Strategy.stepwise) ->
  spec:spec ->
  seeds:int list ->
  unit ->
  result

val partial_windowed :
  ?jobs:int ->
  ?lint:bool ->
  ?lint_fifo:bool ->
  ?lint_quorum:int ->
  protocol:('s, 'm) Dsim.Protocol.t ->
  strategy:(int -> ('s, 'm) Adversary.Strategy.windowed) ->
  spec:spec ->
  seeds:int list ->
  unit ->
  Partial.t
(** The pre-[finalize] aggregation behind {!run_windowed}; exposed so
    tests can check the merge algebra against real sweeps. *)

val termination_rate : result -> float
val agreement_rate : result -> float
val validity_rate : result -> float

val pp_result : Format.formatter -> result -> unit
(** Multi-line human summary (used by the CLI sweep mode). *)
