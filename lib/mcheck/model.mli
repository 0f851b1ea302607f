(** The checkable-model registry: each entry packs a protocol together
    with the safety predicate the explorer enforces on it (decision
    quorum, validity rule), instantiability checks, and advisory
    resilience notes — so the CLI, the tests and the repro tables all
    drive one set of definitions.

    Mutants live here too: the same protocol built from a declaration
    with thresholds broken, for which the explorer must produce a
    minimal violating schedule — the negative control proving the
    checker can see bugs.  [all] is also the registry the quorum lint
    checks. *)

type packed = Packed : ('s, 'm) Dsim.Protocol.t -> packed

type t = {
  name : string;
  describe : string;
  mutant : bool;
  packed : packed;
  quorums : Protocols.Quorums.t;
      (** the threshold declaration [packed] was built from; the quorum
          lint proves its obligations *)
  claim : Protocols.Symexpr.t option;
      (** the Byzantine resilience bound over [n] this entry advertises
          (the lint's R18 region and the source of [notes]); [None]
          when the entry makes no Byzantine claim *)
  quorum : n:int -> t:int -> int;
  valid : inputs:bool array -> corrupt:int -> bool -> bool;
  feasible : n:int -> t:int -> (unit, string) result;
      (** instantiability only — resilience overruns are [notes], so
          the explorer can probe beyond-bound points deliberately *)
  notes : n:int -> t:int -> corrupt:int -> string list;
  pinned : int;
      (** protocol-distinguished pid prefix (an RBC origin) the
          symmetry reduction must fix pointwise *)
}

val all : t list
(** ben-or, bracha, lewko, rbc, and the mutants [ben-or!quorum-1],
    [bracha!quorum-t], [rbc!quorum-t]. *)

val lint_entries : Lintkit.Quorum_lint.entry list
(** Every entry's declaration and claim, for the quorum lint. *)

val names : string list
val find : string -> t option

val options : t -> n:int -> t:int -> Explore.options
(** {!Explore.default_options} specialized with the model's decision
    quorum and pinned prefix. *)

val run : t -> Explore.options -> Explore.result
(** Raises [Invalid_argument] when the model is not instantiable at
    the requested [(n, t)] (e.g. lewko needs [t < n / 6]). *)

val replay :
  t -> Explore.options -> inputs:bool array -> int array ->
  Explore.replay_report

val schedule_state :
  t -> Explore.options -> inputs:bool array -> int array -> string
