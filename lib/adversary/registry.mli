(** The adversary registry: every named strategy the experiments, the
    CLI and the tests drive, one list per discipline.  [benign] and
    [balancing] exist in both, so a name is looked up in the list of
    the protocol's discipline.

    [make] is polymorphic, so one entry instantiates at every
    protocol's state and message types; it receives the run's seed so
    stateful strategies are fresh per run.  A table that prints its own
    label for an entry (E10's "lookahead (proof-style)") keeps it; the
    entry's [name] is the stable identifier. *)

module Windowed : sig
  type t = {
    name : string;
    aliases : string list;
    make : 's 'm. seed:int -> ('s, 'm) Strategy.windowed;
  }

  val all : t list
  (** benign; silence-first-t, silence-last-t (alias silence),
      silence-rotating (period 3, count = fault bound), silence-random;
      reset-rotating, reset-random, reset-targeted, reset+silence;
      balancing, balance+reset; split-brain; lookahead (4 samples,
      horizon 3). *)

  val names : string list
  (** The entries' names, in registry order. *)

  val find : string -> t option
  (** By name or alias. *)
end

module Stepwise : sig
  type t = {
    name : string;
    aliases : string list;
    make : 's 'm. seed:int -> ('s, 'm) Strategy.stepwise;
  }

  val all : t list
  (** benign (lockstep), random (fair, 0.3 deferral), balancing,
      echo-chamber, crash-start (processor 0), crash-late, byz-flip and
      byz-equivocate (processor 0 corrupt). *)

  val names : string list
  val find : string -> t option
end
