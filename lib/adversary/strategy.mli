(** Adversary strategies.

    The paper models an adversary as a deterministic function from the
    partial execution to the next applicable step (Section 2).  Because
    the engine's configuration determines everything the adversary may
    depend on (it has full information), we realize an adversary as a
    function of the current configuration.  Strategies may carry hidden
    mutable state (agendas, randomness of their own): the paper allows
    arbitrary adversaries, and derandomizing a randomized adversary only
    strengthens it.

    Two shapes, matching {!Dsim.Runner}'s two disciplines. *)

type ('s, 'm) windowed = ('s, 'm) Dsim.Engine.t -> Dsim.Window.t option
(** Supplies the next acceptable window, or halts. *)

type ('s, 'm) stepwise = ('s, 'm) Dsim.Engine.t -> 'm Dsim.Step.t option
(** Supplies the next fine-grained step, or halts. *)

val cached_uniform :
  n:int -> ?silenced:int list -> ?resets:int list -> unit -> Dsim.Window.t
(** {!Dsim.Window.uniform} behind a last-one memo: repeated calls with
    equal parameters return the very same window, so a stretch of
    identical windows costs one construction instead of one per
    window.  Windows are immutable once built, so sharing is sound. *)

val limit_windows : int -> ('s, 'm) windowed -> ('s, 'm) windowed
(** Halt after the given number of windows have been supplied. *)

val switch_after : int -> ('s, 'm) windowed -> ('s, 'm) windowed -> ('s, 'm) windowed
(** Play the first strategy for [k] windows, then the second. *)

type census = {
  zeros : int;  (** processors that will vote 0 *)
  ones : int;  (** processors that will vote 1 *)
  silent : int;  (** processors that will not vote (recovering) *)
  majority_holders : int list;
      (** up to [limit] ids holding the majority estimate (ties broken
          toward value [false]), lowest ids first: the natural silencing
          set for a balancing adversary *)
}

val vote_census : ('s, 'm) Dsim.Engine.t -> limit:int -> census
(** How the coming window will vote, read off the full-information
    observations (estimates of non-recovering processors) in one pass
    over {!Dsim.Engine.observe}: one observation per processor and no
    array of them.  The census is exact for protocols whose per-window
    vote equals their current estimate — sending steps are
    deterministic, so the adversary can always predict them. *)
