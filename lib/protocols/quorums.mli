(** Threshold declarations: the one place a protocol family states its
    quorum thresholds.

    A declaration names every threshold as a {!Symexpr} term over [n]
    and [t], next to the resilience bound it is meant to hold under.
    The protocol evaluates the declaration once per [init]; the quorum
    lint ([Lintkit.Quorum_lint]) proves the family's obligations on the
    same terms for every [(n, t)] in the region.  Nothing reads a
    threshold back out of compiled code. *)

type t = {
  name : string;
      (** instance name, e.g. ["bracha"] or the mutant ["bracha!quorum-t"] *)
  family : string;
      (** obligation family: ["ben-or"], ["bracha"], ["rbc"] or ["lewko"] *)
  pos : string * int * int * int;
      (** [__POS__] of the declaration; lint findings are reported here *)
  resilience : Symexpr.t;
      (** the largest tolerated [t] as a function of [n]; the declared
          region is [t <= resilience] *)
  thresholds : (string * Symexpr.t) list;  (** key -> term over n, t *)
}

val threshold : t -> string -> Symexpr.t
(** Raises [Invalid_argument] when the key is not declared. *)

val value : t -> n:int -> t:int -> string -> int
(** [value d ~n ~t key] evaluates one declared threshold. *)

val resilience : t -> n:int -> int
(** The declared resilience bound at [n]. *)

val override :
  t -> name:string -> pos:string * int * int * int ->
  (string * Symexpr.t) list -> t
(** The same declaration under a new name and position with some
    thresholds replaced: how the model registry declares a mutant.
    Raises [Invalid_argument] on a key the base does not declare. *)
