(** Protocol-agnostic observation of a processor's state.

    The full-information adversary of the paper reads the complete
    internal state of every processor.  Protocol implementations expose
    the decision-relevant part of their state through this record so
    that adversary strategies can be written once and reused across
    protocols (e.g. the balancing adversary only needs each processor's
    current estimate and round). *)

type t = {
  id : int;  (** Processor identity in [0, n). *)
  round : int;  (** Internal round number; [-1] when unknown (just reset). *)
  estimate : bool option;  (** Current preference bit [x_p], if defined. *)
  output : bool option;  (** The write-once output bit; [None] is the paper's ⊥. *)
  input : bool;  (** The immutable input bit. *)
  resets : int;  (** How many times this processor has been reset. *)
  phase : int;  (** Protocol-internal sub-round phase (0 when unused). *)
}

val make :
  id:int ->
  round:int ->
  estimate:bool option ->
  output:bool option ->
  input:bool ->
  resets:int ->
  phase:int ->
  t

val decided : t -> bool

val estimate_is : t -> bool -> bool
(** [estimate_is o v] is true when the estimate is defined and equals
    [v].  Named comparator so adversary code avoids polymorphic
    equality on observation data (lint rule R7). *)

val pp : Format.formatter -> t -> unit
