(** Named, hierarchically derived randomness streams.

    The simulator derives all randomness from one root seed:
    [root -> processor i -> window w] and so on.  Deriving by name
    (rather than by splitting in program order) makes the randomness a
    processor consumes independent of scheduling decisions taken by the
    adversary, which mirrors the model: the adversary controls delivery,
    not the coins. *)

type t
(** A stream; a thin stateful wrapper over {!Splitmix}. *)

val root : int -> t
(** [root seed] is the root stream of an experiment. *)

val derive : t -> int -> t
(** [derive t i] is the [i]-th child stream; deriving the same index
    twice from streams in the same state yields identical children. *)

val derive_name : t -> string -> t
(** Derive a child keyed by a string label, hashed with FNV-1a so the
    derivation is identical across OCaml versions and word sizes. *)

val bool : t -> bool
val int_below : t -> int -> int
val float : t -> float
val bits : t -> int
val copy : t -> t

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val sample_without_replacement : t -> int -> int -> int list
(** [sample_without_replacement t k n] is a sorted list of [k] distinct
    values drawn uniformly from [0, n).  Requires [0 <= k <= n]. *)

val fingerprint : t -> string
(** Canonical rendering of the stream's current state: equal
    fingerprints imply identical future draws.  Used by the bounded
    model checker's configuration digests. *)
