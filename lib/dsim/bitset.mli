(** Fixed-capacity bitsets over pids [0 .. capacity-1].

    Backing store for {!Window}'s receive-set masks: membership is O(1)
    and population counts are O(capacity / word-size), which is what
    makes the engine's delivery loop and fault-free checks cheap.
    Out-of-range queries are total: [mem] answers [false] rather than
    raising, because windows may legally mention pids outside [0, n)
    (validation reports them; application just never matches them). *)

type t

val create : capacity:int -> t
(** Empty set over [0 .. capacity-1].  Raises [Invalid_argument] on a
    negative capacity. *)

val capacity : t -> int

val copy : t -> t

val full : capacity:int -> t
(** All of [0 .. capacity-1].  Backing store for the mailbox's
    broadcast pending sets, which start full and empty one delivery at
    a time.  Raises [Invalid_argument] on a negative capacity. *)

val fill : t -> unit
(** Add every element of [0 .. capacity-1] in place: the mailbox
    refills a dead entry's pending set with this instead of allocating
    a fresh {!full} one. *)

val mem : t -> int -> bool
(** O(1); [false] for any [i] outside [0, capacity). *)

val add : t -> int -> unit
(** Raises [Invalid_argument] outside [0, capacity). *)

val remove : t -> int -> unit
(** O(1); a no-op outside [0, capacity). *)

val next_from : t -> int -> int
(** [next_from t i] is the smallest member [>= i], or [-1] when there
    is none.  O(capacity / word-size) worst case. *)

val of_list : capacity:int -> int list -> t
(** Builds a set from a pid list, silently skipping out-of-range
    elements (callers keep the original list when they need to detect
    them, cf. {!Window.validate}). *)

val of_int_mask : capacity:int -> int -> t
(** Builds a set from a word-sized bit mask: member [i] iff bit [i] of
    the mask is set and [i < capacity].  This is the bridge from the
    model checker's [int] receive masks (n <= 62) to window masks
    without materializing an intermediate pid list.  Raises
    [Invalid_argument] on a negative mask or a capacity outside
    [0, Sys.int_size]. *)

val cardinal : t -> int
val cardinal_below : t -> int -> int
(** [cardinal_below t limit] is [|t ∩ \[0, limit)|]. *)

val to_list : t -> int list
(** Ascending. *)
