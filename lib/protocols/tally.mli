(** Vote counting with per-sender deduplication.

    Every round-based protocol in this library waits for a threshold of
    messages "from distinct processors"; a tally records at most one
    vote per sender, ignoring later duplicates (the dedicated-channel
    model means a correct processor sends each round's vote once, but
    adversarial re-delivery must not double count). *)

type t

val empty : t

val add : t -> src:int -> bool -> t
(** Record [src]'s vote; a second vote from the same sender is ignored. *)

val count : t -> int
(** Number of distinct senders recorded. *)

val count_value : t -> bool -> int
(** Votes for a specific bit. *)

val srcs : t -> int list
val fingerprint : t -> string
(** Canonical string, for state serialization: [src:bit] per vote,
    ','-separated in ascending [src]. *)
