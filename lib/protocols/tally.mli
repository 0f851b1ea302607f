(** Vote counting with per-sender deduplication: the one counting
    structure behind every quorum in this library.

    Every round-based protocol here waits for a threshold of messages
    "from distinct processors" carrying a value; a tally records at
    most one vote per sender, ignoring later duplicates (the
    dedicated-channel model means a correct processor sends each
    round's vote once, but adversarial re-delivery must not double
    count).  A vote is a small code in [\[0, 4)]; each protocol maps
    its own values onto codes (a bit; a proposal [Some false],
    [Some true] or [None]; a Bracha [Val]/[Dec] vote).

    Tallies are persistent values.  Senders are non-negative; a tally
    holds at most [2^20 - 1] votes, because the per-code counts share
    one word.

    Cost model.  Senders are kept 20 to an immediate int, 3 bits each.
    Senders 0 to 19 live in the tally's own 4-field record, so at
    [n <= 20] a new vote allocates that record (5 words) and nothing
    else.  Senders from 20 up live in an int-keyed map of their
    chunks ([src / 20]); a new vote there also path-copies
    ~log2(n / 20) map nodes of 6 words each, about 5 + 6 log2(n / 20)
    words.  A repeated vote, [mem], [count] and [count_value]
    allocate nothing; no lookup raises or allocates an option. *)

type t

val empty : t

val add : t -> src:int -> int -> t
(** [add t ~src code] records [src]'s vote; a second vote from the
    same sender returns [t] itself.
    @raise Invalid_argument if [code] is outside [\[0, 4)], if [src]
    is negative, or if [src] is new and [t] already holds [2^20 - 1]
    votes. *)

val mem : t -> int -> bool
(** Whether the sender's vote is recorded. *)

val count : t -> int
(** Number of distinct senders recorded. *)

val count_value : t -> int -> int
(** Votes carrying a given code. *)

val iter : (int -> int -> unit) -> t -> unit
(** [iter f t] calls [f src code] on every recorded vote, in ascending
    [src], for state serialization. *)
