(** Acceptable windows (Definition 1).

    An acceptable window is: all [n] processors take sending steps; then
    each processor [i] receives the messages just sent to it by the
    senders in a set [S_i] with [|S_i| >= n - t]; finally at most [t]
    resetting steps occur.  The strongly adaptive adversary is exactly
    the class of adversaries whose infinite executions decompose into
    adjacent disjoint acceptable windows.

    {b Representation vs semantics.}  {!Bitset.t} masks are the ground
    truth: a uniform window stores one shared mask (O(n / word-size)
    words, not n copies), a per-processor window one mask per slot, and
    pids outside the packable range [0, {!mask_clamp}) ride in sorted
    side lists so behaviour stays exact at any pid.  The classic
    [int list array] view is a lazily-projected, memoized accessor
    ({!to_lists}) consumed only by {!validate} error paths, {!receive_set}
    and tests — {!allows}, {!receive_set_size} and the engine's delivery
    loop never materialize a list.  Construct windows through {!make} /
    {!uniform} / {!hybrid} / {!of_masks}, which normalize the pid lists
    and derive the packed form. *)

type t

val mask_clamp : int
(** Pids at or above this bound (or below 0) are never packed into a
    mask; they are tracked exactly in side lists.  Exposed so tests can
    probe the boundary. *)

val make : receive_sets:int list array -> resets:int list -> t
(** Normalizes (sorts, dedups) but does not validate.  The normalized
    lists are memoized, so {!to_lists} on a made window is free. *)

val uniform : n:int -> ?silenced:int list -> ?resets:int list -> unit -> t
(** The window the paper's proofs use: every processor receives from the
    same set [S = [n] \ silenced], then [resets] are applied.  With no
    arguments it is the fault-free fair window.  O(n / word-size)
    words — one shared mask, no per-processor arrays. *)

val hybrid : n:int -> j:int -> s0:int list -> s1:int list -> r0:int list -> r1:int list -> t
(** Lemma 14's interpolation: processors [0..j-1] use receive set [s0]
    and [j..n-1] use [s1]; the reset set is
    [r0 ∩ {0..j-1} ∪ r1 ∩ {j..t'-1}]-style mixing, here realized as
    [r0 ∩ [0,j) ∪ r1 ∩ [j,n)].  The two halves share their masks and
    projected lists physically. *)

val of_masks : resets:int list -> Bitset.t array -> t
(** Per-processor window straight from masks: slot [i] receives from
    exactly the members of [masks.(i)] — no intermediate pid lists (the
    model checker's menu builds through this).  The window takes
    ownership of the masks; callers must not mutate them afterwards. *)

val validate : n:int -> t:int -> t -> (unit, string) result
(** Checks Definition 1: every [S_i] within range with
    [|S_i| >= n - t], and [|R| <= t].  The in-range check is a mask
    popcount against the declared size; only the error path walks the
    projected list to name the offending pid (e.g.
    ["S_2 contains out-of-range pid 7 (n = 3)"]) so model-checker
    counterexamples and user-facing diagnostics stay actionable. *)

val resets : t -> int list
(** The set [R] of processors reset at window end.  Sorted, duplicate-free. *)

val receive_set : t -> int -> int list
(** [S_i], sorted and duplicate-free — projects (and memoizes) the list
    view on first use. *)

val to_lists : t -> int list array
(** The full projected receive-set view, memoized; slots that share a
    mask share the projected list.  Callers must not mutate the array
    or its lists. *)

val receive_set_size : t -> int -> int
(** [|S_i|] — O(1), off the cached size, no projection. *)

val allows : t -> dst:int -> src:int -> bool
(** [allows w ~dst ~src] iff [src >= 0] and [src ∈ S_dst] — O(1),
    total in [src].  A negative pid answers [false] even when an
    unvalidated window stores one in [S_dst]: it can never name a
    sender, which is exactly how the delivery loop always treated it.
    Raises [Invalid_argument] when [dst] is outside the window's arity,
    matching {!receive_set}. *)

val is_fault_free : t -> n:int -> bool
