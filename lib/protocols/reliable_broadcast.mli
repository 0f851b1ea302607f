(** Bracha's reliable broadcast primitive (PODC 1984), the substrate of
    his [t < n/3]-resilient agreement protocol.

    For each broadcast instance — identified by (origin, tag) — every
    processor runs the echo/ready state machine:

    - on the origin's [Initial] message: send [Echo] to all;
    - on more than [(n + t) / 2] matching [Echo]s: send [Ready] to all;
    - on [t + 1] matching [Ready]s (if not yet sent): send [Ready];
    - on [2t + 1] matching [Ready]s: accept the payload.

    With [t < n/3] Byzantine processors this guarantees that correct
    processors accept at most one payload per instance and that if any
    correct processor accepts, all eventually do — equivocation is
    neutralized, which is exactly the power the strongly adaptive
    adversary is noted to lack.

    The module is a value-level component meant to be embedded in a
    protocol state; all operations are pure.

    {b Instance keys.}  An instance is keyed by one int, [origin] in the
    high bits and [tag] in the low 32, so only [0 <= origin < 2^30] and
    [0 <= tag < 2^32] name an instance.  On that range keys are distinct
    and their int order is the [(origin, tag)] order, which
    {!fingerprint} walks.  A message outside it — an [Echo] or [Ready]
    naming such an origin or tag, or an [Initial] with such a tag — is
    ignored: {!receive} returns the state unchanged, with no sends and
    no acceptance, and raises nothing.  No engine or adversary here
    produces one (origins are processor ids, and [rewrite_bit] only
    rewrites payloads).

    {b Cost.}  A {!receive} is O(log I + log n) for I live instances:
    one lookup and one path copy of the instance map, and one
    {!Tally.add}.  The parameters fixed at {!create} (n, t, self,
    payload code, evaluated thresholds) sit in one record every derived
    state shares, so a receive that changes state copies a 4-word state
    record and the 6-word instance record; the lookup allocates nothing.
    Duplicates and out-of-range messages allocate only the result
    triple. *)

type 'p t
(** One processor's bookkeeping across all instances it has seen. *)

type 'p msg =
  | Initial of { tag : int; payload : 'p }
  | Echo of { origin : int; tag : int; payload : 'p }
  | Ready of { origin : int; tag : int; payload : 'p }

val quorums : Quorums.t
(** The [rbc] family's threshold declaration, under the resilience
    bound [t <= (n - 1) / 3]: matching echoes needed to send [Ready]
    ([rbc_echo_quorum = (n + t) / 2 + 1]), matching [Ready]s that
    trigger a relayed [Ready] ([rbc_ready_resend = t + 1]), and
    matching [Ready]s needed to accept ([rbc_accept_quorum = 2t + 1]). *)

val create :
  quorums:Quorums.t ->
  n:int ->
  t:int ->
  self:int ->
  code:('p -> int) ->
  unit ->
  'p t
(** [quorums] must declare the three [rbc_*] keys; they are evaluated
    here, once.  Pass {!quorums} for the sound primitive; the model
    checker's mutants pass a weakened declaration and must then yield
    a violating schedule.

    [code] maps a payload to its {!Tally} code, in [\[0, 4)]: two
    payloads match for quorum counting exactly when their codes are
    equal. *)

val reset_like : 'p t -> 'p t
(** A fresh state with the same parameters (n, t, self, payload code, and
    the evaluated thresholds): what a resetting processor restarts
    with. *)

val broadcast : 'p t -> tag:int -> 'p -> 'p t * 'p msg Dsim.Step.send list
(** Start an instance as origin: the [Initial] send (a single
    [Step.Broadcast], expanded lazily by the engine).  Re-broadcasting
    a tag already used is ignored (empty sends). *)

val receive :
  'p t -> src:int -> 'p msg -> 'p t * 'p msg Dsim.Step.send list * (int * 'p) list
(** Process an incoming RBC message.  Returns the new state, sends to
    queue, and the list of [(origin, payload)] newly accepted by this
    call (at most one). *)

val fingerprint : ('p -> string) -> 'p t -> string
(** Canonical serialization for state digests, each accepted payload
    rendered by the given function. *)

val add_message : (Buffer.t -> 'p -> unit) -> Buffer.t -> 'p msg -> unit
(** [add_message add_payload b m] appends [m]'s canonical text —
    [init[tag]P], [echo[tag@origin]P] or [ready[tag@origin]P], with
    [add_payload] writing [P] — for a protocol's
    [Dsim.Protocol.add_message]. *)
