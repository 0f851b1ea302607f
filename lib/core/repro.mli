(** The per-claim reproduction harness: one generator per experiment in
    DESIGN.md's matrix.  Each generator returns a printable table; [all]
    runs the whole battery.  The seed-ensemble tables (E0, E1, E3, E7,
    E10, E14) are data run by one table runner and reached through
    [selected]; the generators exported below are the rest.

    [scale] trades fidelity for time: [`Full] is what EXPERIMENTS.md
    records; [`Quick] shrinks seed counts and sweeps for tests and for
    the bench harness warm-up.

    [jobs] (default 1) spreads each seed sweep over that many domains
    via {!Par_sweep}; tables are bit-identical for every value (the
    generators that are purely numeric ignore it). *)

type scale = [ `Quick | `Full ]

val e2_exponential_variant :
  ?jobs:int -> scale:scale -> unit -> Stats.Table.t * Stats.Regression.fit
(** Section 3 remark: windows-to-decision vs [n] under the balancing
    adversary, with the fitted exponent of [log2 E\[windows\]] vs [n]
    and the analytic per-window escape probability for comparison. *)

val e2_survival : ?jobs:int -> scale:scale -> unit -> Stats.Table.t
(** Survival series [P(windows > k)] for one configuration of E2. *)

val e4_talagrand : scale:scale -> Stats.Table.t
(** Lemma 9 numerics across product spaces, set shapes and distances. *)

val e5_interpolation : scale:scale -> Stats.Table.t
(** Lemma 14's hybrid sweep: the crossing index and both masses. *)

val e5b_zk_sets : scale:scale -> Stats.Table.t
(** Z^k set probes on real configurations: Z^0 separation (Lemma 11)
    and Z^1 membership of unanimous vs split initial configurations. *)

val e6_theory_constants : scale:scale -> Stats.Table.t
(** Theorem 5 constants: [E(n)] and the success-probability bound. *)

val e8_forgetful_class : ?jobs:int -> scale:scale -> unit -> Stats.Table.t
(** Definitions 15/16 classification of all protocols plus the
    chain-length growth of Ben-Or under crash balancing (Theorem 17's
    setting). *)

val e9_committee : scale:scale -> Stats.Table.t
(** Kapron-et-al. contrast: rounds vs [n] (polylog), error probability
    vs corruption, and the adaptive final-committee attack. *)

val e11_synchronous : scale:scale -> Stats.Table.t
(** Related-work reproduction [6] (Bar-Joseph & Ben-Or): the
    synchronous coin-killing game — rounds survived by an adaptive
    full-information crash adversary track [t / sqrt(n log n)]. *)

val e12_shared_memory : scale:scale -> Stats.Table.t
(** Related-work reproduction [3,5] (Aspnes; Attiya & Censor): the
    counter-race shared coin's total step complexity scales as [n^2]
    and its agreement survives adversarial scheduling. *)

val e13_termination_tail : ?jobs:int -> scale:scale -> unit -> Stats.Table.t
(** Related-work reproduction [4] (Attiya & Censor): the probability
    that Ben-Or has not terminated after [k (n - t)] steps under the
    balancing schedule decays geometrically in [k] — their lower bound
    says it cannot decay faster than [1/c^k]. *)

val e15_sm_consensus : scale:scale -> Stats.Table.t
(** Related-work reproduction [3, 5] continued: wait-free randomized
    consensus (Aspnes-Herlihy rounds over the counter-race coin) —
    constant expected rounds and [Theta(n^2)]-dominated total work,
    with agreement and validity intact under adversarial scheduling. *)

val all : ?jobs:int -> scale:scale -> unit -> (string * Stats.Table.t) list
(** Every experiment, in order, with its DESIGN.md identifier. *)

val selected :
  ?jobs:int -> scale:scale -> ids:string list -> unit -> (string * Stats.Table.t) list
(** Only the requested experiment ids (all of them when [ids] is
    empty); unrequested experiments are not computed. *)

val experiment_ids : string list

val render_markdown : (string * Stats.Table.t) list -> string
