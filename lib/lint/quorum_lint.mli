(** The symbolic quorum-safety analyzer (rules R16-R18).

    Walks the typed trees, reduces every quorum-threshold definition —
    protocol defaults and [?decide_quorum]-style construction-site
    hooks alike — to an affine form over [n] and [t] ({!Symexpr}), and
    discharges per-protocol-family obligations with the exact integer
    decision procedure, over the family's declared resilience region:

    - {b R16}: a threshold obligation (quorum intersection above the
      fault bound, quorum reachable by the honest set, Theorem 4's
      validity conditions) that fails at some (n, t) inside the
      declared region.  The finding carries the witness point.
    - {b R17}: a decide threshold the fault set can satisfy alone
      (threshold <= t feasible with t >= 1), or a decide function that
      constructs [Some _] without a dominating >= comparison against
      its quorum gate.
    - {b R18}: the registry's resilience claim (the [~byz] bound the
      mcheck helpers advertise) admits a point where an obligation
      fails — the claim and the arithmetic disagree.

    Extraction is a small symbolic evaluator, not a naming convention:
    optional-argument defaults are read through the compiler's
    elaborated matches, [Thresholds.default]'s validation is resolved
    by the all-but-one-branch-raises rule, and local helper closures
    are beta-reduced.  Thresholds that do not reduce to affine form
    are reported (R16), never silently trusted. *)

val analyze : Cmt_loader.load -> Rules.diagnostic list
(** Run R16-R18 over every loaded unit.  Diagnostics carry
    root-relative paths, honour inline [(* lint: allow Rn *)]
    suppressions, and are sorted by (path, line, col, rule). *)

val analyze_units : Cmt_loader.unit_info list -> Rules.diagnostic list
(** Same on an explicit unit list (used by fixture tests). *)

val check_source :
  path:string ->
  string ->
  (Rules.diagnostic list, string) result
(** Typecheck a standalone source in memory and run the quorum rules on
    it.  [path] decides rule scope and which family the fixture's
    [protocol] calls resolve to (e.g. ["lib/protocols/ben_or.ml"]
    makes bare [protocol] applications Ben-Or construction sites). *)

(** {2 Test-facing extraction view} *)

type extraction = {
  e_family : string;  (** registry key, e.g. ["ben-or"] *)
  e_region : Symexpr.t list;
      (** declared resilience region, constraints [>= 0] *)
  e_defaults : (string * (Symexpr.t, string) result) list;
      (** threshold key -> extracted default, or why not *)
}

val extractions : Cmt_loader.unit_info list -> extraction list
(** What the symbolic evaluator reads off each loaded protocol family:
    its resilience region and every default threshold in affine form.
    Families whose required modules are absent are omitted. *)
