(** The symbolic quorum-safety analyzer (rules R16-R18).

    Every protocol family declares its thresholds once, as
    {!Protocols.Symexpr} terms in a {!Protocols.Quorums.t}; the protocol
    evaluates that declaration at [init], and the mcheck registry pairs
    each instance's declaration with the resilience bound it
    advertises.  This layer discharges the family's obligations on the
    declarations with the exact integer decision procedure, over the
    declared resilience region:

    - {b R16}: a threshold obligation (quorum intersection above the
      fault bound, quorum reachable by the honest set, Theorem 4's
      validity conditions) that fails at some (n, t) inside the
      declared region.  The finding carries the witness point.
    - {b R17}: a decide threshold the fault set can satisfy alone
      (threshold <= t feasible with t >= 1).  Structurally, over the
      typed trees: a gate function that constructs [Some _] without a
      dominating >= comparison against its declared gate, or that
      compares against a bound computed inline from [n], [t] or
      [fault_bound] instead of reading the declared value.
    - {b R18}: the registry's resilience claim admits a point where an
      obligation fails — the claim and the arithmetic disagree.

    Declaration findings are reported at the declaration's [__POS__]. *)

type entry = {
  decl : Protocols.Quorums.t;
  claim : Protocols.Symexpr.t option;
      (** the registry's Byzantine resilience bound over [n] (R18);
          [None] skips R18 *)
}

val check_declarations : entry list -> Rules.diagnostic list
(** R16-R18 over the given declarations alone, with no scope filter,
    suppression or typed tree involved.  Sorted by (path, line, col,
    rule), keeping one finding per rule at each declaration. *)

val analyze : entry list -> Cmt_loader.load -> Rules.diagnostic list
(** The CLI pass: {!check_declarations} for every declaration whose
    source file is among the loaded units (so [--dir] selects
    declarations by where they are written), plus structural R17 over
    the loaded gate functions.  Diagnostics honour rule scope and
    inline [(* lint: allow Rn *)] suppressions. *)

val check_source :
  path:string ->
  string ->
  (Rules.diagnostic list, string) result
(** Typecheck a standalone source in memory and run structural R17 on
    it.  [path] decides rule scope and the module name, hence which
    gate functions are checked (e.g. ["lib/protocols/ben_or.ml"] makes
    [finish_propose_phase] Ben-Or's decide gate). *)
