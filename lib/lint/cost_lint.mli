(** The cmt-based hot-path cost & allocation analyzer (rules
    R11-R15).

    Assigns every library function an asymptotic per-call summary over
    the {!Costs} lattice — known stdlib and in-repo primitives at their
    tabulated costs, data-dependent loops and higher-order iterators
    multiplying their body's cost ({!Costs.nest}), recursion treated as
    one data-dependent iteration (per Tarjan SCC) — and reports, inside
    the configured {i hot set} only:

    - {b R11}: a site whose own cost exceeds O(log n) (the tolerated
      persistent-map access cost) — a linear primitive, a
      data-dependent loop, or a call to an override declared linear.
    - {b R12}: allocation that scales with the event — materializing
      primitives ([List.map], [Map.bindings], [Array.to_list], [@],
      ...) anywhere in hot code, and list cons / tuples / records /
      arrays / closures built {i inside} a data-dependent iteration.
      Amortized-growth operations ([Buffer.add_*], [Hashtbl.replace],
      [Map.add]'s O(log n) path copy) are exempt.
    - {b R13}: a quorum/receive-set re-scan — a fold / filter / length
      / bindings over a non-fresh collection, in code reachable from a
      [Protocol.t] transition field.  The pattern incremental quorum
      counters must replace.
    - {b R14}: eager uniform fan-out — [List.init] over a
      non-constant count whose body builds per-destination envelope
      tuples.
    - {b R15}: R11's blind spot — a hot recursive function whose every
      site is at most O(log n) (in-component calls counted O(1)) but
      whose per-call summary exceeds that once the component nests
      under the data-dependent iteration.  Reported at the function
      header.

    The hot set is every function reachable from [config.hot_roots]
    (kernel ids) or from a [Dsim.Protocol.t] transition field
    ([config.transition_fields]).  Findings land at the introducing
    site with the root-to-function hot path in the message, so inline
    [(* lint: allow Rn *)] comments are local and baseline entries
    (which carry no line numbers) survive unrelated edits.

    [config.overrides] declare the true amortized cost of in-repo
    primitives the lattice cannot see (e.g. [Mailbox.add] = O(1)); an
    override exempts the function's own body and stops the hot-set
    walk at its boundary. *)

type config = {
  hot_roots : string list;
      (** Call-graph ids ([Module.name]) seeding the hot set. *)
  transition_fields : string list;
      (** [Protocol.t] fields whose values also seed it (default
          [outgoing], [on_deliver], [on_reset], [output]). *)
  overrides : (string * Costs.t) list;
      (** fn id -> declared amortized cost; body exempt, walk barrier. *)
  exempt_modules : string list;
      (** Modules whose calls are free (default
          {!Effects.default_exempt_modules}). *)
}

val default_config : config

val analyze : ?config:config -> Cmt_loader.load -> Rules.diagnostic list
(** Run R11-R15 over every loaded unit.  Diagnostics carry
    root-relative paths, honour inline suppressions, and are sorted by
    (path, line, col, rule). *)

val analyze_units :
  ?config:config -> Cmt_loader.unit_info list -> Rules.diagnostic list
(** Same on an explicit unit list (used by fixture tests). *)

val summarize :
  ?config:config -> Cmt_loader.unit_info list -> (string * Costs.t) list
(** Per-function cost summaries, (call-graph id, cost) sorted by id —
    the fixpoint the rules are judged against, exposed for tests and
    tooling. *)

val check_source :
  ?config:config ->
  path:string ->
  string ->
  (Rules.diagnostic list, string) result
(** Typecheck a standalone source in memory and run the cost rules on
    it.  Fixtures declare their own hot roots via [config] (or build a
    [Protocol.t]-shaped record to exercise transition seeding). *)
