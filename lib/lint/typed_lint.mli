(** The typed determinism linter: every determinism rule, checked on
    compiler [*.cmt] typed trees ({!Cmt_loader}) with a call graph over
    the loaded units ({!Callgraph}) and fixpoint effect summaries
    ({!Effects}).

    - {b R1, R2, R5, R6}: ambient sources named by their resolved path
      ([Random.*], [Sys.time], [Unix.gettimeofday]; [Hashtbl.hash];
      printing to the process's channels; [Domain]/[Atomic]/[Mutex]
      and friends outside [lib/par_sweep/par_sweep.ml]).  Paths are
      resolved by the compiler and module aliases are expanded, so
      [let open Printf in printf] and [module R = Random] are seen.
    - {b R7}: [Stdlib.compare] / [=] / [<>] reached at a non-immediate
      type (anything but [int]/[bool]/[char]/[unit]) in the
      protocol-facing and numeric subtrees — also when the operator
      hides behind a variable, a functor argument, or partial
      application.
    - {b R8}: protocol transitions (the designated fields of a
      [Protocol.t] record) must be pure up to their [Prng.Stream]
      argument — no transitive mutation of non-locally-allocated state,
      no channel IO, no raise outside the per-protocol allowlist.
    - {b R9}: stream role linearity.  [Stream.derive] snapshots its
      parent by value, so deriving {i and} drawing from the same stream
      in one function makes every derived child depend on the draw
      schedule; such streams must fork an explicit draw stream with
      [Stream.copy] first.
    - {b R10}: no catch-all [_] branch in a match over a protocol
      message/payload type — new constructors must be impossible to
      drop silently.

    Scoping is {!Rules.applies}; the [(* lint: allow Rn *)] suppression
    comments are {!Rules.suppressions_of_source}. *)

type config = {
  pure_fields : string list;
      (** [Protocol.t] fields whose values must be effect-free.
          The pretty-printer ([pp_message]) and metadata are
          deliberately absent. *)
  raise_allowlist : string list;
      (** Exception constructors a transition may raise (defaults:
          [Invalid_argument], [Assert_failure] — guard rails, not
          control flow). *)
  message_type_names : string list;
      (** Type names R10 treats as message types, besides the
          [_msg]/[_message]/[_payload] suffixes. *)
  exempt_modules : string list;
      (** Modules whose calls are never effects (default
          {!Effects.default_exempt_modules}). *)
}

val default_config : config

val analyze :
  ?config:config -> Cmt_loader.load -> Rules.diagnostic list
(** Run the typed rules over every loaded unit.  Diagnostics carry root-relative
    paths, honour inline suppressions from the unit's source (when it
    could be read) and {!Rules.applies} scoping, and are sorted by
    (path, line, col, rule). *)

val analyze_units :
  ?config:config -> Cmt_loader.unit_info list -> Rules.diagnostic list
(** Same on an explicit unit list (used by fixture tests). *)

val record_is_protocol : Types.type_expr -> bool
(** Whether a record type is a [*.Protocol.t] — the anchor both R8 and
    the cost layer's transition hot-set seeding key on. *)

val typecheck_source :
  path:string -> string -> (Typedtree.structure, string) result
(** Parse and typecheck a standalone source in memory against a
    stdlib-only environment ([Error] carries the compiler report).
    Shared by {!check_source} and the cost layer's fixture checks. *)

val check_source :
  ?config:config ->
  path:string ->
  string ->
  (Rules.diagnostic list, string) result
(** Typecheck a standalone source in memory (no cmt needed; stdlib-only
    environment) and run the typed rules on it.  [path] decides rule
    scoping exactly as for on-disk files.  [Error] on parse or type
    errors — fixtures must be self-contained (declare their own
    [Stream]/[Protocol] modules). *)
