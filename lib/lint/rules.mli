(** The lint rules, their scoping, and the diagnostics every layer
    emits.

    The reproduction's value rests on every execution being a pure
    function of its seed; these rules ban the OCaml constructs that
    silently break that property.  R1, R2 and R5-R10 are the typed
    determinism layer ({!Typed_lint}), checked on the compiler's
    [*.cmt] typed trees: resolved identifier paths for the ambient
    sources (R1, R2, R5, R6), instantiated types for polymorphic
    comparison (R7), and the interprocedural call graph for effectful
    protocol transitions, stream role aliasing and silently dropped
    message constructors (R8-R10).  R11-R15 are the cost layer
    ({!Cost_lint}): asymptotic per-function summaries over the
    {!Costs} lattice, reported against the per-event hot set, including
    the hot recursion no single site reveals (R15).  R16-R18 are the
    quorum layer ({!Quorum_lint}): symbolic threshold arithmetic proved
    for all n and t over each protocol's declared resilience region.

    The syntactic compare and float-equality rules that preceded R7
    are retired: R7 covers their directories and sees through
    aliases. *)

type t =
  | R1 | R2 | R5 | R6 | R7 | R8 | R9 | R10 | R11 | R12 | R13 | R14
  | R15 | R16 | R17 | R18

val all : t list

val id : t -> string
(** "R1" .. "R18". *)

val of_id : string -> t option
(** Case-insensitive parse of "R1" .. "R18". *)

val layer : t -> [ `Typed | `Cost | `Quorum ]
(** Which analysis layer emits the rule: R1, R2 and R5-R10 from the
    typed linter, R11-R15 from the cost analyzer, R16-R18 from the
    symbolic quorum-safety analyzer. *)

val title : t -> string
(** One-line rule name, e.g. "ambient nondeterminism source". *)

val describe : t -> string
(** One-paragraph rationale (used by [--explain] and the docs). *)

(** Where a scanned file lives; decides which rules apply. *)
type scope = {
  top : [ `Lib | `Bin | `Bench | `Examples | `Other ];
  sub : string option;  (** e.g. ["dsim"] for a file under [lib/dsim/]. *)
}

val scope_of_path : string -> scope
(** Classify a path such as "lib/dsim/engine.ml"; leading "./" and
    absolute prefixes up to a known top-level directory are ignored. *)

val applies : t -> scope -> bool
(** Whether the rule is checked at all for files in this scope:
    R1 and R5 in [lib/] only; R2 and R6 everywhere (the typed layer
    exempts [lib/core/par_sweep.ml] from R6: it is the sanctioned home
    of the multicore primitives); R7 in [lib/dsim], [lib/protocols],
    [lib/adversary], [lib/stats] and [lib/lowerbound]; R10 in the first
    three of those; R8 in [lib/]; R9 in [lib/] except [lib/prng] and
    [lib/lint] (the stream implementation and the linter itself);
    R11-R15 in [lib/] except [lib/lint] — within that gate, membership
    in the configured hot set decides whether the cost rules fire;
    R16-R18 in [lib/] except [lib/lint], [lib/prng] and [lib/stats]
    (threshold definitions and protocol construction sites). *)

(** {2 Diagnostics} *)

type diagnostic = {
  path : string;
  line : int;
  col : int;
  rule : t;
  message : string;
}

val compare_diagnostic : diagnostic -> diagnostic -> int
(** Order by (path, line, col, rule). *)

val find_substring : string -> string -> int -> int option
(** [find_substring haystack needle from]: index of the first occurrence
    of [needle] at or after [from], in a single KMP pass (no rescans, no
    allocation per position). *)

(** {2 Suppression comments}

    A comment [(* lint: allow R7 *)] anywhere on a line disables the
    named rules (comma/space separated, or [all]) on that line and the
    next one.  Every layer honours it. *)

type suppression = All | Only of t list

val parse_suppression_line : string -> suppression option
(** Parse one source line; [Some] when it contains
    [lint: allow <spec>] where <spec> is [all] or a comma/space
    separated list of rule ids (anything from the closing ["*)"] on is
    ignored).  Lines mentioning only unknown rule ids parse to [None]. *)

val suppressions_of_source : string -> (int, suppression) Hashtbl.t
(** Line number (1-based) -> suppression, for every line of the source
    that carries one. *)

val suppressed : (int, suppression) Hashtbl.t -> line:int -> t -> bool
(** Whether a diagnostic on [line] is silenced: a suppression covers its
    own line and the following one. *)
