(** The cmt scan shared by every layer, baselines, and report
    rendering (human / json / SARIF). *)

type report = {
  diagnostics : Rules.diagnostic list;  (** sorted by (path, line, col) *)
  errors : string list;  (** unreadable cmt files, or an unbuilt tree *)
  files_scanned : int;  (** loaded compilation units *)
}

val default_dirs : string list
(** ["lib"; "bin"; "bench"; "examples"] — the trees the determinism
    rules cover. *)

val scan :
  ?dirs:string list ->
  root:string ->
  (Cmt_loader.load -> Rules.diagnostic list) ->
  report
(** [scan ~root analyze] loads every [*.cmt] under
    [root/_build/default/<dirs>] (or [root/<dirs>] when the build tree
    itself is the root, as under a dune rule) and runs [analyze] on
    them ({!Typed_lint.analyze}, {!Cost_lint.analyze} or
    {!Quorum_lint.analyze}).  [dirs] defaults to {!default_dirs}.  When
    no cmt is found the report carries a single error telling the
    caller to [dune build @check] first — the linter never silently
    passes on an unbuilt tree.  The main modules of executables only
    get a cmt from [@check], not from the default build. *)

(** {2 Baselines}

    A baseline file accepts known findings: [RULE<TAB>PATH<TAB>MESSAGE]
    lines, ['#'] comments.  Messages deliberately contain no line
    numbers, so baselines survive unrelated edits. *)

val baseline_key : Rules.diagnostic -> string * string * string
(** (rule id, path, message) — the identity a baseline entry matches. *)

val read_baseline :
  string -> ((string * string * string) list, string) result

val apply_baseline :
  (string * string * string) list -> report -> report * int
(** Drop baselined diagnostics; returns the filtered report and how
    many findings the baseline waived. *)

val render_baseline : Format.formatter -> report -> unit
(** Emit the report's diagnostics in baseline syntax (the documented
    way to seed a baseline file).  Entries are sorted by
    (rule, path, message) and deduplicated — diagnostics differing only
    in position collapse to one entry — so regenerating a baseline is
    deterministic and diff-friendly. *)

val render_human : Format.formatter -> report -> unit
(** "path:line:col: [Rn] message" lines plus a summary line. *)

val render_json : Format.formatter -> report -> unit
(** Machine-readable report:
    [{"files_scanned":N,"violations":[{"path":..,"line":..,"col":..,
    "rule":..,"message":..}],"errors":[..]}]. *)

val render_sarif : Format.formatter -> report -> unit
(** SARIF 2.1.0: one run, rule metadata for every rule from {!Rules},
    results with physical locations (1-based columns), errors as tool
    execution notifications. *)

val ok : report -> bool
(** True when there are neither diagnostics nor errors. *)
