(** Per-function effect summaries, computed by fixpoint over the
    {!Callgraph}.

    Rule R8 needs to know whether a protocol transition can
    {i transitively} mutate non-local state, touch a channel, or raise.
    Each function gets an intraprocedural scan (primitive mutators and
    IO by name, [Texp_setfield], [assert], [raise]/[failwith]/
    [invalid_arg]), with two deliberate refinements:

    - mutation of {b locally-allocated} state ([let t = Hashtbl.create
      8 in ... Hashtbl.replace t ...]) is not an effect — the
      allocation cannot escape into the caller's world before the
      function returns its pure result;
    - calls into the exempt modules (default [Prng.Stream]/[Splitmix])
      are not effects: the stream argument is the sanctioned source of
      randomness and its state is itself a pure function of the seed.

    Summaries then propagate along call edges until fixpoint, keeping
    one representative finding per effect kind with the call chain that
    first surfaced it ([via]).  Unknown external functions are assumed
    pure (optimistic): the analysis is a linter, not a verifier, and
    the primitive tables cover what this codebase can actually do. *)

type kind =
  | Mutation of string  (** e.g. ["Hashtbl.replace on non-local state"] *)
  | Io of string  (** e.g. ["Printf.printf"] *)
  | Raise of string  (** exception constructor name, or ["?"] *)

type finding = {
  kind : kind;
  loc : Location.t;  (** in the summarized function (a call site for inherited effects) *)
  via : string list;  (** call chain, outermost callee first *)
}

val kind_id : kind -> string
(** Stable human-readable key, also used for deduplication. *)

val default_exempt_modules : string list
(** [["Stream"; "Splitmix"]]. *)

val base_ident : Typedtree.expression -> Ident.t option
(** The root identifier of an expression, looking through field
    projections ([t.mailbox] -> [t]); [None] for anything else.  Shared
    with the cost layer's locality judgments. *)

type scan = {
  own : finding list;  (** intraprocedural effects, source order *)
  callees : (Callgraph.fn * Location.t) list;  (** resolved references *)
}

val scan_function :
  ?exempt_modules:string list ->
  Callgraph.t ->
  current_module:string ->
  Typedtree.expression ->
  scan
(** Scan one function body (no propagation). *)

val summaries :
  ?exempt_modules:string list ->
  Callgraph.t ->
  (string, finding list) Hashtbl.t
(** Fixpoint effect summaries for every function in the graph, keyed by
    {!Callgraph.fn.id}. *)

val of_summary : (string, finding list) Hashtbl.t -> string -> finding list
(** Lookup with [[]] for unknown ids. *)
