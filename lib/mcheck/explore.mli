(** Bounded exhaustive exploration of the dsim kernel under the
    Definition-1 adversary.

    Every node of the search tree is a configuration reached by a
    schedule (an array of {!Menu} indices); every edge applies one menu
    choice through [Engine.apply_window].  Agreement, validity and the
    quorum rule are checked on every candidate edge {e before}
    deduplication, so pruned edges are still audited.  The search is
    breadth-first and stops at the first violating layer, so the
    shortest (then lexicographically least) violating schedule is
    reported as the minimal counterexample and replays
    deterministically.  Each layer fans out through
    {!Par_sweep.map_reduce}. *)

type window_family = [ `Uniform | `Full ]
type inputs_spec = All | Split | Unanimous of bool | Vector of bool array

type options = {
  n : int;
  t : int;
  depth : int;
  family : window_family;
  corrupt : int;  (** sources [0..corrupt-1] get the tamper menu *)
  pinned : int;
      (** pids [0..pinned-1] are protocol-distinguished (an RBC
          origin): symmetries must fix them pointwise *)
  inputs : inputs_spec;
  seed : int;
  quorum : int;  (** distinct-sender census required before deciding *)
  symmetry : bool;
  dedup : bool;
  audit : bool;  (** additionally run [Trace_lint] on every candidate *)
  max_states : int option;  (** per-root budget; [None] = unbounded *)
  jobs : int;
      (** domains expanding each BFS layer; results are bit-identical
          for every value *)
  collect : bool;
      (** keep canonical state ids and ([dedup = false]) schedules *)
}

val default_options : n:int -> t:int -> quorum:int -> options
(** Depth 3, uniform windows, no corruption, all input vectors,
    symmetry and dedup on, a 1M-state budget, one job. *)

type kind = Agreement | Validity | Quorum | Audit

val kind_id : kind -> string

type violation = {
  kind : kind;
  root : int;
  root_inputs : bool array;
  vdepth : int;
  schedule : int array;
  detail : string;
}

type root_stats = {
  root_index : int;
  inputs_bits : bool array;
  group_order : int;
  states : int;
  candidates : int;
  dedup_hits : int;
  symmetry_hits : int;
  layers : int list;
  bounded : bool;
}

type result = {
  protocol_name : string;
  opts : options;
  menu_size : int;
  roots : root_stats list;
  roots_collapsed : int;
  violations : violation list;
      (** sorted shortest-first, capped at 25 entries *)
  violations_total : int;
  total_states : int;
  total_candidates : int;
  total_dedup_hits : int;
  total_symmetry_hits : int;
  bounded : bool;
  canonical : string list;
  schedules : int array list;
}

val inputs_string : bool array -> string
(** ["010"]-style rendering, processor 0 leftmost. *)

val compare_violation : violation -> violation -> int
(** Orders by (depth, root index, lexicographic schedule): the minimal
    counterexample is the least element. *)

val run :
  protocol:('s, 'm) Dsim.Protocol.t ->
  valid:(inputs:bool array -> corrupt:int -> bool -> bool) ->
  options ->
  result
(** Explore every root.  Raises [Invalid_argument] on out-of-range
    bounds ([n > 16], [t >= n], [corrupt > t]). *)

type replay_line = {
  window : int;
  choice : string;
  new_decisions : (int * bool) list;
}

type replay_report = {
  lines : replay_line list;
  final_decisions : (int * bool) list;
  conflict : bool;
  audit_violations : string list;
}

val replay_schedule :
  protocol:('s, 'm) Dsim.Protocol.t ->
  opts:options ->
  inputs:bool array ->
  int array ->
  replay_report
(** Deterministically re-execute a schedule with full event recording
    and the trace auditor — the independent second opinion on a
    violation found by the incremental checks. *)

val schedule_state :
  protocol:('s, 'm) Dsim.Protocol.t ->
  opts:options ->
  inputs:bool array ->
  int array ->
  string
(** The canonical state id (hex) the schedule lands on — the
    containment probe used by the exhaustiveness qcheck: it must be a
    member of a collecting run's [canonical] list.  It is the orbit
    minimum under the same rule {!run} uses (twins exist under
    [symmetry] or [collect]), so it agrees with the run for every
    combination of the two. *)
