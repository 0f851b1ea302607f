type t =
  | R1 | R2 | R5 | R6 | R7 | R8 | R9 | R10 | R11 | R12 | R13 | R14
  | R15 | R16 | R17 | R18

let all =
  [ R1; R2; R5; R6; R7; R8; R9; R10; R11; R12; R13; R14;
    R15; R16; R17; R18 ]

let id = function
  | R1 -> "R1"
  | R2 -> "R2"
  | R5 -> "R5"
  | R6 -> "R6"
  | R7 -> "R7"
  | R8 -> "R8"
  | R9 -> "R9"
  | R10 -> "R10"
  | R11 -> "R11"
  | R12 -> "R12"
  | R13 -> "R13"
  | R14 -> "R14"
  | R15 -> "R15"
  | R16 -> "R16"
  | R17 -> "R17"
  | R18 -> "R18"

let of_id s =
  match String.uppercase_ascii (String.trim s) with
  | "R1" -> Some R1
  | "R2" -> Some R2
  | "R5" -> Some R5
  | "R6" -> Some R6
  | "R7" -> Some R7
  | "R8" -> Some R8
  | "R9" -> Some R9
  | "R10" -> Some R10
  | "R11" -> Some R11
  | "R12" -> Some R12
  | "R13" -> Some R13
  | "R14" -> Some R14
  | "R15" -> Some R15
  | "R16" -> Some R16
  | "R17" -> Some R17
  | "R18" -> Some R18
  | _ -> None

let layer = function
  | R1 | R2 | R5 | R6 | R7 | R8 | R9 | R10 -> `Typed
  | R11 | R12 | R13 | R14 | R15 -> `Cost
  | R16 | R17 | R18 -> `Quorum

let title = function
  | R1 -> "ambient nondeterminism source"
  | R2 -> "version-dependent Hashtbl.hash"
  | R5 -> "printing from library code"
  | R6 -> "multicore primitive outside the parallel sweep engine"
  | R7 -> "typed polymorphic compare on non-immediate data"
  | R8 -> "effectful protocol transition"
  | R9 -> "stream used both as derivation parent and draw source"
  | R10 -> "catch-all branch over a protocol message type"
  | R11 -> "super-constant cost on the per-event hot path"
  | R12 -> "unbounded allocation in hot code"
  | R13 -> "quorum/receive-set re-scan in a protocol transition"
  | R14 -> "eager uniform fan-out materialization"
  | R15 -> "hot recursion exceeding the cost threshold"
  | R16 -> "quorum thresholds fail the intersection arithmetic"
  | R17 -> "decision not dominated by a quorum-threshold comparison"
  | R18 -> "declared resilience bound exceeds what the thresholds support"

let describe = function
  | R1 ->
      "Random.*, Sys.time and Unix.gettimeofday draw on ambient state, so any \
       library code touching them stops being a pure function of the \
       experiment seed.  All randomness must come from Prng.Stream, all \
       timing from the caller."
  | R2 ->
      "Hashtbl.hash is explicitly unspecified across OCaml versions and \
       word sizes; feeding it into PRNG stream derivation (or anything \
       seed-adjacent) makes runs irreproducible across toolchains.  Use a \
       self-contained stable hash (e.g. FNV-1a) instead."
  | R5 ->
      "Library code must not print: all observable output goes through \
       Dsim.Obs / Dsim.Trace_export so executions stay silent, replayable \
       and comparable.  Printing belongs to bin/, bench/ and examples/."
  | R6 ->
      "Domain, Atomic, Thread and friends introduce scheduling \
       nondeterminism the moment shared state is involved, which is \
       exactly what the bit-identical determinism contract forbids.  All \
       parallelism must route through Par_sweep's map_reduce, whose merge \
       discipline keeps results independent of scheduling; only \
       lib/par_sweep/par_sweep.ml may touch the primitives directly."
  | R7 ->
      "Any use of Stdlib.compare, (=) or (<>) whose instantiated argument \
       type is not immediate (int, bool, char or unit) is flagged, \
       wherever the argument syntactically comes from: a record, a \
       payload-carrying constructor, a float, or a variable, alias or \
       partial application hiding one (e.g. `let compare = compare' \
       inside a Map.Make argument).  Structural comparison silently \
       depends on representation and breaks when a field is added; \
       exact float equality is NaN-hostile.  Use a named comparator \
       (Int.compare, String.equal, Float.equal, Obs.estimate_is, ...)."
  | R8 ->
      "Protocol transition functions (init, outgoing, on_deliver, \
       on_reset, output, ... wherever a Dsim.Protocol.t record is built) \
       must be pure up to their Prng.Stream argument: no transitive \
       mutation of state that was not allocated inside the transition \
       itself, no channel IO, and no raising outside the allowlist \
       (Invalid_argument / Assert_failure guards).  The effect analysis \
       follows the call graph across modules, so a Hashtbl.replace buried \
       two helpers deep is still a violation."
  | R9 ->
      "Prng.Stream values have two legitimate roles: a derivation parent \
       (Stream.derive/derive_name snapshot the parent by value, so \
       fanning out children by distinct indices is order-independent) or \
       a sequential draw source (bool/int_below/... advance the state). \
       Mixing roles on one stream makes every derived child's identity \
       depend on how many draws happened first - i.e. on scheduling - so \
       a stream that has been drawn from must not be derived from, and \
       vice versa.  Use Stream.copy to fork an explicit draw stream."
  | R10 ->
      "Matching a protocol message/payload type with a catch-all `_` (or \
       variable) branch silently drops every constructor added later: the \
       protocol keeps typechecking while discarding messages on the \
       floor.  Message dispatch must stay exhaustive by constructor so \
       that adding a message constructor is a compile-surface event."
  | R11 ->
      "Code reachable from the per-event hot set (Engine.apply_window, \
       the Mailbox core operations, window construction, and the \
       Dsim.Protocol.t transition fields) must cost O(1) per event, or \
       scaling runs to n in the thousands pay O(n) or worse per message. \
       The analyzer assigns every function an asymptotic summary over the \
       cost lattice (O(1)/O(log n)/O(n)/O(n^2)/unknown) by mapping known \
       stdlib and in-repo primitives through the interprocedural call \
       graph, with loops and higher-order iterators multiplying their \
       body's cost and recursion treated as iteration.  Any hot function \
       whose own body introduces super-constant cost is flagged at the \
       introducing site, with the hot path from the root.  Declared true \
       costs (e.g. Mailbox.add_broadcast is amortized O(1) despite its growth \
       loops) live in the config's summary overrides."
  | R12 ->
      "Allocation on the hot path that scales with the event, not with a \
       constant: list cons / closures / tuples / records / arrays built \
       inside a data-dependent loop or iterator, and materializing \
       primitives (Array.to_list, Map.bindings, List.init/map/filter/ \
       append, ...) anywhere in hot code.  One constant-size record \
       update per event is fine; building an n-element list per event is \
       the GC pressure that blocks n=1000.  Amortized-growth operations \
       (Buffer.add_*, Hashtbl.add/replace, Mailbox.add) are exempt."
  | R13 ->
      "The signature quorum-counting hazard: a fold/filter/length/ \
       bindings over a message-set structure (a Map/Set/Hashtbl or list \
       that is not a fresh local allocation) inside code reachable from a \
       protocol transition.  Every delivered message that triggers such a \
       re-scan pays O(receive set) — O(n) per event, O(n^2) per quorum — \
       exactly the pattern incremental quorum counters in the protocol \
       state must replace (see Protocols.Tally and the Bracha/RBC \
       counters for the sanctioned shape: counts maintained on receive, \
       read in O(1) at decision time)."
  | R14 ->
      "Eager uniform fan-out: List.init over the system size building one \
       (destination, message) envelope per processor materializes n \
       tuples per broadcast — n^2 per all-send round — even when every \
       destination gets the same payload.  Where a lazy or batched send \
       is available, use it; where the protocol interface forces a list, \
       the justification must say so at the site."
  | R15 ->
      "The cost layer's documented blind spot, closed: a recursive \
       function whose cost comes from the recursion itself has no \
       super-constant primitive site for R11-R14 to report, so a hot \
       O(depth) scan written as a bare `let rec` sailed through.  R15 \
       flags any hot-set function in a recursive call-graph component \
       whose computed summary exceeds the hot-path threshold while every \
       non-self site in its body is within it - i.e. the recursion alone \
       pushes it over.  The finding is reported at the function header \
       (there is no introducing site); suppress there with a bound on \
       the recursion depth, or restructure to an incremental counter."
  | R16 ->
      "Quorum-intersection arithmetic, proved for every n and t rather \
       than model-checked for n <= 5: each protocol family declares its \
       thresholds once as symbolic terms in n and t (Protocols.Quorums, \
       exact floor division included), the protocol evaluates that \
       declaration at init, and the per-family obligations are \
       discharged on it over the declared resilience region - two decision \
       quorums intersect in at least t+1 correct pids, quorums of honest \
       senders are reachable (threshold <= n - t), and phase hand-off \
       inequalities (e.g. Theorem 4's n - 2t >= T1 >= T2 >= T3 + t, \
       2*T3 > n) hold.  A failure names a concrete witness (n, t) \
       inside the region where the obligation breaks."
  | R17 ->
      "No ungated decide: every gate function that writes a decision \
       must be dominated by a tally comparison against one of the \
       declared thresholds, and that threshold must not be satisfiable \
       by the t faulty processors alone (there must be no region point \
       with t >= 1 faults where threshold <= t, else the adversary can \
       manufacture the quorum single-handedly).  The structural half, \
       read from the typed trees, catches a decide moved out from under \
       its guard and a gate comparing against a bound computed inline \
       from n, t or fault_bound instead of the declared value (which \
       the arithmetic was never proved on); the arithmetic half catches \
       a declared guard lowered until it is no guard at all."
  | R18 ->
      "The resilience bound a protocol registers (the model registry's \
       claim, e.g. byzantine t <= (n-1)/3 for Bracha, which its \
       resilience notes evaluate) must match what the declared \
       thresholds actually support: the R16 obligations are \
       re-discharged for each registry entry's declaration (mutants \
       included) over the registered region.  A registry entry that advertises more tolerance than \
       the arithmetic delivers is exactly the mismatch the !quorum \
       mutants exhibit, and it is caught here statically - the bounded \
       model checker's dynamic counterexamples are the cross-check."

type scope = {
  top : [ `Lib | `Bin | `Bench | `Examples | `Other ];
  sub : string option;
}

let scope_of_path path =
  let parts =
    String.split_on_char '/' path
    |> List.filter (fun s -> s <> "" && s <> ".")
  in
  (* Drop any absolute prefix: keep from the first recognized top dir. *)
  let rec from_top = function
    | [] -> []
    | ("lib" | "bin" | "bench" | "examples" | "test") :: _ as rest -> rest
    | _ :: rest -> from_top rest
  in
  match from_top parts with
  | "lib" :: sub :: _ :: _ -> { top = `Lib; sub = Some sub }
  | "lib" :: _ -> { top = `Lib; sub = None }
  | "bin" :: _ -> { top = `Bin; sub = None }
  | "bench" :: _ -> { top = `Bench; sub = None }
  | "examples" :: _ -> { top = `Examples; sub = None }
  | _ -> { top = `Other; sub = None }

let applies rule scope =
  match rule with
  | R1 | R5 -> scope.top = `Lib
  | R2 | R6 -> true
  | R7 -> (
      scope.top = `Lib
      &&
      match scope.sub with
      | Some ("dsim" | "protocols" | "adversary" | "stats" | "lowerbound") ->
          true
      | _ -> false)
  | R10 -> (
      scope.top = `Lib
      &&
      match scope.sub with
      | Some ("dsim" | "protocols" | "adversary") -> true
      | _ -> false)
  | R8 ->
      (* Roots are protocol-record constructions, which only exist under
         lib/; the reachable effect may live anywhere. *)
      scope.top = `Lib
  | R9 -> (
      scope.top = `Lib
      &&
      match scope.sub with
      | Some ("prng" | "lint") -> false  (* the implementation itself *)
      | _ -> true)
  | R11 | R12 | R13 | R14 | R15 ->
      (* Membership in the hot set, not the path, decides whether the
         cost rules fire; the path gate only keeps the linter itself and
         non-library trees out of scope. *)
      scope.top = `Lib
      && (match scope.sub with Some "lint" -> false | _ -> true)
  | R16 | R17 | R18 -> (
      (* The families' threshold declarations and gate functions live
         in lib/protocols; the mutants' declarations and the registered
         resilience claims live in the model registry (lib/mcheck). *)
      scope.top = `Lib
      &&
      match scope.sub with
      | Some ("lint" | "prng" | "stats") -> false
      | _ -> true)

(* ------------------------------------------------------------------ *)
(* Diagnostics: a rule at a location.                                  *)

type diagnostic = {
  path : string;
  line : int;
  col : int;
  rule : t;
  message : string;
}

let compare_diagnostic a b =
  match String.compare a.path b.path with
  | 0 -> (
      match Int.compare a.line b.line with
      | 0 -> (
          match Int.compare a.col b.col with
          | 0 -> String.compare (id a.rule) (id b.rule)
          | c -> c)
      | c -> c)
  | c -> c

(* ------------------------------------------------------------------ *)
(* Suppression comments: (* lint: allow R7 *) covers its own line and
   the following one.                                                  *)

type suppression = All | Only of t list

(* Knuth-Morris-Pratt: one pass over the haystack, no per-position
   rescans and no substring allocation. *)
let find_substring haystack needle from =
  let nl = String.length needle and hl = String.length haystack in
  if nl = 0 then if from <= hl then Some (Int.max from 0) else None
  else if from > hl - nl then None
  else begin
    let fail = Array.make nl 0 in
    let k = ref 0 in
    for i = 1 to nl - 1 do
      while !k > 0 && needle.[!k] <> needle.[i] do
        k := fail.(!k - 1)
      done;
      if needle.[!k] = needle.[i] then incr k;
      fail.(i) <- !k
    done;
    let matched = ref 0 and result = ref None in
    let i = ref (Int.max from 0) in
    while !result = None && !i < hl do
      while !matched > 0 && needle.[!matched] <> haystack.[!i] do
        matched := fail.(!matched - 1)
      done;
      if needle.[!matched] = haystack.[!i] then incr matched;
      if !matched = nl then result := Some (!i - nl + 1);
      incr i
    done;
    !result
  end

let parse_suppression_line line =
  match find_substring line "lint:" 0 with
  | None -> None
  | Some at -> (
      let rest = String.sub line (at + 5) (String.length line - at - 5) in
      let rest = String.trim rest in
      if not (String.length rest >= 5 && String.sub rest 0 5 = "allow") then None
      else
        let spec = String.sub rest 5 (String.length rest - 5) in
        (* Cut at the comment terminator if present. *)
        let spec =
          match find_substring spec "*)" 0 with
          | Some stop -> String.sub spec 0 stop
          | None -> spec
        in
        let tokens =
          String.split_on_char ' ' (String.map (function ',' -> ' ' | c -> c) spec)
          |> List.map String.trim
          |> List.filter (fun s -> s <> "")
        in
        if List.exists (fun t -> String.lowercase_ascii t = "all") tokens then Some All
        else
          match List.filter_map of_id tokens with
          | [] -> None
          | rules -> Some (Only rules))

let suppressions_of_source source =
  let table = Hashtbl.create 8 in
  let lines = String.split_on_char '\n' source in
  List.iteri
    (fun i line ->
      match parse_suppression_line line with
      | None -> ()
      | Some s -> Hashtbl.replace table (i + 1) s)
    lines;
  table

let suppressed table ~line rule =
  let covers l =
    match Hashtbl.find_opt table l with
    | Some All -> true
    | Some (Only rules) -> List.mem rule rules
    | None -> false
  in
  covers line || covers (line - 1)
