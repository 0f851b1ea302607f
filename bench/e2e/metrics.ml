(* Metric declarations: the single source of the names, units,
   directions and bounds printed by runs and rendered into the repo's
   BENCHMARK.json (the runtest smoke check fails if the two drift). *)

type better = Higher | Lower

type t = { name : string; unit_ : string; better : better; bound : float option }

let e2e name unit_ better bound = { name; unit_; better; bound = Some bound }
let layer name unit_ better = { name; unit_; better; bound = None }

(* Bounds come from the recorded runs in README.md.  On the shared
   2-core host the wall-time and heap metrics of identical work spread
   by 6-19% (IQR over 10 runs), so they get the largest allowed bound;
   minor words are deterministic per seed and only the seed mix moves
   them. *)
let end_to_end =
  [
    e2e "work_per_s" "1/s" Higher 0.25;
    e2e "run_ms_p50" "ms" Lower 0.25;
    e2e "minor_words_per_work" "words" Lower 0.01;
    e2e "peak_heap_mb" "MB" Lower 0.25;
    e2e "setup_s" "s" Lower 0.25;
  ]

(* Per-layer time is reported as a share of the traced span time
   because a layer absent from a workload (no audit outside the reset
   workload, no strategy inside the model checker) has no time at all;
   counts and words are per execution. *)
let per_layer =
  [
    layer "adversary.calls" "calls/exec" Lower;
    layer "adversary.self_pct" "%" Lower;
    layer "adversary.minor_words" "words/exec" Lower;
    layer "window.validate_calls" "calls/exec" Lower;
    layer "window.validate_pct" "%" Lower;
    layer "engine.calls" "calls/exec" Lower;
    layer "engine.self_pct" "%" Lower;
    layer "engine.minor_words" "words/exec" Lower;
    layer "engine.stop_check_pct" "%" Lower;
    layer "protocol.deliver_calls" "calls/exec" Lower;
    layer "protocol.outgoing_calls" "calls/exec" Lower;
    layer "protocol.reset_calls" "calls/exec" Lower;
    layer "protocol.self_pct" "%" Lower;
    layer "protocol.minor_words" "words/exec" Lower;
    layer "protocol.words_per_deliver" "words" Lower;
    layer "protocol.ns_per_call" "ns" Lower;
    layer "trace.sent" "count/exec" Lower;
    layer "trace.delivered" "count/exec" Lower;
    layer "trace.dropped" "count/exec" Lower;
    layer "trace.resets" "count/exec" Lower;
    layer "trace.windows" "count/exec" Lower;
    layer "trace.delivered_per_sent" "ratio" Higher;
    layer "trace.overhead_pct" "%" Lower;
    layer "trace_lint.calls" "calls/exec" Lower;
    layer "trace_lint.self_pct" "%" Lower;
    layer "mcheck.states" "count/exec" Lower;
    layer "mcheck.candidates" "count/exec" Lower;
    layer "mcheck.dedup_hits" "count/exec" Lower;
    layer "mcheck.symmetry_hits" "count/exec" Lower;
    layer "mcheck.states_per_candidate" "ratio" Higher;
    layer "mcheck.self_pct" "%" Lower;
    layer "other.self_pct" "%" Lower;
    layer "gc.minor_collections" "count/exec" Lower;
    layer "gc.major_collections" "count/exec" Lower;
    layer "gc.promoted_words" "words/exec" Lower;
  ]

let find name = List.find_opt (fun m -> String.equal m.name name) (end_to_end @ per_layer)
let better_string = function Higher -> "higher" | Lower -> "lower"

let escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let run_seconds = 15

(* The BENCHMARK.json text for [workloads] as (name, why) pairs. *)
let benchmark_json workloads =
  let b = Buffer.create 4096 in
  let add = Buffer.add_string b in
  let list items render =
    List.iteri
      (fun i x ->
        add (if i = 0 then "\n" else ",\n");
        add "    ";
        render x)
      items;
    add "\n  ]"
  in
  add "{\n";
  add "  \"command\": [\"sh\", \"bench/e2e/run.sh\"],\n";
  add "  \"paths\": [\"bench/e2e\"],\n";
  add (Printf.sprintf "  \"run_seconds\": %d,\n" run_seconds);
  add "  \"workloads\": [";
  list workloads (fun (name, why) ->
      add (Printf.sprintf "{\"name\": \"%s\", \"why\": \"%s\"}" (escape name) (escape why)));
  add ",\n  \"end_to_end\": [";
  list end_to_end (fun m ->
      add
        (Printf.sprintf "{\"name\": \"%s\", \"unit\": \"%s\", \"better\": \"%s\", \"bound\": %g}"
           m.name m.unit_ (better_string m.better) (Option.value m.bound ~default:0.0)));
  add ",\n  \"per_layer\": [";
  list per_layer (fun m ->
      add
        (Printf.sprintf "{\"name\": \"%s\", \"unit\": \"%s\", \"better\": \"%s\"}" m.name m.unit_
           (better_string m.better)));
  add "\n}\n";
  Buffer.contents b
