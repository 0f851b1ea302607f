(* One workload in one fresh process: warm up, then measure for the
   requested seconds, and report on stdout to the launcher in main.ml.

   Line protocol: "ready" once the warm-up block is done (the launcher
   times process start to this line as set-up), then any number of
   "metric NAME VALUE", "detail KEY JSON" and "problem TEXT" lines,
   and finally "status ATTEMPTED FAILED". *)

module Q = E2e_quantiles.Quantiles
module W = Workloads

let metric name value = Printf.printf "metric %s %.17g\n" name value
let detail key json = Printf.printf "detail %s %s\n" key json
let problem fmt = Printf.ksprintf (fun s -> Printf.printf "problem %s\n" s) fmt
let seconds ns = float_of_int ns /. 1e9
let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b
let sum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs

(* A measured block: the workload's own result plus wall time and
   minor words around the call. *)
type timed = { block : W.block; ns : int; words : int }

let timed_run f =
  let w0 = Layers.minor_words () in
  let t0 = Layers.now_ns () in
  let block = f () in
  let ns = Layers.now_ns () - t0 in
  { block; ns; words = Layers.minor_words () - w0 }

let block_work b = Array.fold_left (fun acc o -> acc + W.work o) 0 b.W.outcomes

(* Untimed block 0: fills memos (e.g. [Strategy.cached_uniform]) and
   grows the heap; at seed 1 it is also the pinned block. *)
let warm_up (w : W.t) ~seed =
  let b = w.run (W.block_seeds w ~seed 0) in
  if b.failed > 0 then problem "warm-up block: %d executions failed their checks" b.failed;
  let pin_failed =
    match if seed = 1 then w.pin b.outcomes else None with
    | Some p ->
        problem "pinned outputs at seed 1: %s" p;
        1
    | None -> 0
  in
  (b, pin_failed)

(* Blocks 1, 2, ... until [seconds] have elapsed (at least one). *)
let measure_blocks ~seconds f =
  let deadline = Layers.now_ns () + int_of_float (seconds *. 1e9) in
  let rec loop i acc =
    let acc = f i :: acc in
    if Layers.now_ns () >= deadline then List.rev acc else loop (i + 1) acc
  in
  loop 1 []

let spread_json (s : Q.spread) = Printf.sprintf "{\"p25\":%.17g,\"p50\":%.17g,\"p75\":%.17g}" s.p25 s.p50 s.p75

let report_untraced (w : W.t) blocks =
  let rates =
    Q.sorted (Array.of_list (List.map (fun t -> float_of_int (block_work t.block) /. seconds t.ns) blocks))
  in
  let latencies =
    Q.sorted
      (Array.concat
         (List.map (fun t -> Array.map (fun ns -> float_of_int ns /. 1e6) t.block.W.latencies_ns) blocks))
  in
  let n = Array.length latencies in
  let work = sum (fun t -> block_work t.block) blocks in
  let tail = Q.percentile latencies w.tail_pct in
  metric "work_per_s" (Q.median rates);
  metric "run_ms_p50" (Q.median latencies);
  metric "minor_words_per_work" (ratio (sum (fun t -> t.words) blocks) work);
  let mb words = float_of_int (words * (Sys.word_size / 8)) /. 1e6 in
  metric "peak_heap_mb"
    (Q.median (Q.sorted (Array.of_list (List.map (fun t -> mb t.block.W.peak_heap_words) blocks))));
  let rate_spread = Q.spread rates in
  detail "blocks"
    (Printf.sprintf "{\"count\":%d,\"work\":%d,\"work_per_s\":%s,\"work_per_s_relative_iqr\":%.17g}"
       (List.length blocks) work (spread_json rate_spread) (Q.relative_iqr rate_spread));
  detail "executions"
    (Printf.sprintf
       "{\"count\":%d,\"run_ms\":%s,\"tail\":{\"percentile\":%d,\"ms\":%.17g,\"beyond\":%d,\"highest_supported\":%s}}"
       n (spread_json (Q.spread latencies)) w.tail_pct tail (Q.beyond ~n w.tail_pct)
       (match Q.highest_supported ~n [ 90; 95; 99 ] with
       | Some p -> string_of_int p
       | None -> "null"));
  detail "process_top_heap_mb" (Printf.sprintf "%.17g" (mb (Gc.quick_stat ()).top_heap_words))

(* The traced pass: each block runs untraced then traced, so the
   traced outcomes can be checked against the untraced ones and the
   tracing overhead measured on identical work. *)
type pair = { plain : timed; traced : timed; traced_lint : int; gc : int * int * int }

let gc_counts () =
  let s = Gc.quick_stat () in
  (s.minor_collections, s.major_collections, int_of_float s.promoted_words)

let traced_block (w : W.t) tr ~seed i =
  let seeds = W.block_seeds w ~seed i in
  let plain = timed_run (fun () -> w.run seeds) in
  let minor0, major0, promoted0 = gc_counts () in
  let lint = ref 0 in
  let traced =
    timed_run (fun () ->
        let outcomes, l = w.run_traced tr seeds in
        lint := l;
        { W.outcomes; latencies_ns = [||]; peak_heap_words = 0; failed = 0; lint_violations = l })
  in
  let minor1, major1, promoted1 = gc_counts () in
  { plain; traced; traced_lint = !lint; gc = (minor1 - minor0, major1 - major0, promoted1 - promoted0) }

(* Executions whose traced outcome differs from the untraced one. *)
let fidelity_failures ~seed (w : W.t) pairs =
  List.concat
    (List.mapi
       (fun i p ->
         let seeds = W.block_seeds w ~seed (i + 1) in
         let bad = ref [] in
         Array.iteri
           (fun j o -> if o <> p.traced.block.W.outcomes.(j) then bad := seeds.(j) :: !bad)
           p.plain.block.W.outcomes;
         if p.traced_lint <> p.plain.block.W.lint_violations then
           problem "block %d: traced audit found %d violations, untraced %d" (i + 1) p.traced_lint
             p.plain.block.W.lint_violations;
         List.rev !bad)
       pairs)

let report_traced tr pairs =
  let open Layers in
  let execs = sum (fun p -> Array.length p.traced.block.W.outcomes) pairs in
  let outcomes = List.concat_map (fun p -> Array.to_list p.traced.block.W.outcomes) pairs in
  let total_ns = exec_ns tr in
  let ns l = tr.ns.(index l) and calls l = tr.calls.(index l) and words l = tr.words.(index l) in
  let protocol = [ Deliver; Outgoing; Reset ] in
  let protocol_ns = sum ns protocol and protocol_calls = sum calls protocol in
  let pct x = 100.0 *. ratio x total_ns in
  let per_exec x = ratio x execs in
  let out f = sum f outcomes in
  let minor, major, promoted =
    List.fold_left (fun (a, b, c) p -> let x, y, z = p.gc in (a + x, b + y, c + z)) (0, 0, 0) pairs
  in
  metric "adversary.calls" (per_exec (calls Adversary));
  metric "adversary.self_pct" (pct (ns Adversary));
  metric "adversary.minor_words" (per_exec (words Adversary));
  metric "window.validate_calls" (per_exec (calls Validate));
  metric "window.validate_pct" (pct (ns Validate));
  metric "engine.calls" (per_exec (calls Engine));
  metric "engine.self_pct" (pct (ns Engine));
  metric "engine.minor_words" (per_exec (words Engine));
  metric "engine.stop_check_pct" (pct (ns Stop));
  metric "protocol.deliver_calls" (per_exec (calls Deliver));
  metric "protocol.outgoing_calls" (per_exec (calls Outgoing));
  metric "protocol.reset_calls" (per_exec (calls Reset));
  metric "protocol.self_pct" (pct protocol_ns);
  metric "protocol.minor_words" (per_exec (sum words protocol));
  metric "protocol.words_per_deliver" (ratio (sum words protocol) (calls Deliver));
  metric "protocol.ns_per_call" (ratio protocol_ns protocol_calls);
  metric "trace.sent" (per_exec (out (fun o -> o.W.sent)));
  metric "trace.delivered" (per_exec (out (fun o -> o.W.delivered)));
  metric "trace.dropped" (per_exec (out (fun o -> o.W.dropped)));
  metric "trace.resets" (per_exec (out (fun o -> o.W.resets)));
  metric "trace.windows" (per_exec (out (fun o -> o.W.windows)));
  metric "trace.delivered_per_sent" (ratio (out (fun o -> o.W.delivered)) (out (fun o -> o.W.sent)));
  metric "trace.overhead_pct"
    (100.0 *. (ratio (sum (fun p -> p.traced.ns) pairs) (sum (fun p -> p.plain.ns) pairs) -. 1.0));
  metric "trace_lint.calls" (per_exec (calls Audit));
  metric "trace_lint.self_pct" (pct (ns Audit));
  metric "mcheck.states" (per_exec (out (fun o -> o.W.states)));
  metric "mcheck.candidates" (per_exec (out (fun o -> o.W.candidates)));
  metric "mcheck.dedup_hits" (per_exec (out (fun o -> o.W.dedup_hits)));
  metric "mcheck.symmetry_hits" (per_exec (out (fun o -> o.W.symmetry_hits)));
  metric "mcheck.states_per_candidate" (ratio (out (fun o -> o.W.states)) (out (fun o -> o.W.candidates)));
  metric "mcheck.self_pct" (pct (ns Explore));
  metric "other.self_pct" (pct (total_ns - sum ns layers));
  metric "gc.minor_collections" (per_exec minor);
  metric "gc.major_collections" (per_exec major);
  metric "gc.promoted_words" (per_exec promoted)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let run ~(workload : W.t) ~seed ~seconds ~trace ~probe ~spans_dir =
  let warm, pin_failed = warm_up workload ~seed in
  print_endline "ready";
  if not probe then begin
    let attempted = ref (Array.length warm.outcomes) and failed = ref (warm.failed + pin_failed) in
    let count (b : W.block) =
      attempted := !attempted + Array.length b.outcomes;
      failed := !failed + b.failed;
      if b.failed > 0 then problem "%d executions failed their checks" b.failed
    in
    if not trace then begin
      let blocks =
        measure_blocks ~seconds (fun i -> timed_run (fun () -> workload.run (W.block_seeds workload ~seed i)))
      in
      List.iter (fun t -> count t.block) blocks;
      report_untraced workload blocks
    end
    else begin
      let tr = Layers.create () in
      let pairs = measure_blocks ~seconds (traced_block workload tr ~seed) in
      List.iter (fun p -> count p.plain.block) pairs;
      let diverged = fidelity_failures ~seed workload pairs in
      if diverged <> [] then begin
        problem "traced outcome differs from untraced at seeds %s"
          (String.concat "," (List.map string_of_int diverged));
        failed := !failed + List.length diverged
      end;
      let drift = ratio (sum (fun p -> p.traced.words) pairs) (sum (fun p -> p.plain.words) pairs) -. 1.0 in
      detail "traced_words_drift_pct" (Printf.sprintf "%.17g" (100.0 *. drift));
      if Float.abs drift > 0.01 then begin
        problem "traced minor words differ from untraced by %.2f%% (limit 1%%)" (100.0 *. drift);
        incr failed
      end;
      report_traced tr pairs;
      mkdir_p spans_dir;
      let path = Filename.concat spans_dir (Printf.sprintf "%s-seed%d.spans.jsonl" workload.name seed) in
      Layers.write_jsonl tr ~workload:workload.name path;
      detail "spans" (Printf.sprintf "\"%s\"" (Metrics.escape path))
    end;
    Printf.printf "status %d %d\n" !attempted !failed
  end
