type spec = {
  n : int;
  t : int;
  inputs : int -> bool array;
  max_windows : int;
  max_steps : int;
  stop : Dsim.Runner.stop_condition;
}

let split_inputs ~n seed = Array.init n (fun i -> (i + seed) mod 2 = 0)
let constant_inputs ~n value _seed = Array.make n value

(* ------------------------------------------------------------------ *)
(* Per-chunk partial results.  Everything in here is integer-exact
   (counts, integer moments, histogram buckets), so [merge] is
   genuinely commutative and associative with [empty ()] as identity:
   any chunking of a seed list, merged in any order, produces the same
   partial bit for bit.  That algebra is what lets Par_sweep run
   chunks on several domains and still return results identical to the
   sequential path.  Floats appear only once, in [finalize]. *)

module Partial = struct
  type t = {
    runs : int;
    agreement_failures : int;
    validity_failures : int;
    terminated : int;
    windows : Stats.Summary.Exact.t;
    steps : Stats.Summary.Exact.t;
    chain_depth : Stats.Summary.Exact.t;
    total_resets : Stats.Summary.Exact.t;
    decisions_zero : int;
    decisions_one : int;
    window_histogram : Stats.Histogram.t;
    lint_violations : int;
  }

  (* A function, not a constant: the histogram is mutable and must be
     fresh per accumulator. *)
  let empty () =
    {
      runs = 0;
      agreement_failures = 0;
      validity_failures = 0;
      terminated = 0;
      windows = Stats.Summary.Exact.empty;
      steps = Stats.Summary.Exact.empty;
      chain_depth = Stats.Summary.Exact.empty;
      total_resets = Stats.Summary.Exact.empty;
      decisions_zero = 0;
      decisions_one = 0;
      window_histogram = Stats.Histogram.empty ();
      lint_violations = 0;
    }

  let merge a b =
    {
      runs = a.runs + b.runs;
      agreement_failures = a.agreement_failures + b.agreement_failures;
      validity_failures = a.validity_failures + b.validity_failures;
      terminated = a.terminated + b.terminated;
      windows = Stats.Summary.Exact.merge a.windows b.windows;
      steps = Stats.Summary.Exact.merge a.steps b.steps;
      chain_depth = Stats.Summary.Exact.merge a.chain_depth b.chain_depth;
      total_resets = Stats.Summary.Exact.merge a.total_resets b.total_resets;
      decisions_zero = a.decisions_zero + b.decisions_zero;
      decisions_one = a.decisions_one + b.decisions_one;
      window_histogram =
        Stats.Histogram.merge a.window_histogram b.window_histogram;
      lint_violations = a.lint_violations + b.lint_violations;
    }

  let equal a b =
    Int.equal a.runs b.runs
    && Int.equal a.agreement_failures b.agreement_failures
    && Int.equal a.validity_failures b.validity_failures
    && Int.equal a.terminated b.terminated
    && Stats.Summary.Exact.equal a.windows b.windows
    && Stats.Summary.Exact.equal a.steps b.steps
    && Stats.Summary.Exact.equal a.chain_depth b.chain_depth
    && Stats.Summary.Exact.equal a.total_resets b.total_resets
    && Int.equal a.decisions_zero b.decisions_zero
    && Int.equal a.decisions_one b.decisions_one
    && Stats.Histogram.equal a.window_histogram b.window_histogram
    && Int.equal a.lint_violations b.lint_violations

  let runs t = t.runs
end

type result = {
  runs : int;
  agreement_failures : int;
  validity_failures : int;
  terminated : int;
  windows : Stats.Summary.t;
  steps : Stats.Summary.t;
  chain_depth : Stats.Summary.t;
  total_resets : Stats.Summary.t;
  decisions_zero : int;
  decisions_one : int;
  window_histogram : Stats.Histogram.t;
  lint_violations : int;
}

let finalize (p : Partial.t) =
  {
    runs = p.Partial.runs;
    agreement_failures = p.Partial.agreement_failures;
    validity_failures = p.Partial.validity_failures;
    terminated = p.Partial.terminated;
    windows = Stats.Summary.Exact.to_summary p.Partial.windows;
    steps = Stats.Summary.Exact.to_summary p.Partial.steps;
    chain_depth = Stats.Summary.Exact.to_summary p.Partial.chain_depth;
    total_resets = Stats.Summary.Exact.to_summary p.Partial.total_resets;
    decisions_zero = p.Partial.decisions_zero;
    decisions_one = p.Partial.decisions_one;
    window_histogram = p.Partial.window_histogram;
    lint_violations = p.Partial.lint_violations;
  }

let equal_result a b =
  Int.equal a.runs b.runs
  && Int.equal a.agreement_failures b.agreement_failures
  && Int.equal a.validity_failures b.validity_failures
  && Int.equal a.terminated b.terminated
  && Stats.Summary.equal a.windows b.windows
  && Stats.Summary.equal a.steps b.steps
  && Stats.Summary.equal a.chain_depth b.chain_depth
  && Stats.Summary.equal a.total_resets b.total_resets
  && Int.equal a.decisions_zero b.decisions_zero
  && Int.equal a.decisions_one b.decisions_one
  && Stats.Histogram.equal a.window_histogram b.window_histogram
  && Int.equal a.lint_violations b.lint_violations

let fold_outcome (acc : Partial.t) ~inputs (outcome : Dsim.Runner.outcome) =
  let verdict = Correctness.of_outcome ~inputs outcome in
  let terminated = outcome.Dsim.Runner.reason = Dsim.Runner.Stopped in
  if terminated then
    Stats.Histogram.add acc.Partial.window_histogram outcome.Dsim.Runner.windows;
  {
    acc with
    Partial.runs = acc.Partial.runs + 1;
    agreement_failures =
      (acc.Partial.agreement_failures
      + if verdict.Correctness.agreement then 0 else 1);
    validity_failures =
      (acc.Partial.validity_failures
      + if verdict.Correctness.validity then 0 else 1);
    terminated = (acc.Partial.terminated + if terminated then 1 else 0);
    windows =
      (if terminated then
         Stats.Summary.Exact.add acc.Partial.windows outcome.Dsim.Runner.windows
       else acc.Partial.windows);
    steps =
      (if terminated then
         Stats.Summary.Exact.add acc.Partial.steps outcome.Dsim.Runner.steps
       else acc.Partial.steps);
    chain_depth =
      (if terminated then
         Stats.Summary.Exact.add acc.Partial.chain_depth
           outcome.Dsim.Runner.max_chain_depth
       else acc.Partial.chain_depth);
    total_resets =
      Stats.Summary.Exact.add acc.Partial.total_resets
        outcome.Dsim.Runner.total_resets;
    decisions_zero =
      (acc.Partial.decisions_zero
      + if terminated && verdict.Correctness.value = Some false then 1 else 0);
    decisions_one =
      (acc.Partial.decisions_one
      + if terminated && verdict.Correctness.value = Some true then 1 else 0);
  }

(* With [lint] the engine records its full event trace and the runtime
   trace linter audits every run; violations are counted per run, not
   per event. *)
let audit ~lint ~lint_fifo ~lint_quorum config =
  if not lint then 0
  else
    List.length
      (Lintkit.Trace_lint.audit ?decision_quorum:lint_quorum ~fifo:lint_fifo
         config)

(* One seed -> one partial.  Pure in the seed given the (immutable)
   protocol/spec and a strategy factory that builds fresh per-run
   state, so it is safe to evaluate on any domain. *)
let partial_of_seed ~lint ~lint_fifo ~lint_quorum ~protocol ~spec ~run seed =
  let inputs = spec.inputs seed in
  let config =
    Dsim.Engine.init ~protocol ~n:spec.n ~fault_bound:spec.t ~inputs ~seed
      ~record_events:lint ()
  in
  let outcome = run config seed in
  let acc = fold_outcome (Partial.empty ()) ~inputs outcome in
  {
    acc with
    Partial.lint_violations = audit ~lint ~lint_fifo ~lint_quorum config;
  }

let sweep ?(jobs = 1) ?(lint = false) ?(lint_fifo = true) ?lint_quorum ~protocol
    ~spec ~run seeds =
  Par_sweep.map_reduce ~jobs ~merge:Partial.merge ~init:(Partial.empty ())
    ~f:(partial_of_seed ~lint ~lint_fifo ~lint_quorum ~protocol ~spec ~run)
    (Array.of_list seeds)

let partial_windowed ?jobs ?lint ?lint_fifo ?lint_quorum ~protocol ~strategy
    ~spec ~seeds () =
  sweep ?jobs ?lint ?lint_fifo ?lint_quorum ~protocol ~spec
    ~run:(fun config seed ->
      Dsim.Runner.run_windows config ~strategy:(strategy seed)
        ~max_windows:spec.max_windows ~stop:spec.stop)
    seeds

let run_windowed ?jobs ?lint ?lint_fifo ?lint_quorum ~protocol ~strategy ~spec
    ~seeds () =
  finalize
    (partial_windowed ?jobs ?lint ?lint_fifo ?lint_quorum ~protocol ~strategy
       ~spec ~seeds ())

let run_stepwise ?jobs ?lint ?lint_fifo ?lint_quorum ~protocol ~strategy ~spec
    ~seeds () =
  finalize
    (sweep ?jobs ?lint ?lint_fifo ?lint_quorum ~protocol ~spec
       ~run:(fun config seed ->
         Dsim.Runner.run_steps config ~strategy:(strategy seed)
           ~max_steps:spec.max_steps ~stop:spec.stop)
       seeds)

let rate part total = if total = 0 then nan else float_of_int part /. float_of_int total

let termination_rate r = rate r.terminated r.runs
let agreement_rate r = rate (r.runs - r.agreement_failures) r.runs
let validity_rate r = rate (r.runs - r.validity_failures) r.runs

let pp_result ppf r =
  Format.fprintf ppf
    "@[<v>runs: %d@,terminated: %d@,agreement rate: %.3f@,validity rate: \
     %.3f@,decisions: %d zero / %d one@,windows: %a@,steps: %a@,chain depth: \
     %a@,total resets: %a@,lint violations: %d@]"
    r.runs r.terminated (agreement_rate r) (validity_rate r) r.decisions_zero
    r.decisions_one Stats.Summary.pp r.windows Stats.Summary.pp r.steps
    Stats.Summary.pp r.chain_depth Stats.Summary.pp r.total_resets
    r.lint_violations
