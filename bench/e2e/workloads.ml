(* The benchmark's workloads.

   A workload runs blocks of executions.  Block [i] of a run seeded [S]
   covers seeds [S + i*k .. S + (i+1)*k - 1] for the workload's block
   size [k]; block 0 is the untimed warm-up and, at [S = 1], the block
   the pinned outputs refer to.  Each block goes through the public
   entry point a user calls ([Ensemble.run_windowed]/[run_stepwise] or
   [Mcheck.Model.run]), one caller, one execution at a time.

   Per-execution latency and outcomes are read without leaving
   [Ensemble]: the strategy factory handed to it stamps the clock each
   time a seed starts and remembers that seed's engine, whose counters
   are read when the next seed starts (or the sweep returns).  The
   traced variant drives the same calls itself — exactly the sequence
   [Runner.run_windows]/[run_steps] makes — so that {!Layers} can time
   each one. *)

type outcome = {
  sent : int;
  delivered : int;
  dropped : int;
  resets : int;
  windows : int;
  steps : int;
  decided : int;
  ok : bool;  (** agreement, validity and the stop condition within budget *)
  states : int;
  candidates : int;
  dedup_hits : int;
  symmetry_hits : int;
  violations : int;
}

let blank =
  {
    sent = 0;
    delivered = 0;
    dropped = 0;
    resets = 0;
    windows = 0;
    steps = 0;
    decided = 0;
    ok = false;
    states = 0;
    candidates = 0;
    dedup_hits = 0;
    symmetry_hits = 0;
    violations = 0;
  }

(* The unit of work a workload's throughput counts: message deliveries
   for simulations, explored states for the model checker. *)
let work o = o.delivered + o.states

type block = {
  outcomes : outcome array;
  latencies_ns : int array;
  peak_heap_words : int;
      (** largest major heap seen at an execution boundary, sampled
          while the finished execution is still live *)
  failed : int;  (** executions failing an output check *)
  lint_violations : int;
}

let heap_words () = (Gc.quick_stat ()).heap_words

type t = {
  name : string;
  why : string;
  block_seeds : int;
  tail_pct : int;  (** the latency percentile the JSON report gives as the tail *)
  run : int array -> block;
  run_traced : Layers.t -> int array -> outcome array * int;
      (** outcomes and lint violations *)
  pin : outcome array -> string option;
      (** [Some problem] when block 0 at seed 1 misses its pinned outputs *)
}

let block_seeds w ~seed i = Array.init w.block_seeds (fun j -> seed + (i * w.block_seeds) + j)

(* ------------------------------------------------------------------ *)
(* Simulation workloads.                                               *)

let stop_satisfied config = function
  | `First_decision -> Dsim.Engine.some_decided config
  | `All_decided -> Dsim.Engine.all_decided config
  | `Never -> false

let summarize ~stop config =
  let trace = Dsim.Engine.trace config in
  let verdict =
    Agreement.Correctness.of_outcome ~inputs:(Dsim.Engine.inputs config)
      (Dsim.Runner.outcome_of_config config ~reason:Dsim.Runner.Stopped)
  in
  {
    blank with
    sent = Dsim.Trace.sent trace;
    delivered = Dsim.Trace.delivered trace;
    dropped = Dsim.Trace.dropped trace;
    resets = Dsim.Trace.resets trace;
    windows = Dsim.Engine.window_index config;
    steps = Dsim.Engine.step_index config;
    decided = verdict.Agreement.Correctness.decided;
    ok = Agreement.Correctness.ok verdict && stop_satisfied config stop;
  }

(* One untraced block through [sweep] (a partially applied
   [Ensemble.run_windowed] or [run_stepwise]). *)
let sim_block ~sweep ~strategy ~stop seeds =
  let k = Array.length seeds in
  let outcomes = Array.make k blank in
  let stamps = Array.make (k + 1) 0 in
  let saved = ref None and started = ref 0 and peak = ref 0 in
  let capture () =
    match !saved with
    | None -> ()
    | Some config ->
        peak := max !peak (heap_words ());
        outcomes.(!started - 1) <- summarize ~stop config;
        saved := None
  in
  let factory seed =
    capture ();
    stamps.(!started) <- Layers.now_ns ();
    incr started;
    let inner = strategy seed in
    let first = ref true in
    fun config ->
      if !first then begin
        first := false;
        saved := Some config
      end;
      inner config
  in
  let (r : Agreement.Ensemble.result) = sweep ~strategy:factory (Array.to_list seeds) in
  stamps.(k) <- Layers.now_ns ();
  capture ();
  let own = Array.fold_left (fun acc o -> if o.ok then acc else acc + 1) 0 outcomes in
  let reported =
    r.agreement_failures + r.validity_failures + (r.runs - r.terminated) + r.lint_violations
  in
  {
    outcomes;
    latencies_ns = Array.init k (fun i -> stamps.(i + 1) - stamps.(i));
    peak_heap_words = !peak;
    failed = min k (max own reported);
    lint_violations = r.lint_violations;
  }

let traced_audit tr ~lint ~lint_quorum config =
  if not lint then 0
  else begin
    Layers.start tr;
    let v = Lintkit.Trace_lint.audit ?decision_quorum:lint_quorum config in
    Layers.mark tr Layers.Audit;
    List.length v
  end

(* [drive] runs one execution on a fresh engine the way the matching
   [Runner] loop does, spanning each call. *)
let sim_traced ~lint ~lint_quorum ~protocol ~(spec : Agreement.Ensemble.spec) ~drive tr seeds =
  let protocol = Layers.wrap_protocol tr protocol in
  let lint_total = ref 0 in
  let outcomes =
    Array.map
      (fun seed ->
        Layers.begin_exec tr;
        let config =
          Dsim.Engine.init ~protocol ~n:spec.n ~fault_bound:spec.t ~inputs:(spec.inputs seed)
            ~seed ~record_events:lint ~track_deliveries:false ()
        in
        drive config seed;
        lint_total := !lint_total + traced_audit tr ~lint ~lint_quorum config;
        let o = summarize ~stop:spec.stop config in
        Layers.end_exec tr ~seed;
        o)
      seeds
  in
  (outcomes, !lint_total)

let windowed ~name ~why ~block_seeds ~tail_pct ?(lint = false) ?lint_quorum ~protocol ~strategy
    ~(spec : Agreement.Ensemble.spec) ~pin () =
  let run =
    sim_block ~strategy ~stop:spec.stop ~sweep:(fun ~strategy seeds ->
        Agreement.Ensemble.run_windowed ~lint ?lint_quorum ~protocol ~strategy ~spec ~seeds ())
  in
  let drive tr config seed =
    let strategy = strategy seed in
    let n = Dsim.Engine.n config and t = Dsim.Engine.fault_bound config in
    let rec loop remaining =
      let stop = stop_satisfied config spec.stop in
      Layers.mark tr Layers.Stop;
      if (not stop) && remaining > 0 then begin
        let next = strategy config in
        Layers.mark tr Layers.Adversary;
        match next with
        | None -> ()
        | Some window -> (
            let valid = Dsim.Window.validate ~n ~t window in
            Layers.mark tr Layers.Validate;
            match valid with
            | Error _ -> ()
            | Ok () ->
                Dsim.Engine.apply_window config window;
                Layers.mark tr Layers.Engine;
                loop (remaining - 1))
      end
    in
    Layers.start tr;
    loop spec.max_windows
  in
  let run_traced tr = sim_traced ~lint ~lint_quorum ~protocol ~spec ~drive:(drive tr) tr in
  { name; why; block_seeds; tail_pct; run; run_traced; pin }

let stepwise ~name ~why ~block_seeds ~tail_pct ~protocol ~strategy
    ~(spec : Agreement.Ensemble.spec) ~pin () =
  let run =
    sim_block ~strategy ~stop:spec.stop ~sweep:(fun ~strategy seeds ->
        Agreement.Ensemble.run_stepwise ~protocol ~strategy ~spec ~seeds ())
  in
  let drive tr config seed =
    let strategy = strategy seed in
    let rec loop remaining =
      let stop = stop_satisfied config spec.stop in
      Layers.mark tr Layers.Stop;
      if (not stop) && remaining > 0 then begin
        let next = strategy config in
        Layers.mark tr Layers.Adversary;
        match next with
        | None -> ()
        | Some step ->
            Dsim.Engine.apply config step;
            Layers.mark tr Layers.Engine;
            loop (remaining - 1)
      end
    in
    Layers.start tr;
    loop spec.max_steps
  in
  let run_traced tr = sim_traced ~lint:false ~lint_quorum:None ~protocol ~spec ~drive:(drive tr) tr in
  { name; why; block_seeds; tail_pct; run; run_traced; pin }

(* ------------------------------------------------------------------ *)
(* Model-checking workload: one [Model.run] per seed.                  *)

let of_explore (r : Mcheck.Explore.result) =
  {
    blank with
    ok = r.violations_total = 0 && not r.bounded;
    states = r.total_states;
    candidates = r.total_candidates;
    dedup_hits = r.total_dedup_hits;
    symmetry_hits = r.total_symmetry_hits;
    violations = r.violations_total;
  }

let mcheck ~name ~why ~tail_pct ~model ~depth ~pin () =
  let model =
    match Mcheck.Model.find model with
    | Some m -> m
    | None -> invalid_arg ("unknown mcheck model " ^ model)
  in
  let opts seed =
    { (Mcheck.Model.options model ~n:3 ~t:1) with Mcheck.Explore.depth; seed; jobs = 1 }
  in
  let run seeds =
    let k = Array.length seeds in
    let latencies_ns = Array.make k 0 and peak = ref 0 in
    let outcomes =
      Array.mapi
        (fun i seed ->
          let t0 = Layers.now_ns () in
          let r = Mcheck.Model.run model (opts seed) in
          latencies_ns.(i) <- Layers.now_ns () - t0;
          peak := max !peak (heap_words ());
          of_explore r)
        seeds
    in
    let failed = Array.fold_left (fun acc o -> if o.ok then acc else acc + 1) 0 outcomes in
    { outcomes; latencies_ns; peak_heap_words = !peak; failed; lint_violations = 0 }
  in
  let run_traced tr seeds =
    match model.Mcheck.Model.packed with
    | Mcheck.Model.Packed protocol ->
        let protocol = Layers.wrap_protocol tr protocol in
        ( Array.map
            (fun seed ->
              Layers.begin_exec tr;
              Layers.start tr;
              let r = Mcheck.Explore.run ~protocol ~valid:model.Mcheck.Model.valid (opts seed) in
              Layers.mark tr Layers.Explore;
              Layers.end_exec tr ~seed;
              of_explore r)
            seeds,
          0 )
  in
  { name; why; block_seeds = 1; tail_pct; run; run_traced; pin }

(* ------------------------------------------------------------------ *)
(* The five workloads.                                                 *)

let sum f outcomes = Array.fold_left (fun acc o -> acc + f o) 0 outcomes

let expect what ~want got =
  if got = want then None else Some (Printf.sprintf "%s: expected %d, got %d" what want got)

let first_problem checks = List.find_map Fun.id checks

let sim_spec ~n ~t ~stop ~max_windows ~max_steps =
  {
    Agreement.Ensemble.n;
    t;
    inputs = Agreement.Ensemble.split_inputs ~n;
    max_windows;
    max_steps;
    stop;
  }

(* [smoke] shrinks every workload to a fraction of a second for the
   runtest smoke check; its outputs are checked for the invariants only. *)
let all ~smoke =
  let seeds full = if smoke then 2 else full in
  let pinned checks block = if smoke then None else first_problem (checks block) in
  let bracha_n = if smoke then 16 else 64 in
  [
    windowed ~name:"bracha-agree-n64"
      ~why:
        "Theta(n^3) RBC deliveries under benign uniform windows: the protocol layer dominates \
         time and allocation, the Bracha-ceiling regime"
      ~block_seeds:1 ~tail_pct:90 ~protocol:(Protocols.Bracha.protocol ())
      ~strategy:(fun _ -> Adversary.Benign.windowed ())
      ~spec:
        (sim_spec ~n:bracha_n ~t:((bracha_n - 1) / 3) ~stop:`All_decided ~max_windows:1_000
           ~max_steps:0)
      ~pin:
        (pinned (fun b ->
             [ expect "windows" ~want:9 (sum (fun o -> o.windows) b);
               expect "decided" ~want:64 (sum (fun o -> o.decided) b) ]))
      ();
    windowed ~name:"lewko-balancing-n13"
      ~why:
        "The paper's headline (E2, n=13): the balancing adversary forces many tiny windows, so \
         the engine's per-window fixed cost dominates"
      ~block_seeds:(seeds 200) ~tail_pct:99 ~protocol:(Protocols.Lewko_variant.protocol ())
      ~strategy:(fun _ -> Adversary.Split_vote.windowed ())
      ~spec:(sim_spec ~n:13 ~t:1 ~stop:`First_decision ~max_windows:400_000 ~max_steps:0)
      ~pin:
        (pinned (fun b ->
             [ expect "windows" ~want:33_314 (sum (fun o -> o.windows) b);
               expect "terminated" ~want:200 (sum (fun o -> Bool.to_int o.ok) b) ]))
      ();
    (* n = 12 (an E1 size) rather than 18: a run then holds about 1000
       executions, enough for a steady median of this wide latency
       distribution. *)
    windowed ~name:"lewko-reset-audit-n12"
      ~why:
        "Resets every window take the on_reset path and block window fusion; event recording \
         and the Trace_lint audit are on, as in E0"
      ~block_seeds:(seeds 40) ~tail_pct:95 ~lint:true ~lint_quorum:(12 - (2 * 1))
      ~protocol:(Protocols.Lewko_variant.protocol ())
      ~strategy:(fun seed -> Adversary.Reset_storm.with_silence ~seed ())
      ~spec:(sim_spec ~n:12 ~t:1 ~stop:`All_decided ~max_windows:20_000 ~max_steps:0)
      ~pin:
        (pinned (fun b ->
             [ expect "windows" ~want:2_289 (sum (fun o -> o.windows) b);
               expect "terminated" ~want:40 (sum (fun o -> Bool.to_int o.ok) b) ]))
      ();
    mcheck ~name:"mcheck-bracha-d4"
      ~why:
        "Exhaustive model checking at the E16 full-scale setting: copy, fingerprint and \
         symmetry canonicalization in the explorer dominate, the protocol is minor"
      ~tail_pct:90 ~model:"bracha" ~depth:(if smoke then 2 else 4)
      ~pin:
        (pinned (fun b ->
             [ expect "states" ~want:17_845 (sum (fun o -> o.states) b);
               expect "candidates" ~want:40_224 (sum (fun o -> o.candidates) b);
               expect "symmetry hits" ~want:27_045 (sum (fun o -> o.symmetry_hits) b) ]))
      ();
    stepwise ~name:"benor-stepwise-n9"
      ~why:
        "The per-step path (E3/E13): millions of Engine.apply calls and no windows; the only \
         workload where the adversary layer is large"
      ~block_seeds:(seeds 100) ~tail_pct:99 ~protocol:(Protocols.Ben_or.protocol ())
      ~strategy:(fun _ -> Adversary.Split_vote.stepwise ())
      ~spec:(sim_spec ~n:9 ~t:4 ~stop:`First_decision ~max_windows:0 ~max_steps:6_000_000)
      ~pin:(fun _ -> None) ();
  ]

let find ~smoke name = List.find_opt (fun w -> String.equal w.name name) (all ~smoke)
