type scale = [ `Quick | `Full ]

let seeds_list count = List.init count (fun i -> i + 1)

let fault_bound_for n = max 1 (Protocols.Thresholds.max_fault_bound ~n)

(* ------------------------------------------------------------------ *)
(* Ensemble tables: E0, E1, E3, E7, E10 and E14 are each a title, a    *)
(* column list and cells, one seed sweep per cell and one row per      *)
(* sweep, run by [ensemble_table].                                     *)

type column =
  | Label of string  (** the cell's next label *)
  | N
  | T
  | Runs
  | Agreement
  | Validity
  | Termination
  | Mean_windows
  | Mean_resets
  | Resets_per_t
  | Mean_steps
  | Mean_chain
  | Violations
  | Clean
  | Renamed of string * column  (** the column under another header *)

let header = function
  | Label h | Renamed (h, _) -> h
  | N -> "n"
  | T -> "t"
  | Runs -> "runs"
  | Agreement -> "agreement"
  | Validity -> "validity"
  | Termination -> "termination"
  | Mean_windows -> "mean windows"
  | Mean_resets -> "mean resets"
  | Resets_per_t -> "resets / t"
  | Mean_steps -> "mean steps"
  | Mean_chain -> "mean chain length"
  | Violations -> "violations"
  | Clean -> "clean"

type cell = {
  labels : Stats.Table.cell list;  (** one per [Label] column, in order *)
  spec : Ensemble.spec;
  run : jobs:int -> Ensemble.result;
}

type ensemble_table = { title : string; columns : column list; cells : cell list }

(* Split inputs: every ensemble table's sweeps start from them. *)
let split_spec ?(max_windows = 0) ?(max_steps = 0) ?(stop = `All_decided) ~n ~t () =
  { Ensemble.n; t; inputs = Ensemble.split_inputs ~n; max_windows; max_steps; stop }

let windowed_cell ?lint ?lint_quorum ~protocol ~adversary ~runs ~labels spec =
  let entry = Option.get (Adversary.Registry.Windowed.find adversary) in
  let strategy seed = entry.make ~seed in
  let run ~jobs =
    Ensemble.run_windowed ~jobs ?lint ?lint_quorum ~protocol ~strategy ~spec
      ~seeds:(seeds_list runs) ()
  in
  { labels; spec; run }

let stepwise_cell ?lint ?lint_fifo ?lint_quorum ~protocol ~adversary ~runs ~labels spec =
  let entry = Option.get (Adversary.Registry.Stepwise.find adversary) in
  let strategy seed = entry.make ~seed in
  let run ~jobs =
    Ensemble.run_stepwise ~jobs ?lint ?lint_fifo ?lint_quorum ~protocol ~strategy ~spec
      ~seeds:(seeds_list runs) ()
  in
  { labels; spec; run }

let rec column_value spec (r : Ensemble.result) labels column :
    Stats.Table.cell list * Stats.Table.cell =
  let mean s = Stats.Table.F (Stats.Summary.mean s) in
  match column with
  | Label _ -> (List.tl labels, List.hd labels)
  | Renamed (_, column) -> column_value spec r labels column
  | N -> (labels, I spec.Ensemble.n)
  | T -> (labels, I spec.t)
  | Runs -> (labels, I r.runs)
  | Agreement -> (labels, Pct (Ensemble.agreement_rate r))
  | Validity -> (labels, Pct (Ensemble.validity_rate r))
  | Termination -> (labels, Pct (Ensemble.termination_rate r))
  | Mean_windows -> (labels, mean r.windows)
  | Mean_resets -> (labels, mean r.total_resets)
  | Resets_per_t ->
      (labels, F (Stats.Summary.mean r.total_resets /. float_of_int spec.t))
  | Mean_steps -> (labels, mean r.steps)
  | Mean_chain -> (labels, mean r.chain_depth)
  | Violations -> (labels, I r.lint_violations)
  | Clean -> (labels, B (r.lint_violations = 0))

let ensemble_table make ~jobs ~scale =
  let { title; columns; cells } = make scale in
  let table = Stats.Table.create ~title ~columns:(List.map header columns) in
  List.iter
    (fun { labels; spec; run } ->
      let result = run ~jobs in
      Stats.Table.add_row table
        (snd (List.fold_left_map (column_value spec result) labels columns)))
    cells;
  table

(* ------------------------------------------------------------------ *)
(* E0: runtime trace lint — every audited execution must satisfy the   *)
(* engine's structural invariants (FIFO channels, causal depths,       *)
(* provenance, window discipline, decision quorums).                   *)

let e0_trace_lint scale =
  let runs, max_windows, max_steps =
    match scale with
    | `Full -> (20, 2_000, 400_000)
    | `Quick -> (5, 500, 120_000)
  in
  (* Windowed variant runs: FIFO holds (windows deliver ascending ids);
     a deciding processor has census >= T1 = n - 2t distinct senders. *)
  let n = 13 in
  let t = fault_bound_for n in
  let quorum = n - (2 * t) in
  let windowed adversary =
    windowed_cell ~lint:true ~lint_quorum:quorum
      ~protocol:(Protocols.Lewko_variant.protocol ())
      ~adversary ~runs
      ~labels:[ S "lewko-variant"; S "windowed"; S adversary; I quorum; B true ]
      (split_spec ~n ~t ~max_windows ())
  in
  (* Stepwise baselines: Ben-Or needs n - t reports per round, Bracha
     decides at 2t + 1 readies.  The echo chamber defers messages, so
     its channels legitimately reorder: FIFO is waived for that row. *)
  let stepwise protocol ~n ~t ~quorum ~fifo adversary =
    stepwise_cell ~lint:true ~lint_fifo:fifo ~lint_quorum:quorum ~protocol ~adversary
      ~runs
      ~labels:
        [ S protocol.Dsim.Protocol.name; S "stepwise"; S adversary; I quorum; B fifo ]
      (split_spec ~n ~t ~max_steps ~stop:`First_decision ())
  in
  {
    title = "E0: runtime trace lint — invariant violations across audited executions";
    columns =
      [ Label "protocol"; Label "discipline"; Label "adversary"; N; T; Label "quorum";
        Label "fifo"; Runs; Violations; Clean ];
    cells =
      List.map windowed [ "benign"; "balancing"; "reset-targeted" ]
      @ [
          stepwise (Protocols.Ben_or.protocol ()) ~n:7 ~t:3 ~quorum:4 ~fifo:true
            "balancing";
          stepwise (Protocols.Ben_or.protocol ()) ~n:7 ~t:3 ~quorum:4 ~fifo:true
            "crash-late";
          stepwise (Protocols.Bracha.protocol ()) ~n:7 ~t:2 ~quorum:5 ~fifo:true
            "balancing";
          stepwise (Protocols.Bracha.protocol ()) ~n:7 ~t:2 ~quorum:5 ~fifo:false
            "echo-chamber";
        ];
  }

(* ------------------------------------------------------------------ *)
(* E1: Theorem 4 correctness/termination matrix.                       *)

let e1_theorem4_matrix scale =
  let ns, runs =
    match scale with
    | `Full -> ([ 12; 18; 24; 30 ], 120)
    | `Quick -> ([ 12; 18 ], 15)
  in
  let row n adversary =
    windowed_cell ~protocol:(Protocols.Lewko_variant.protocol ()) ~adversary ~runs
      ~labels:[ S adversary ]
      (split_spec ~n ~t:(fault_bound_for n) ~max_windows:20_000 ())
  in
  {
    title = "E1: Theorem 4 — variant algorithm vs strongly adaptive adversaries";
    columns =
      [ N; T; Label "adversary"; Runs; Agreement; Validity; Termination; Mean_windows;
        Mean_resets ];
    cells =
      List.concat_map
        (fun n ->
          List.map (row n)
            [ "benign"; "silence-first-t"; "silence-last-t"; "silence-rotating";
              "reset-rotating"; "reset-random"; "reset-targeted"; "balancing";
              "balance+reset"; "reset+silence"; "split-brain" ])
        ns;
  }

(* ------------------------------------------------------------------ *)
(* E2: exponential running time of the variant under balancing.        *)

let e2_spec ~n = split_spec ~n ~t:1 ~max_windows:400_000 ~stop:`First_decision ()

(* Analytic per-window escape probability: the balancing adversary
   fails only when the census majority reaches T3 + t. *)
let escape_probability ~n ~t =
  let thresholds = Protocols.Thresholds.default ~n ~t in
  let threshold = Adversary.Split_vote.escape_threshold ~n ~t ~thresholds in
  2.0 *. Stats.Tail.majority_success_probability ~n ~threshold

let e2_exponential_variant ?(jobs = 1) ~scale () =
  let ns, seed_count =
    match scale with
    | `Full -> ([ 7; 9; 11; 13; 15; 17; 19; 21 ], 200)
    | `Quick -> ([ 7; 9; 11 ], 30)
  in
  let table =
    Stats.Table.create ~title:"E2: variant under balancing adversary — windows to decision vs n (t = 1)"
      ~columns:
        [ "n"; "runs"; "mean windows"; "ci95"; "p90"; "analytic 1/p"; "log2 mean" ]
  in
  let points = ref [] in
  List.iter
    (fun n ->
      let spec = e2_spec ~n in
      let result =
        Ensemble.run_windowed ~jobs ~protocol:(Protocols.Lewko_variant.protocol ())
          ~strategy:(fun _ -> Adversary.Split_vote.windowed ())
          ~spec ~seeds:(seeds_list seed_count) ()
      in
      let mean = Stats.Summary.mean result.Ensemble.windows in
      points := (float_of_int n, mean) :: !points;
      let p90 =
        if Stats.Histogram.count result.Ensemble.window_histogram = 0 then 0
        else Stats.Histogram.quantile result.Ensemble.window_histogram 0.9
      in
      Stats.Table.add_row table
        [
          I n; I result.Ensemble.runs; F mean;
          F (Stats.Summary.ci95_half_width result.Ensemble.windows);
          I p90;
          F (1.0 /. escape_probability ~n ~t:1);
          F (log mean /. log 2.0);
        ])
    ns;
  let fit = Stats.Regression.log2_linear (List.rev !points) in
  (table, fit)

let e2_survival ?(jobs = 1) ~scale () =
  let n, seed_count = match scale with `Full -> (13, 400) | `Quick -> (9, 60) in
  let spec = e2_spec ~n in
  let result =
    Ensemble.run_windowed ~jobs ~protocol:(Protocols.Lewko_variant.protocol ())
      ~strategy:(fun _ -> Adversary.Split_vote.windowed ())
      ~spec ~seeds:(seeds_list seed_count) ()
  in
  let table =
    Stats.Table.create
      ~title:(Printf.sprintf "E2 (series): survival P[windows > k], n = %d, t = 1" n)
      ~columns:[ "k"; "P[windows > k]" ]
  in
  let survival = Stats.Histogram.survival result.Ensemble.window_histogram in
  (* Thin the series to at most ~20 rows. *)
  let len = List.length survival in
  let stride = max 1 (len / 20) in
  List.iteri
    (fun i (k, p) -> if i mod stride = 0 || i = len - 1 then
        Stats.Table.add_row table [ I k; F p ])
    survival;
  table

(* ------------------------------------------------------------------ *)
(* E3: baselines under balancing schedules.                            *)

let e3_baselines scale =
  let ben_or_ns, bracha_ns, runs =
    match scale with
    | `Full -> ([ 5; 7; 9; 11 ], [ 4; 7; 10 ], 80)
    | `Quick -> ([ 5; 7 ], [ 4; 7 ], 15)
  in
  let cell protocol model adversary ~n ~t =
    stepwise_cell ~protocol ~adversary ~runs
      ~labels:[ S protocol.Dsim.Protocol.name; S model; S adversary ]
      (split_spec ~n ~t ~max_steps:6_000_000 ~stop:`First_decision ())
  in
  let bracha = Protocols.Bracha.protocol () in
  {
    title = "E3: baselines under adversarial schedules — growth with n";
    columns =
      [ Label "protocol"; Label "model"; Label "strategy"; N; T; Runs; Termination;
        Mean_steps; Mean_chain ];
    cells =
      List.map
        (fun n ->
          cell (Protocols.Ben_or.protocol ()) "crash" "balancing" ~n ~t:(max 1 ((n - 1) / 2)))
        ben_or_ns
      @ List.concat_map
          (fun n ->
            let t = max 1 ((n - 1) / 3) in
            [ cell bracha "byzantine" "balancing" ~n ~t;
              cell bracha "byzantine" "echo-chamber" ~n ~t ])
          bracha_ns;
  }

(* ------------------------------------------------------------------ *)
(* E4: Talagrand / Lemma 9 numerics.                                   *)

let e4_talagrand ~scale =
  let configs =
    match scale with
    | `Full ->
        [ (16, `Exact); (20, `Exact); (64, `Mc); (128, `Mc) ]
    | `Quick -> [ (16, `Exact); (64, `Mc) ]
  in
  let table =
    Stats.Table.create ~title:"E4: Lemma 9 — P(A)(1 - P(B(A,d))) vs exp(-d^2/4n)"
      ~columns:[ "n"; "mode"; "set A"; "d"; "P[A]"; "P[B(A,d)]"; "lhs"; "bound"; "holds" ]
  in
  List.iter
    (fun (n, mode) ->
      let space = Lowerbound.Product.uniform_bits ~n in
      let sets =
        [
          (Printf.sprintf "weight>=%d" ((n / 2) + (n / 8)),
           Lowerbound.Talagrand.Weight_ge ((n / 2) + (n / 8)));
          (Printf.sprintf "weight>=%d" ((3 * n) / 4),
           Lowerbound.Talagrand.Weight_ge ((3 * n) / 4));
          ("ball(0,n/8)",
           Lowerbound.Talagrand.Ball { center = Array.make n 0; radius = n / 8 });
        ]
      in
      let ds = [ n / 8; n / 4; (3 * n) / 8; n / 2 ] in
      List.iter
        (fun (set_name, set) ->
          List.iter
            (fun d ->
              let samples = match mode with `Exact -> 1 | `Mc -> 200_000 in
              let check =
                Lowerbound.Talagrand.check ~samples ~seed:(n + d) space set ~d
              in
              Stats.Table.add_row table
                [
                  I n;
                  S (match mode with `Exact -> "exact" | `Mc -> "mc");
                  S set_name; I d;
                  F check.Lowerbound.Talagrand.p_a;
                  F check.Lowerbound.Talagrand.p_expansion;
                  F check.Lowerbound.Talagrand.lhs;
                  F check.Lowerbound.Talagrand.bound;
                  B check.Lowerbound.Talagrand.holds;
                ])
            ds)
        sets)
    configs;
  table

(* ------------------------------------------------------------------ *)
(* E5: Lemma 14 interpolation sweep.                                   *)

let e5_interpolation ~scale =
  (* Parameters chosen so eta is meaningfully small and the crossing
     index is interior: t just under the set gap, strongly biased
     endpoint distributions. *)
  let n, samples = match scale with `Full -> (64, 60_000) | `Quick -> (48, 20_000) in
  let k0 = (n / 2) - (n / 6) and k1 = (n / 2) + (n / 6) in
  let t = k1 - k0 - 1 in
  let z0 = Lowerbound.Talagrand.Weight_le k0 in
  let z1 = Lowerbound.Talagrand.Weight_ge k1 in
  let pi0 = Lowerbound.Product.bernoulli (Array.make n 0.2) in
  let pi_n = Lowerbound.Product.bernoulli (Array.make n 0.8) in
  let result = Lowerbound.Interpolation.sweep ~samples ~pi0 ~pi_n ~z0 ~z1 ~t () in
  let table =
    Stats.Table.create
      ~title:
        (Printf.sprintf
           "E5: Lemma 14 hybrids (n = %d, t = %d, Z0 = weight<=%d, Z1 = weight>=%d, eta = %.3f, j* = %d, conclusion holds = %b)"
           n t k0 k1 result.Lowerbound.Interpolation.eta
           result.Lowerbound.Interpolation.j_star
           result.Lowerbound.Interpolation.conclusion_holds)
      ~columns:[ "j"; "P_pij[Z0]"; "P_pij[Z1]" ]
  in
  let stride = max 1 (n / 10) in
  List.iter
    (fun point ->
      let j = point.Lowerbound.Interpolation.j in
      if j mod stride = 0 || j = result.Lowerbound.Interpolation.j_star || j = n then
        Stats.Table.add_row table
          [
            I j;
            F point.Lowerbound.Interpolation.p_z0;
            F point.Lowerbound.Interpolation.p_z1;
          ])
    result.Lowerbound.Interpolation.curve;
  table

(* ------------------------------------------------------------------ *)
(* E5b: Z^k probes on real configurations.                             *)

let e5b_zk_sets ~scale =
  let separations, member_samples =
    match scale with
    | `Full -> ([ (7, 1); (13, 2) ], 12)
    | `Quick -> ([ (7, 1) ], 6)
  in
  let table =
    Stats.Table.create ~title:"E5b: Z^k probes on the variant algorithm"
      ~columns:[ "probe"; "n"; "t"; "detail"; "result" ]
  in
  let protocol = Protocols.Lewko_variant.protocol () in
  let describe sep =
    Printf.sprintf "min distance %s over %d pairs (bound t = %d)"
      (if sep.Lowerbound.Zk_sets.min_distance = max_int then "-"
       else string_of_int sep.Lowerbound.Zk_sets.min_distance)
      sep.Lowerbound.Zk_sets.pairs_checked sep.Lowerbound.Zk_sets.bound
  in
  List.iter
    (fun (n, t) ->
      let sep =
        Lowerbound.Zk_sets.estimate_z0_separation ~protocol ~n ~t ~runs:60 ~seed:17
      in
      Stats.Table.add_row table
        [
          S "Z0 separation (Lemma 11)"; I n; I t; S (describe sep);
          B sep.Lowerbound.Zk_sets.holds;
        ])
    separations;
  (* Lemma 13 at level k = 1: sampled Z^1 buckets stay separated. *)
  let sep1 =
    Lowerbound.Zk_sets.estimate_zk_separation ~protocol ~n:7 ~t:1 ~k:1 ~runs:30
      ~samples:member_samples ~seed:29
  in
  Stats.Table.add_row table
    [
      S "Z1 separation (Lemma 13)"; I 7; I 1; S (describe sep1);
      B sep1.Lowerbound.Zk_sets.holds;
    ];
  (* Z^1 membership of initial configurations. *)
  let n = 7 and t = 1 in
  let tau = Stats.Tail.tau ~n ~t in
  let rng = Prng.Stream.root 23 in
  let membership inputs value =
    let config =
      Dsim.Engine.init ~protocol ~n ~fault_bound:t ~inputs ~seed:5 ()
    in
    Lowerbound.Zk_sets.member config ~k:1 ~value ~samples:member_samples ~tau ~rng
  in
  let all_zero = Array.make n false and all_one = Array.make n true in
  let split = Array.init n (fun i -> i mod 2 = 0) in
  let check name inputs value expected =
    let got = membership inputs value in
    Stats.Table.add_row table
      [
        S "Z^1 membership"; I n; I t;
        S
          (Printf.sprintf "%s in Z^1_%d: got %b, expect %b" name
             (if value then 1 else 0)
             got expected);
        B (got = expected);
      ]
  in
  check "all-zero inputs" all_zero false true;
  check "all-zero inputs" all_zero true false;
  check "all-one inputs" all_one true true;
  check "all-one inputs" all_one false false;
  check "split inputs" split false false;
  check "split inputs" split true false;
  table

(* ------------------------------------------------------------------ *)
(* E6: Theorem 5 constants.                                            *)

let e6_theory_constants ~scale =
  let cs = [ 1.0 /. 6.0; 1.0 /. 12.0; 1.0 /. 24.0 ] in
  let ns =
    match scale with
    | `Full -> [ 64; 256; 1024; 4096; 16384 ]
    | `Quick -> [ 64; 1024 ]
  in
  let table =
    Stats.Table.create
      ~title:"E6: Theorem 5 constants — guaranteed windows E(n) = C e^{alpha n}"
      ~columns:
        [ "c"; "alpha"; "crossover n"; "n"; "log2 E(n)"; "success prob >="; "(3) holds" ]
  in
  List.iter
    (fun c ->
      let k = Lowerbound.Theory.derive ~c in
      List.iter
        (fun n ->
          Stats.Table.add_row table
            [
              F c; F k.Lowerbound.Theory.alpha;
              F (Lowerbound.Theory.crossover_n k);
              I n;
              F (Lowerbound.Theory.log_windows k ~n /. log 2.0);
              F (Lowerbound.Theory.success_probability_lower_bound k ~n);
              B (Lowerbound.Theory.exponent_inequality_holds k ~n);
            ])
        ns)
    cs;
  table

(* ------------------------------------------------------------------ *)
(* E7: reset resilience.                                               *)

let e7_reset_resilience scale =
  let runs = match scale with `Full -> 100 | `Quick -> 15 in
  let row (n, t) adversary =
    windowed_cell ~protocol:(Protocols.Lewko_variant.protocol ()) ~adversary ~runs
      ~labels:[ S adversary ]
      (split_spec ~n ~t ~max_windows:50_000 ())
  in
  {
    title = "E7: cumulative resets absorbed (t per window) while staying correct";
    columns =
      [ N; T; Label "adversary"; Runs; Agreement; Termination; Mean_windows;
        Renamed ("mean total resets", Mean_resets); Resets_per_t ];
    cells =
      List.concat_map
        (fun size ->
          List.map (row size)
            [ "reset-rotating"; "reset-random"; "reset-targeted"; "balance+reset" ])
        [ (13, 2); (19, 3) ];
  }

(* ------------------------------------------------------------------ *)
(* E8: forgetful / fully-communicative class and chain lengths.        *)

let e8_forgetful_class ?(jobs = 1) ~scale () =
  let seeds, windows_per_run, chain_ns, chain_seeds =
    match scale with
    | `Full -> ([ 1; 2; 3; 4; 5 ], 25, [ 5; 7; 9; 11 ], 60)
    | `Quick -> ([ 1; 2 ], 12, [ 5; 7 ], 12)
  in
  let table =
    Stats.Table.create ~title:"E8: Definitions 15/16 classification and Theorem 17 setting"
      ~columns:[ "row"; "protocol"; "detail"; "ok" ]
  in
  let classify name protocol ~n ~t =
    let report = Protocols.Classifier.check protocol ~n ~t ~seeds ~windows_per_run in
    let show verdict =
      match verdict with
      | Protocols.Classifier.No_counterexample k ->
          Printf.sprintf "no counterexample (%d checks)" k
      | Protocols.Classifier.Counterexample _ -> "counterexample found"
    in
    Stats.Table.add_row table
      [
        S "class"; S name;
        S
          (Printf.sprintf "forgetful: declared %b, %s; fully-comm: declared %b, %s"
             report.Protocols.Classifier.declared_forgetful
             (show report.Protocols.Classifier.forgetful)
             report.Protocols.Classifier.declared_fully_communicative
             (show report.Protocols.Classifier.fully_communicative));
        B (Protocols.Classifier.consistent report);
      ]
  in
  classify "lewko-variant" (Protocols.Lewko_variant.protocol ()) ~n:13 ~t:2;
  classify "ben-or" (Protocols.Ben_or.protocol ()) ~n:9 ~t:2;
  classify "bracha" (Protocols.Bracha.protocol ()) ~n:7 ~t:2;
  (* Chain-length growth for the forgetful, fully communicative Ben-Or
     under crash balancing — the quantity Theorem 17 lower-bounds. *)
  List.iter
    (fun n ->
      let t = max 1 ((n - 1) / 2) in
      let result =
        Ensemble.run_stepwise ~jobs ~protocol:(Protocols.Ben_or.protocol ())
          ~strategy:(fun _ -> Adversary.Split_vote.stepwise ())
          ~spec:(split_spec ~n ~t ~max_steps:6_000_000 ~stop:`First_decision ())
          ~seeds:(seeds_list chain_seeds) ()
      in
      Stats.Table.add_row table
        [
          S "chain-length"; S "ben-or";
          S
            (Printf.sprintf "n=%d t=%d mean chain %.1f (term %.0f%%)" n t
               (Stats.Summary.mean result.Ensemble.chain_depth)
               (100.0 *. Ensemble.termination_rate result));
          B (Ensemble.agreement_rate result = 1.0);
        ])
    chain_ns;
  table

(* ------------------------------------------------------------------ *)
(* E9: committee algorithm contrast.                                   *)

let e9_committee ~scale =
  let ns, trials =
    match scale with
    | `Full -> ([ 64; 128; 256; 512 ], 60)
    | `Quick -> ([ 64; 128 ], 12)
  in
  let fractions = [ 0.0; 0.1; 0.2; 0.3 ] in
  let table =
    Stats.Table.create
      ~title:"E9: committee algorithm — polylog rounds, non-zero error, adaptive attack"
      ~columns:
        [ "n"; "inputs"; "corrupt frac"; "adaptive"; "trials"; "mean rounds";
          "mean levels"; "hijack rate"; "invalid rate" ]
  in
  let run_cell ~n ~inputs_kind ~fraction ~adaptive =
    let rounds = ref Stats.Summary.empty and levels = ref Stats.Summary.empty in
    let hijacks = ref 0 and invalids = ref 0 in
    for trial = 1 to trials do
      let seed = (n * 1000) + trial in
      let rng = Prng.Stream.root seed in
      let corrupt_count = int_of_float (fraction *. float_of_int n) in
      let corrupt = Prng.Stream.sample_without_replacement rng corrupt_count n in
      let inputs =
        match inputs_kind with
        | `Split -> Array.init n (fun i -> (i + trial) mod 2 = 0)
        | `Unanimous -> Array.make n (trial mod 2 = 0)
      in
      let params =
        { (Protocols.Committee.default_params ~n ~seed) with adaptive_attack = adaptive }
      in
      let report = Protocols.Committee.run params ~n ~corrupt ~inputs in
      rounds := Stats.Summary.add_int !rounds report.Protocols.Committee.rounds;
      levels := Stats.Summary.add_int !levels report.Protocols.Committee.levels;
      if report.Protocols.Committee.hijacked then incr hijacks;
      if not report.Protocols.Committee.valid then incr invalids
    done;
    Stats.Table.add_row table
      [
        I n;
        S (match inputs_kind with `Split -> "split" | `Unanimous -> "unanimous");
        Pct fraction; B adaptive; I trials;
        F (Stats.Summary.mean !rounds);
        F (Stats.Summary.mean !levels);
        Pct (float_of_int !hijacks /. float_of_int trials);
        Pct (float_of_int !invalids /. float_of_int trials);
      ]
  in
  List.iter
    (fun n ->
      List.iter
        (fun fraction -> run_cell ~n ~inputs_kind:`Split ~fraction ~adaptive:false)
        fractions;
      (* Unanimous inputs: a hijacked final committee now produces an
         outright invalid decision, not merely a dictated one. *)
      run_cell ~n ~inputs_kind:`Unanimous ~fraction:0.2 ~adaptive:false;
      run_cell ~n ~inputs_kind:`Split ~fraction:0.1 ~adaptive:true;
      run_cell ~n ~inputs_kind:`Unanimous ~fraction:0.1 ~adaptive:true)
    ns;
  table

(* ------------------------------------------------------------------ *)
(* E10: ablations — threshold choice and adversary strength.           *)

let e10_ablations scale =
  let runs = match scale with `Full -> 150 | `Quick -> 20 in
  let cell ~ablation ~n ~t ~setting ~protocol adversary =
    windowed_cell ~protocol ~adversary ~runs
      ~labels:[ S ablation; S setting ]
      (split_spec ~n ~t ~max_windows:100_000 ())
  in
  (* Threshold ablation: the paper notes that a smaller T2 (possible
     when t is small) improves running time.  The relaxed triple also
     lowers T3, which weakens the balancing adversary's grip. *)
  let thresholds (n, t) =
    [
      cell ~ablation:"thresholds" ~n ~t ~setting:"default (T2 = T1 = n-2t)"
        ~protocol:(Protocols.Lewko_variant.protocol ())
        "balancing";
      cell ~ablation:"thresholds" ~n ~t ~setting:"relaxed (T3 = n/2+1, T2 = T3+t)"
        ~protocol:
          (Protocols.Lewko_variant.protocol
             ~thresholds:(Protocols.Thresholds.relaxed ~n ~t) ())
        "balancing";
    ]
  in
  (* Adversary ablation: the exponential effect needs an adversary —
     random silencing of t senders is *not* adversarial enough. *)
  let adversary (setting, name) =
    cell ~ablation:"adversary" ~n:13 ~t:2 ~setting
      ~protocol:(Protocols.Lewko_variant.protocol ())
      name
  in
  {
    title = "E10: ablations — thresholds (T2 = T1 vs relaxed) and adversary strength";
    columns =
      [ Label "ablation"; N; T; Label "setting"; Runs; Agreement; Termination;
        Mean_windows ];
    cells =
      (* Small t relative to n: that is where the relaxed triple actually
         differs (at maximal t, n - 3t is already a bare majority). *)
      List.concat_map thresholds [ (13, 1); (19, 2) ]
      @ List.map adversary
          [
            ("benign", "benign");
            ("random silencing", "silence-random");
            ("balancing", "balancing");
            ("balancing + resets", "balance+reset");
            ("lookahead (proof-style)", "lookahead");
          ];
  }

(* ------------------------------------------------------------------ *)
(* E11: the synchronous coin-killing game (Bar-Joseph & Ben-Or [6]).   *)

let e11_synchronous ~scale =
  let ns, seed_count =
    match scale with
    | `Full -> ([ 32; 64; 128; 256 ], 150)
    | `Quick -> ([ 32; 64 ], 25)
  in
  let table =
    Stats.Table.create
      ~title:
        "E11: synchronous consensus vs adaptive crash adversary — rounds track t/sqrt(n log n) ([6])"
      ~columns:
        [ "n"; "t"; "adversary"; "runs"; "agreement"; "termination"; "mean rounds";
          "mean crashes used"; "rounds / (t/sqrt(n ln n))" ]
  in
  let run_cell ~n ~t ~name ~adversary =
    let rounds = ref Stats.Summary.empty and crashes = ref Stats.Summary.empty in
    let agreements = ref 0 and terminations = ref 0 in
    for seed = 1 to seed_count do
      let inputs = Array.init n (fun i -> (i + seed) mod 2 = 0) in
      let outcome =
        Syncsim.Sync_engine.run ~protocol:Syncsim.Sync_consensus.protocol ~n ~t ~inputs
          ~seed ~adversary:(adversary ()) ~max_rounds:100_000
      in
      rounds := Stats.Summary.add_int !rounds outcome.Syncsim.Sync_engine.rounds;
      crashes := Stats.Summary.add_int !crashes outcome.Syncsim.Sync_engine.crashes_used;
      if not outcome.Syncsim.Sync_engine.conflict then incr agreements;
      if outcome.Syncsim.Sync_engine.terminated then incr terminations
    done;
    let theory = float_of_int t /. sqrt (float_of_int n *. log (float_of_int n)) in
    Stats.Table.add_row table
      [
        I n; I t; S name; I seed_count;
        Pct (float_of_int !agreements /. float_of_int seed_count);
        Pct (float_of_int !terminations /. float_of_int seed_count);
        F (Stats.Summary.mean !rounds);
        F (Stats.Summary.mean !crashes);
        F (Stats.Summary.mean !rounds /. theory);
      ]
  in
  List.iter
    (fun n ->
      let t = n / 4 in
      run_cell ~n ~t ~name:"none" ~adversary:(fun () -> Syncsim.Sync_engine.no_faults);
      run_cell ~n ~t ~name:"crash-early" ~adversary:Syncsim.Sync_adversary.crash_early;
      run_cell ~n ~t ~name:"coin-killing" ~adversary:Syncsim.Sync_adversary.balancing)
    ns;
  table

(* ------------------------------------------------------------------ *)
(* E12: shared-memory counter-race coin (Aspnes [3]; Attiya-Censor [5]) *)

let e12_shared_memory ~scale =
  let ns, seed_count =
    match scale with
    | `Full -> ([ 8; 16; 32; 64 ], 100)
    | `Quick -> ([ 8; 16 ], 20)
  in
  let table =
    Stats.Table.create
      ~title:
        "E12: shared-memory counter-race coin — total steps scale as n^2 ([3,5]), agreement despite scheduling"
      ~columns:
        [ "n"; "scheduler"; "runs"; "agreement"; "mean total steps"; "steps / n^2";
          "mean |sum| peak" ]
  in
  let run_cell ~n ~name ~scheduler =
    let steps = ref Stats.Summary.empty and peaks = ref Stats.Summary.empty in
    let agreements = ref 0 in
    for seed = 1 to seed_count do
      let result =
        Shmem.Shared_coin.run ~n ~threshold_factor:1.0 ~seed ~scheduler
          ~max_steps:(3_000 * n * n) ()
      in
      steps := Stats.Summary.add_int !steps result.Shmem.Shared_coin.total_steps;
      peaks := Stats.Summary.add_int !peaks result.Shmem.Shared_coin.max_abs_sum;
      if result.Shmem.Shared_coin.agreed then incr agreements
    done;
    Stats.Table.add_row table
      [
        I n; S name; I seed_count;
        Pct (float_of_int !agreements /. float_of_int seed_count);
        F (Stats.Summary.mean !steps);
        F (Stats.Summary.mean !steps /. float_of_int (n * n));
        F (Stats.Summary.mean !peaks);
      ]
  in
  List.iter
    (fun n ->
      run_cell ~n ~name:"round-robin" ~scheduler:Shmem.Shared_coin.Round_robin;
      run_cell ~n ~name:"random" ~scheduler:(Shmem.Shared_coin.Random 7);
      run_cell ~n ~name:"stalling" ~scheduler:Shmem.Shared_coin.Stalling)
    ns;
  table

(* ------------------------------------------------------------------ *)
(* E15: shared-memory consensus over the counter-race coin ([3,5]).    *)

let e15_sm_consensus ~scale =
  let ns, seed_count =
    match scale with
    | `Full -> ([ 8; 16; 32 ], 80)
    | `Quick -> ([ 8; 16 ], 15)
  in
  let table =
    Stats.Table.create
      ~title:
        "E15: wait-free shared-memory consensus (Aspnes-Herlihy rounds over the counter-race coin)"
      ~columns:
        [ "n"; "scheduler"; "runs"; "agreement"; "validity"; "termination";
          "mean rounds"; "mean coin rounds"; "mean total steps"; "steps / n^2" ]
  in
  let run_cell ~n ~name ~scheduler =
    let rounds = ref Stats.Summary.empty
    and coins = ref Stats.Summary.empty
    and steps = ref Stats.Summary.empty in
    let agreements = ref 0 and validities = ref 0 and terminations = ref 0 in
    for seed = 1 to seed_count do
      let inputs = Array.init n (fun i -> (i + seed) mod 2 = 0) in
      let r =
        Shmem.Sm_consensus.run ~n ~inputs ~seed ~scheduler
          ~max_steps:(50_000 * n * n) ()
      in
      rounds := Stats.Summary.add_int !rounds r.Shmem.Sm_consensus.rounds;
      coins := Stats.Summary.add_int !coins r.Shmem.Sm_consensus.coin_rounds;
      steps := Stats.Summary.add_int !steps r.Shmem.Sm_consensus.total_steps;
      if r.Shmem.Sm_consensus.agreed then incr agreements;
      if r.Shmem.Sm_consensus.valid then incr validities;
      if Array.for_all (fun o -> o <> None) r.Shmem.Sm_consensus.outputs then
        incr terminations
    done;
    let frac k = float_of_int !k /. float_of_int seed_count in
    Stats.Table.add_row table
      [
        I n; S name; I seed_count;
        Pct (frac agreements); Pct (frac validities); Pct (frac terminations);
        F (Stats.Summary.mean !rounds);
        F (Stats.Summary.mean !coins);
        F (Stats.Summary.mean !steps);
        F (Stats.Summary.mean !steps /. float_of_int (n * n));
      ]
  in
  List.iter
    (fun n ->
      run_cell ~n ~name:"round-robin" ~scheduler:Shmem.Shared_coin.Round_robin;
      run_cell ~n ~name:"random" ~scheduler:(Shmem.Shared_coin.Random 5);
      run_cell ~n ~name:"stalling" ~scheduler:Shmem.Shared_coin.Stalling)
    ns;
  table

(* ------------------------------------------------------------------ *)
(* E13: the Attiya-Censor termination tail ([4]).                      *)

let e13_termination_tail ?(jobs = 1) ~scale () =
  let n, t, seed_count =
    match scale with `Full -> (9, 4, 400) | `Quick -> (7, 3, 60)
  in
  (* Survival of the step count in units of (n - t), the scale at which
     [4] lower-bounds the non-termination probability by 1/c^k. *)
  let unit = n - t in
  let survival_points = ref [] in
  let steps_of seed =
    let inputs = Ensemble.split_inputs ~n seed in
    let config =
      Dsim.Engine.init ~protocol:(Protocols.Ben_or.protocol ()) ~n ~fault_bound:t
        ~inputs ~seed ()
    in
    let outcome =
      Dsim.Runner.run_steps config
        ~strategy:(Adversary.Split_vote.stepwise ())
        ~max_steps:10_000_000 ~stop:`First_decision
    in
    outcome.Dsim.Runner.steps
  in
  (* Parallelizes through Histogram.merge: one singleton histogram per
     seed, reduced exactly, so -j does not move a single bucket. *)
  let histogram =
    Par_sweep.map_reduce ~jobs ~merge:Stats.Histogram.merge
      ~init:(Stats.Histogram.empty ())
      ~f:(fun seed ->
        let h = Stats.Histogram.create ~bucket_width:unit () in
        Stats.Histogram.add h (steps_of seed);
        h)
      (Array.of_list (seeds_list seed_count))
  in
  let survival = Stats.Histogram.survival histogram in
  let len = List.length survival in
  let stride = max 1 (len / 18) in
  List.iteri
    (fun i (bucket, p) ->
      if (i mod stride = 0 || i = len - 1) && p > 0.0 then
        survival_points := (float_of_int (bucket / unit), p) :: !survival_points)
    survival;
  let fit =
    match !survival_points with
    | _ :: _ :: _ -> Some (Stats.Regression.log2_linear (List.rev !survival_points))
    | _ -> None
  in
  let table =
    Stats.Table.create
      ~title:
        (Printf.sprintf
           "E13: Attiya-Censor tail ([4]) — P[steps > k(n-t)] for Ben-Or under balancing, n = %d, t = %d%s"
           n t
           (match fit with
           | Some f ->
               Printf.sprintf " (log2 P ~ %.4f k, r^2 = %.3f => c ~ %.4f)"
                 f.Stats.Regression.slope f.Stats.Regression.r_squared
                 (2.0 ** -.f.Stats.Regression.slope)
           | None -> ""))
      ~columns:[ "k (steps / (n-t))"; "P[steps > k(n-t)]" ]
  in
  List.iteri
    (fun i (bucket, p) ->
      if i mod stride = 0 || i = len - 1 then
        Stats.Table.add_row table [ I (bucket / unit); F p ])
    survival;
  table

(* ------------------------------------------------------------------ *)
(* E14: reset fragility of the baselines.                              *)

let e14_reset_fragility scale =
  let runs, max_windows =
    match scale with `Full -> (80, 3_000) | `Quick -> (10, 600)
  in
  let spec = split_spec ~n:13 ~t:2 ~max_windows () in
  let cell protocol adversary =
    windowed_cell ~protocol ~adversary ~runs
      ~labels:[ S protocol.Dsim.Protocol.name; S adversary ]
      spec
  in
  {
    title =
      "E14: resets without a re-join procedure — the variant's recovery (Sec. 3, \
       'handling resets') is load-bearing";
    columns =
      [ Label "protocol"; Label "adversary"; N; T; Runs; Agreement; Termination;
        Renamed ("mean windows (terminated)", Mean_windows); Mean_resets ];
    cells =
      List.concat_map
        (fun adversary ->
          [ cell (Protocols.Lewko_variant.protocol ()) adversary;
            cell (Protocols.Ben_or.protocol ()) adversary;
            cell (Protocols.Bracha.protocol ()) adversary ])
        [ "benign"; "reset-rotating"; "reset-random" ];
  }

(* ------------------------------------------------------------------ *)
(* E16: bounded exhaustive model checking — safety proved, not         *)
(* sampled, on small instances; mutants falsified with minimal         *)
(* counterexamples.                                                    *)

let e16_modelcheck ?(jobs = 1) ~scale () =
  let table =
    Stats.Table.create
      ~title:
        "E16: bounded model checking — exhaustive window-schedule \
         exploration (clean = zero violations within the bounds; mutants \
         MUST violate)"
      ~columns:
        [ "model"; "mode"; "n"; "t"; "corrupt"; "depth"; "states";
          "candidates"; "sym-collapsed"; "violations"; "min-depth"; "clean" ]
  in
  let explore name ~n ~t ~corrupt ~depth =
    let model = Option.get (Mcheck.Model.find name) in
    let opts =
      {
        (Mcheck.Model.options model ~n ~t) with
        Mcheck.Explore.depth;
        corrupt;
        jobs;
      }
    in
    let r = Mcheck.Model.run model opts in
    Stats.Table.add_row table
      [
        S name; S "explore"; I n; I t; I corrupt; I depth;
        I r.Mcheck.Explore.total_states; I r.Mcheck.Explore.total_candidates;
        I r.Mcheck.Explore.total_symmetry_hits;
        I r.Mcheck.Explore.violations_total;
        (match r.Mcheck.Explore.violations with
        | [] -> S "-"
        | v :: _ -> I v.Mcheck.Explore.vdepth);
        B (r.Mcheck.Explore.violations_total = 0);
      ]
  in
  (* The Bracha all-quorums-at-t mutant's minimal counterexample needs 9
     windows (3 phases x 3 reliable-broadcast hops) — past the
     exhaustive horizon, so it is re-validated by deterministic replay
     of the pinned equivocation schedule (see test_mcheck.ml). *)
  let replay name ~schedule ~inputs ~corrupt =
    let model = Option.get (Mcheck.Model.find name) in
    let n = Array.length inputs in
    let opts =
      { (Mcheck.Model.options model ~n ~t:1) with Mcheck.Explore.corrupt }
    in
    let report = Mcheck.Model.replay model opts ~inputs schedule in
    let violated =
      report.Mcheck.Explore.conflict
      || report.Mcheck.Explore.audit_violations <> []
    in
    Stats.Table.add_row table
      [
        S name; S "replay"; I n; I 1; I corrupt;
        I (Array.length schedule); I (Array.length schedule + 1); I 0; I 0;
        I (if violated then 1 else 0);
        (if violated then I (Array.length schedule) else S "-");
        B (not violated);
      ]
  in
  let depth_sound, depth_lewko =
    match scale with `Full -> (4, 6) | `Quick -> (3, 4)
  in
  explore "bracha" ~n:3 ~t:1 ~corrupt:0 ~depth:depth_sound;
  explore "ben-or" ~n:3 ~t:1 ~corrupt:0 ~depth:depth_sound;
  explore "rbc" ~n:3 ~t:1 ~corrupt:0 ~depth:depth_sound;
  explore "lewko" ~n:3 ~t:0 ~corrupt:0 ~depth:depth_lewko;
  explore "ben-or!quorum-1" ~n:3 ~t:1 ~corrupt:1 ~depth:2;
  explore "rbc!quorum-t" ~n:3 ~t:1 ~corrupt:1 ~depth:3;
  let equivocate = Array.make 9 3 in
  replay "bracha!quorum-t" ~schedule:equivocate
    ~inputs:[| false; true; false |] ~corrupt:1;
  replay "bracha" ~schedule:equivocate ~inputs:[| false; true; false |]
    ~corrupt:1;
  table

(* ------------------------------------------------------------------ *)

let e2_with_fit ~jobs ~scale =
  let e2_table, e2_fit = e2_exponential_variant ~jobs ~scale () in
  let fit_note =
    Stats.Table.create ~title:"E2 (fit): log2(mean windows) vs n"
      ~columns:[ "slope (bits/processor)"; "intercept"; "r^2" ]
  in
  Stats.Table.add_row fit_note
    [
      F e2_fit.Stats.Regression.slope;
      F e2_fit.Stats.Regression.intercept;
      F e2_fit.Stats.Regression.r_squared;
    ];
  (e2_table, fit_note)

(* Experiments that sweep seed ensembles take [jobs]; the purely
   numeric ones ignore it. *)
let generators : (string * (jobs:int -> scale:scale -> Stats.Table.t)) list =
  [
    ("E0-lint", ensemble_table e0_trace_lint);
    ("E1", ensemble_table e1_theorem4_matrix);
    ("E2", fun ~jobs ~scale -> fst (e2_with_fit ~jobs ~scale));
    ("E2-fit", fun ~jobs ~scale -> snd (e2_with_fit ~jobs ~scale));
    ("E2-survival", fun ~jobs ~scale -> e2_survival ~jobs ~scale ());
    ("E3", ensemble_table e3_baselines);
    ("E4", fun ~jobs:_ ~scale -> e4_talagrand ~scale);
    ("E5", fun ~jobs:_ ~scale -> e5_interpolation ~scale);
    ("E5b", fun ~jobs:_ ~scale -> e5b_zk_sets ~scale);
    ("E6", fun ~jobs:_ ~scale -> e6_theory_constants ~scale);
    ("E7", ensemble_table e7_reset_resilience);
    ("E8", fun ~jobs ~scale -> e8_forgetful_class ~jobs ~scale ());
    ("E9", fun ~jobs:_ ~scale -> e9_committee ~scale);
    ("E10", ensemble_table e10_ablations);
    ("E11", fun ~jobs:_ ~scale -> e11_synchronous ~scale);
    ("E12", fun ~jobs:_ ~scale -> e12_shared_memory ~scale);
    ("E13", fun ~jobs ~scale -> e13_termination_tail ~jobs ~scale ());
    ("E14", ensemble_table e14_reset_fragility);
    ("E15", fun ~jobs:_ ~scale -> e15_sm_consensus ~scale);
    ("E16", fun ~jobs ~scale -> e16_modelcheck ~jobs ~scale ());
  ]

let selected ?(jobs = 1) ~scale ~ids () =
  (* E2 and E2-fit come from the same sweep; compute it once when both
     are requested. *)
  let wanted id = ids = [] || List.mem id ids in
  let e2_pair = lazy (e2_with_fit ~jobs ~scale) in
  List.filter_map
    (fun (id, generate) ->
      if not (wanted id) then None
      else
        match id with
        | "E2" -> Some (id, fst (Lazy.force e2_pair))
        | "E2-fit" -> Some (id, snd (Lazy.force e2_pair))
        | _ -> Some (id, generate ~jobs ~scale))
    generators

let all ?jobs ~scale () = selected ?jobs ~scale ~ids:[] ()

let experiment_ids = List.map fst generators

let render_markdown tables =
  tables
  |> List.map (fun (id, table) ->
         Printf.sprintf "### %s\n\n```\n%s```\n" id (Stats.Table.to_string table))
  |> String.concat "\n"
