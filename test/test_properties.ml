(* Property-based tests (qcheck) on the library's core invariants. *)

let to_alcotest = Test_seed.to_alcotest

(* --- randomness --- *)

let prop_int_below_in_range =
  QCheck.Test.make ~count:200 ~name:"int_below stays in range"
    QCheck.(pair (int_bound 1_000_000) small_int)
    (fun (bound, seed) ->
      let bound = bound + 1 in
      let s = Prng.Stream.root seed in
      let v = Prng.Stream.int_below s bound in
      v >= 0 && v < bound)

let prop_sample_without_replacement =
  QCheck.Test.make ~count:100 ~name:"sampling yields k distinct in-range values"
    QCheck.(pair (int_bound 20) small_int)
    (fun (n, seed) ->
      let n = n + 1 in
      let s = Prng.Stream.root seed in
      let k = Prng.Stream.int_below s (n + 1) in
      let sample = Prng.Stream.sample_without_replacement s k n in
      List.length sample = k
      && List.length (List.sort_uniq compare sample) = k
      && List.for_all (fun v -> v >= 0 && v < n) sample)

(* --- statistics --- *)

let prop_summary_merge =
  QCheck.Test.make ~count:100 ~name:"summary merge equals combined fold"
    QCheck.(pair (list (float_bound_exclusive 1000.0)) (list (float_bound_exclusive 1000.0)))
    (fun (xs, ys) ->
      let merged =
        Stats.Summary.merge (Stats.Summary.of_list xs) (Stats.Summary.of_list ys)
      in
      let direct = Stats.Summary.of_list (xs @ ys) in
      Stats.Summary.count merged = Stats.Summary.count direct
      && (Stats.Summary.count direct = 0
         || Float.abs (Stats.Summary.mean merged -. Stats.Summary.mean direct) < 1e-6)
      && (Stats.Summary.count direct < 2
         || Float.abs (Stats.Summary.variance merged -. Stats.Summary.variance direct)
            < 1e-4))

let prop_histogram_survival_monotone =
  QCheck.Test.make ~count:100 ~name:"survival is non-increasing and ends at 0"
    QCheck.(list_of_size (Gen.int_range 1 50) (int_bound 100))
    (fun xs ->
      let h = Stats.Histogram.create () in
      List.iter (Stats.Histogram.add h) xs;
      let survival = List.map snd (Stats.Histogram.survival h) in
      let rec non_increasing = function
        | a :: (b :: _ as rest) -> a +. 1e-12 >= b && non_increasing rest
        | _ -> true
      in
      non_increasing survival
      && Float.abs (List.nth survival (List.length survival - 1)) < 1e-12)

let prop_binomial_tail_monotone =
  QCheck.Test.make ~count:50 ~name:"binomial tail decreases in k"
    QCheck.(int_bound 30)
    (fun n ->
      let n = n + 2 in
      let rec check k =
        k > n
        || Stats.Tail.binomial_tail_ge n 0.5 k
           +. 1e-12
           >= Stats.Tail.binomial_tail_ge n 0.5 (k + 1)
           && check (k + 1)
      in
      check 0)

(* --- Hamming geometry --- *)

let point_gen = QCheck.(array_of_size (Gen.return 12) (int_bound 3))

let prop_hamming_metric =
  QCheck.Test.make ~count:200 ~name:"hamming is a metric"
    QCheck.(triple point_gen point_gen point_gen)
    (fun (x, y, z) ->
      let d = Lowerbound.Hamming.distance_int in
      d x y = d y x
      && d x x = 0
      && d x z <= d x y + d y z
      && (d x y > 0 || x = y))

(* --- product measures & Talagrand --- *)

let prop_product_complement =
  QCheck.Test.make ~count:50 ~name:"P(A) + P(complement A) = 1"
    QCheck.(pair (int_bound 9) (int_bound 1000))
    (fun (k, denom) ->
      let n = 8 in
      let p = 0.1 +. (0.8 *. (float_of_int denom /. 1000.0)) in
      let space = Lowerbound.Product.bernoulli (Array.make n p) in
      let predicate x = Array.fold_left ( + ) 0 x >= k in
      let a = Lowerbound.Product.prob_exact space predicate in
      let b = Lowerbound.Product.prob_exact space (fun x -> not (predicate x)) in
      Float.abs (a +. b -. 1.0) < 1e-9)

let prop_talagrand_holds =
  QCheck.Test.make ~count:60 ~name:"Lemma 9 holds on random weight sets"
    QCheck.(triple (int_bound 10) (int_bound 8) (int_bound 1000))
    (fun (k, d, denom) ->
      let n = 10 in
      let p = 0.2 +. (0.6 *. (float_of_int denom /. 1000.0)) in
      let space = Lowerbound.Product.bernoulli (Array.make n p) in
      let check = Lowerbound.Talagrand.check space (Lowerbound.Talagrand.Weight_ge k) ~d in
      check.Lowerbound.Talagrand.holds)

let prop_talagrand_ball_holds =
  QCheck.Test.make ~count:40 ~name:"Lemma 9 holds on random balls"
    QCheck.(triple (int_bound 9) (int_bound 5) (int_bound 7))
    (fun (center_weight, radius, d) ->
      let n = 10 in
      let center = Array.init n (fun i -> if i < center_weight then 1 else 0) in
      let space = Lowerbound.Product.uniform_bits ~n in
      let check =
        Lowerbound.Talagrand.check space
          (Lowerbound.Talagrand.Ball { center; radius })
          ~d
      in
      check.Lowerbound.Talagrand.holds)

let prop_interpolation_conclusion =
  QCheck.Test.make ~count:30 ~name:"Lemma 14 conclusion on random biased endpoints"
    QCheck.(pair (int_bound 400) (int_bound 2))
    (fun (bias_m, gap_idx) ->
      let n = 12 in
      let p = 0.05 +. (0.35 *. (float_of_int bias_m /. 400.0)) in
      let gap = List.nth [ 2; 4; 6 ] gap_idx in
      let k0 = (n / 2) - (gap / 2) and k1 = (n / 2) + (gap / 2) in
      let t = max 1 (k1 - k0 - 1) in
      let r =
        Lowerbound.Interpolation.sweep
          ~pi0:(Lowerbound.Product.bernoulli (Array.make n p))
          ~pi_n:(Lowerbound.Product.bernoulli (Array.make n (1.0 -. p)))
          ~z0:(Lowerbound.Talagrand.Weight_le k0)
          ~z1:(Lowerbound.Talagrand.Weight_ge k1)
          ~t ()
      in
      r.Lowerbound.Interpolation.conclusion_holds)

let prop_committee_hijack_implies_dilution =
  QCheck.Test.make ~count:25 ~name:"committee: hijack implies >= 1/3 corrupt final committee"
    QCheck.(pair (int_bound 20) small_int)
    (fun (corrupt_count, seed) ->
      let n = 64 in
      let rng = Prng.Stream.root (seed + 1) in
      let corrupt = Prng.Stream.sample_without_replacement rng corrupt_count n in
      let inputs = Array.init n (fun i -> (i + seed) mod 2 = 0) in
      let report =
        Protocols.Committee.run
          (Protocols.Committee.default_params ~n ~seed)
          ~n ~corrupt ~inputs
      in
      (not report.Protocols.Committee.hijacked)
      || report.Protocols.Committee.final_bad_fraction >= 1.0 /. 3.0)

(* --- thresholds --- *)

let prop_thresholds_default_valid =
  QCheck.Test.make ~count:200 ~name:"default thresholds valid iff 6t < n"
    QCheck.(pair (int_range 1 300) (int_bound 40))
    (fun (n, t) ->
      let feasible = Protocols.Thresholds.feasible ~n ~t in
      let expected = t >= 0 && 6 * t < n && t < n in
      (* feasible must track the paper's regime (up to t = 0 edge). *)
      if t = 0 then true else feasible = expected)

let prop_thresholds_relaxed_valid =
  QCheck.Test.make ~count:150 ~name:"relaxed thresholds validate whenever defaults do"
    QCheck.(pair (int_range 7 300) (int_range 1 40))
    (fun (n, t) ->
      (not (Protocols.Thresholds.feasible ~n ~t))
      ||
      let relaxed = Protocols.Thresholds.relaxed ~n ~t in
      match Protocols.Thresholds.validate ~n ~t relaxed with
      | Ok () -> true
      | Error _ -> false)

(* --- windows --- *)

let prop_uniform_windows_validate =
  QCheck.Test.make ~count:200 ~name:"uniform windows with <= t silenced validate"
    QCheck.(triple (int_range 4 30) (int_bound 5) small_int)
    (fun (n, t, seed) ->
      let t = min t (n - 1) in
      let rng = Prng.Stream.root seed in
      let silenced = Prng.Stream.sample_without_replacement rng t n in
      let resets = Prng.Stream.sample_without_replacement rng t n in
      let w = Dsim.Window.uniform ~n ~silenced ~resets () in
      match Dsim.Window.validate ~n ~t w with Ok () -> true | Error _ -> false)

(* --- end-to-end safety: the paper's Definition 2 as a property --- *)

(* Registry entries, with the proofs' canonical silencing (first t). *)
let windowed_adversaries =
  List.map
    (fun name -> Option.get (Adversary.Registry.Windowed.find name))
    [ "benign"; "silence-first-t"; "reset-random"; "balancing"; "balance+reset";
      "split-brain" ]

let adversary_index = QCheck.int_bound (List.length windowed_adversaries - 1)

let prop_variant_safety =
  QCheck.Test.make ~count:60
    ~name:"variant: no conflicting or invalid decisions under any tested adversary"
    QCheck.(triple (int_bound 2) adversary_index small_int)
    (fun (size_idx, adversary_idx, seed) ->
      let n = List.nth [ 7; 13; 19 ] size_idx in
      let t = Protocols.Thresholds.max_fault_bound ~n in
      let adversary = List.nth windowed_adversaries adversary_idx in
      let inputs = Array.init n (fun i -> (i + seed) mod 2 = 0) in
      let config =
        Dsim.Engine.init ~protocol:(Protocols.Lewko_variant.protocol ()) ~n
          ~fault_bound:t ~inputs ~seed ()
      in
      let outcome =
        Dsim.Runner.run_windows config ~strategy:(adversary.make ~seed) ~max_windows:3_000
          ~stop:`All_decided
      in
      let verdict = Agreement.Correctness.of_outcome ~inputs outcome in
      Agreement.Correctness.ok verdict)

let prop_variant_unanimous_decides_input =
  QCheck.Test.make ~count:40 ~name:"variant: unanimous inputs decide that input fast"
    QCheck.(pair bool small_int)
    (fun (value, seed) ->
      let n = 13 in
      let config =
        Dsim.Engine.init ~protocol:(Protocols.Lewko_variant.protocol ()) ~n
          ~fault_bound:2 ~inputs:(Array.make n value) ~seed ()
      in
      let outcome =
        Dsim.Runner.run_windows config
          ~strategy:(Adversary.Reset_storm.random ~seed ())
          ~max_windows:50 ~stop:`All_decided
      in
      outcome.Dsim.Runner.decided <> []
      && List.for_all (fun (_, v) -> v = value) outcome.Dsim.Runner.decided)

let prop_ben_or_safety =
  QCheck.Test.make ~count:30 ~name:"ben-or: safety under random fair scheduling"
    QCheck.(pair (int_bound 1000) small_int)
    (fun (drop, seed) ->
      let n = 7 and t = 2 in
      let drop_probability = 0.6 *. (float_of_int drop /. 1000.0) in
      let inputs = Array.init n (fun i -> (i + seed) mod 2 = 0) in
      let config =
        Dsim.Engine.init ~protocol:(Protocols.Ben_or.protocol ()) ~n ~fault_bound:t
          ~inputs ~seed ()
      in
      let outcome =
        Dsim.Runner.run_steps config
          ~strategy:(Adversary.Benign.random_fair ~seed ~drop_probability ())
          ~max_steps:300_000 ~stop:`All_decided
      in
      let verdict = Agreement.Correctness.of_outcome ~inputs outcome in
      Agreement.Correctness.ok verdict)

let prop_window_conservation =
  QCheck.Test.make ~count:40
    ~name:"windowed executions conserve messages (sent = delivered + dropped)"
    QCheck.(pair adversary_index small_int)
    (fun (adversary_idx, seed) ->
      let n = 13 in
      let t = Protocols.Thresholds.max_fault_bound ~n in
      let adversary = List.nth windowed_adversaries adversary_idx in
      let config =
        Dsim.Engine.init ~protocol:(Protocols.Lewko_variant.protocol ()) ~n
          ~fault_bound:t
          ~inputs:(Array.init n (fun i -> (i + seed) mod 2 = 0))
          ~seed ()
      in
      ignore
        (Dsim.Runner.run_windows config ~strategy:(adversary.make ~seed) ~max_windows:40
           ~stop:`Never);
      let trace = Dsim.Engine.trace config in
      Dsim.Trace.sent trace
      = Dsim.Trace.delivered trace + Dsim.Trace.dropped trace
        + Dsim.Mailbox.size (Dsim.Engine.mailbox config))

let prop_sync_consensus_safety =
  QCheck.Test.make ~count:40 ~name:"sync consensus: safety under the coin killer"
    QCheck.(pair (int_bound 2) small_int)
    (fun (size_idx, seed) ->
      let n = List.nth [ 8; 16; 32 ] size_idx in
      let t = n / 4 in
      let inputs = Array.init n (fun i -> (i + seed) mod 2 = 0) in
      let outcome =
        Syncsim.Sync_engine.run ~protocol:Syncsim.Sync_consensus.protocol ~n ~t ~inputs
          ~seed
          ~adversary:(Syncsim.Sync_adversary.balancing ())
          ~max_rounds:50_000
      in
      (not outcome.Syncsim.Sync_engine.conflict)
      && outcome.Syncsim.Sync_engine.terminated
      && outcome.Syncsim.Sync_engine.crashes_used <= t)

let prop_shared_coin_outputs =
  QCheck.Test.make ~count:25 ~name:"shared coin: everyone outputs, race bounded"
    QCheck.(pair (int_bound 2) small_int)
    (fun (sched_idx, seed) ->
      let scheduler =
        List.nth
          [ Shmem.Shared_coin.Round_robin; Shmem.Shared_coin.Random seed;
            Shmem.Shared_coin.Stalling ]
          sched_idx
      in
      let n = 8 in
      let r =
        Shmem.Shared_coin.run ~n ~threshold_factor:1.0 ~seed ~scheduler
          ~max_steps:(10_000 * n * n) ()
      in
      Array.for_all (fun o -> o <> None) r.Shmem.Shared_coin.outputs
      && r.Shmem.Shared_coin.max_abs_sum >= n)

let prop_engine_determinism =
  QCheck.Test.make ~count:20 ~name:"executions are deterministic functions of the seed"
    QCheck.small_int
    (fun seed ->
      let run () =
        let config =
          Dsim.Engine.init ~protocol:(Protocols.Lewko_variant.protocol ()) ~n:9
            ~fault_bound:1
            ~inputs:(Array.init 9 (fun i -> i mod 2 = 0))
            ~seed ()
        in
        ignore
          (Dsim.Runner.run_windows config
             ~strategy:(Adversary.Split_vote.windowed ())
             ~max_windows:200 ~stop:`First_decision);
        Test_cores.joined config
      in
      run () = run ())

let suite =
  List.map to_alcotest
    [
      prop_int_below_in_range;
      prop_sample_without_replacement;
      prop_summary_merge;
      prop_histogram_survival_monotone;
      prop_binomial_tail_monotone;
      prop_hamming_metric;
      prop_product_complement;
      prop_talagrand_holds;
      prop_talagrand_ball_holds;
      prop_thresholds_default_valid;
      prop_thresholds_relaxed_valid;
      prop_interpolation_conclusion;
      prop_committee_hijack_implies_dilution;
      prop_uniform_windows_validate;
      prop_variant_safety;
      prop_variant_unanimous_decides_input;
      prop_ben_or_safety;
      prop_window_conservation;
      prop_sync_consensus_safety;
      prop_shared_coin_outputs;
      prop_engine_determinism;
    ]
