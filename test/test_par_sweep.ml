(* The parallel sweep engine's determinism contract, tested three ways:
   differentially (jobs ∈ {1, 2, 3, 7} against the sequential path on
   real ensembles), algebraically (qcheck: the merges Par_sweep reduces
   with are commutative/associative with identity), and on the edge
   cases where an off-by-one in chunking or worker count would hide
   (empty seed lists, zero budgets, sweeps where nothing terminates). *)

let to_alcotest = Test_seed.to_alcotest

(* ------------------------------------------------------------------ *)
(* Shared fixtures.                                                    *)

let windowed_spec ?(n = 9) ?(max_windows = 30_000) ?(stop = `First_decision) ()
    =
  {
    Agreement.Ensemble.n;
    t = 1;
    inputs = Agreement.Ensemble.split_inputs ~n;
    max_windows;
    max_steps = 0;
    stop;
  }

let stepwise_spec ?(n = 7) ?(max_steps = 100_000) () =
  {
    Agreement.Ensemble.n;
    t = 2;
    inputs = Agreement.Ensemble.split_inputs ~n;
    max_windows = 0;
    max_steps;
    stop = `First_decision;
  }

let seeds count = List.init count (fun i -> i + 1)

let check_equal_result what expected actual =
  Alcotest.(check bool) what true (Agreement.Ensemble.equal_result expected actual)

(* Every jobs value must reproduce the sequential result bit for bit,
   and repeating a jobs value must reproduce itself (no hidden state
   across sweeps). *)
let check_all_jobs ~what run =
  let sequential = run ~jobs:1 in
  List.iter
    (fun jobs ->
      check_equal_result
        (Printf.sprintf "%s: jobs=%d equals sequential" what jobs)
        sequential (run ~jobs))
    [ 1; 2; 3; 7 ];
  check_equal_result
    (Printf.sprintf "%s: repeat run at jobs=3 is stable" what)
    (run ~jobs:3) (run ~jobs:3)

(* ------------------------------------------------------------------ *)
(* Differential determinism on real ensembles.                         *)

let test_windowed_benign () =
  check_all_jobs ~what:"lewko/benign" (fun ~jobs ->
      Agreement.Ensemble.run_windowed ~jobs
        ~protocol:(Protocols.Lewko_variant.protocol ())
        ~strategy:(fun _ -> Adversary.Benign.windowed ())
        ~spec:(windowed_spec ~stop:`All_decided ())
        ~seeds:(seeds 24) ())

let test_windowed_balancing () =
  check_all_jobs ~what:"lewko/balancing" (fun ~jobs ->
      Agreement.Ensemble.run_windowed ~jobs
        ~protocol:(Protocols.Lewko_variant.protocol ())
        ~strategy:(fun _ -> Adversary.Split_vote.windowed ())
        ~spec:(windowed_spec ())
        ~seeds:(seeds 24) ())

let test_stepwise_split_vote () =
  check_all_jobs ~what:"ben-or/balancing" (fun ~jobs ->
      Agreement.Ensemble.run_stepwise ~jobs
        ~protocol:(Protocols.Ben_or.protocol ())
        ~strategy:(fun _ -> Adversary.Split_vote.stepwise ())
        ~spec:(stepwise_spec ())
        ~seeds:(seeds 12) ())

(* The trace auditor must survive parallel runs: per-seed violation
   counts are summed like every other field. *)
let test_lint_under_parallelism () =
  let n = 9 in
  let run ~jobs =
    Agreement.Ensemble.run_windowed ~jobs ~lint:true ~lint_quorum:(n - 2)
      ~protocol:(Protocols.Lewko_variant.protocol ())
      ~strategy:(fun _ -> Adversary.Split_vote.windowed_with_resets ())
      ~spec:(windowed_spec ~n ~stop:`All_decided ())
      ~seeds:(seeds 8) ()
  in
  check_all_jobs ~what:"lint" run;
  Alcotest.(check int) "clean executions stay clean in parallel" 0
    (run ~jobs:4).Agreement.Ensemble.lint_violations

(* ------------------------------------------------------------------ *)
(* Edge cases.                                                         *)

let test_zero_seeds () =
  let run ~jobs =
    Agreement.Ensemble.run_windowed ~jobs
      ~protocol:(Protocols.Lewko_variant.protocol ())
      ~strategy:(fun _ -> Adversary.Benign.windowed ())
      ~spec:(windowed_spec ()) ~seeds:[] ()
  in
  check_all_jobs ~what:"zero seeds" run;
  let result = run ~jobs:4 in
  Alcotest.(check int) "no runs" 0 result.Agreement.Ensemble.runs;
  Alcotest.(check int) "no terminations" 0 result.Agreement.Ensemble.terminated;
  Alcotest.(check int) "empty histogram" 0
    (Stats.Histogram.count result.Agreement.Ensemble.window_histogram)

let test_zero_window_budget () =
  let run ~jobs =
    Agreement.Ensemble.run_windowed ~jobs
      ~protocol:(Protocols.Lewko_variant.protocol ())
      ~strategy:(fun _ -> Adversary.Benign.windowed ())
      ~spec:(windowed_spec ~max_windows:0 ())
      ~seeds:(seeds 10) ()
  in
  check_all_jobs ~what:"max_windows=0" run;
  let result = run ~jobs:4 in
  Alcotest.(check int) "all runs counted" 10 result.Agreement.Ensemble.runs;
  Alcotest.(check int) "none terminated" 0 result.Agreement.Ensemble.terminated

(* Ten steps cannot carry a quorum of deliveries, so no run can decide:
   every run exhausts its budget, and the all-failures path must still
   aggregate identically in parallel. *)
let test_all_runs_fail_termination () =
  let run ~jobs =
    Agreement.Ensemble.run_stepwise ~jobs
      ~protocol:(Protocols.Ben_or.protocol ())
      ~strategy:(fun _ -> Adversary.Split_vote.stepwise ())
      ~spec:(stepwise_spec ~max_steps:10 ())
      ~seeds:(seeds 10) ()
  in
  check_all_jobs ~what:"no termination" run;
  let result = run ~jobs:4 in
  Alcotest.(check int) "no run terminates" 0 result.Agreement.Ensemble.terminated;
  Alcotest.(check int) "summaries stay empty" 0
    (Stats.Summary.count result.Agreement.Ensemble.windows)

let test_more_jobs_than_seeds () =
  let run ~jobs =
    Agreement.Ensemble.run_windowed ~jobs
      ~protocol:(Protocols.Lewko_variant.protocol ())
      ~strategy:(fun _ -> Adversary.Benign.windowed ())
      ~spec:(windowed_spec ~stop:`All_decided ())
      ~seeds:(seeds 3) ()
  in
  check_equal_result "jobs=64 over 3 seeds equals sequential" (run ~jobs:1)
    (run ~jobs:64)

let test_map_reduce_exceptions () =
  let items = Array.init 20 (fun i -> i) in
  let f i = if i = 13 then failwith "boom" else i in
  List.iter
    (fun jobs ->
      Alcotest.check_raises
        (Printf.sprintf "first exception re-raised at jobs=%d" jobs)
        (Failure "boom")
        (fun () ->
          ignore (Par_sweep.map_reduce ~jobs ~merge:( + ) ~init:0 ~f items)))
    [ 1; 4 ]

let test_chunk () =
  Alcotest.(check (list (list int)))
    "uneven tail" [ [ 1; 2; 3 ]; [ 4; 5 ] ]
    (Par_sweep.chunk ~size:3 [ 1; 2; 3; 4; 5 ]);
  Alcotest.(check (list (list int))) "empty list" []
    (Par_sweep.chunk ~size:4 []);
  Alcotest.check_raises "zero size rejected"
    (Invalid_argument "Par_sweep.chunk: size must be positive") (fun () ->
      ignore (Par_sweep.chunk ~size:0 [ 1 ]))

(* ------------------------------------------------------------------ *)
(* Histogram.merge pinned values.                                      *)

let histogram_of ?bucket_width values =
  let h = Stats.Histogram.create ?bucket_width () in
  List.iter (Stats.Histogram.add h) values;
  h

let test_histogram_merge_pinned () =
  let a = histogram_of [ 1; 2; 2; 5 ] in
  let b = histogram_of [ 2; 7 ] in
  let merged = Stats.Histogram.merge a b in
  Alcotest.(check (list (pair int int)))
    "bucket-wise sums" [ (1, 1); (2, 3); (5, 1); (7, 1) ]
    (Stats.Histogram.buckets merged);
  Alcotest.(check int) "total count" 6 (Stats.Histogram.count merged);
  (* Operands must be untouched. *)
  Alcotest.(check (list (pair int int)))
    "left operand unchanged" [ (1, 1); (2, 2); (5, 1) ]
    (Stats.Histogram.buckets a);
  Alcotest.(check (list (pair int int)))
    "right operand unchanged" [ (2, 1); (7, 1) ]
    (Stats.Histogram.buckets b);
  (* Widths: an empty operand adopts the other side's width... *)
  let wide = histogram_of ~bucket_width:5 [ 3; 7 ] in
  let adopted = Stats.Histogram.merge (Stats.Histogram.empty ()) wide in
  Alcotest.(check int) "width adopted" 5 (Stats.Histogram.bucket_width adopted);
  Alcotest.(check (list (pair int int)))
    "wide buckets kept" [ (0, 1); (5, 1) ]
    (Stats.Histogram.buckets adopted);
  (* ... but two non-empty widths must agree. *)
  Alcotest.check_raises "width mismatch rejected"
    (Invalid_argument "Histogram.merge: bucket_width mismatch") (fun () ->
      ignore (Stats.Histogram.merge a wide))

(* ------------------------------------------------------------------ *)
(* QCheck: the merge algebra Par_sweep relies on.                      *)

let exact_of = Stats.Summary.Exact.of_int_list
let exact_equal = Stats.Summary.Exact.equal

let obs_gen = QCheck.(list (int_bound 10_000))
let obs3_gen = QCheck.(triple obs_gen obs_gen obs_gen)

let prop_exact_commutative =
  QCheck.Test.make ~count:300 ~name:"Exact.merge is commutative"
    QCheck.(pair obs_gen obs_gen)
    (fun (xs, ys) ->
      let a = exact_of xs and b = exact_of ys in
      exact_equal
        (Stats.Summary.Exact.merge a b)
        (Stats.Summary.Exact.merge b a))

let prop_exact_associative =
  QCheck.Test.make ~count:300 ~name:"Exact.merge is associative" obs3_gen
    (fun (xs, ys, zs) ->
      let a = exact_of xs and b = exact_of ys and c = exact_of zs in
      exact_equal
        (Stats.Summary.Exact.merge (Stats.Summary.Exact.merge a b) c)
        (Stats.Summary.Exact.merge a (Stats.Summary.Exact.merge b c)))

let prop_exact_identity =
  QCheck.Test.make ~count:300 ~name:"Exact.empty is a two-sided identity"
    obs_gen (fun xs ->
      let a = exact_of xs in
      exact_equal a (Stats.Summary.Exact.merge Stats.Summary.Exact.empty a)
      && exact_equal a (Stats.Summary.Exact.merge a Stats.Summary.Exact.empty))

let prop_exact_merge_is_fold =
  QCheck.Test.make ~count:300 ~name:"Exact.merge of a split equals the full fold"
    QCheck.(pair obs_gen obs_gen)
    (fun (xs, ys) ->
      exact_equal
        (exact_of (xs @ ys))
        (Stats.Summary.Exact.merge (exact_of xs) (exact_of ys)))

let prop_histogram_commutative =
  QCheck.Test.make ~count:200 ~name:"Histogram.merge is commutative"
    QCheck.(pair obs_gen obs_gen)
    (fun (xs, ys) ->
      let a = histogram_of xs and b = histogram_of ys in
      Stats.Histogram.equal (Stats.Histogram.merge a b)
        (Stats.Histogram.merge b a))

let prop_histogram_associative =
  QCheck.Test.make ~count:200 ~name:"Histogram.merge is associative" obs3_gen
    (fun (xs, ys, zs) ->
      let a = histogram_of xs and b = histogram_of ys and c = histogram_of zs in
      Stats.Histogram.equal
        (Stats.Histogram.merge (Stats.Histogram.merge a b) c)
        (Stats.Histogram.merge a (Stats.Histogram.merge b c)))

let prop_histogram_identity =
  QCheck.Test.make ~count:200 ~name:"Histogram.empty is a two-sided identity"
    obs_gen (fun xs ->
      let a = histogram_of xs in
      Stats.Histogram.equal a (Stats.Histogram.merge (Stats.Histogram.empty ()) a)
      && Stats.Histogram.equal a
           (Stats.Histogram.merge a (Stats.Histogram.empty ())))

(* The float summary merge is only approximately associative — which is
   exactly why the sweep engine reduces with Exact, not with it.  Checked
   here up to tolerance so a regression in either direction (a broken
   merge, or an accidental dependence on exact float associativity)
   surfaces. *)
let summary_close a b =
  let close x y =
    (Float.is_nan x && Float.is_nan y) || Float.abs (x -. y) <= 1e-6 *. (1.0 +. Float.abs x)
  in
  Stats.Summary.count a = Stats.Summary.count b
  && close (Stats.Summary.mean a) (Stats.Summary.mean b)
  && close (Stats.Summary.variance a) (Stats.Summary.variance b)
  && close (Stats.Summary.total a) (Stats.Summary.total b)

let float_obs_gen = QCheck.(list (float_bound_exclusive 1000.0))

let prop_summary_commutative =
  QCheck.Test.make ~count:200 ~name:"Summary.merge is commutative (approx)"
    QCheck.(pair float_obs_gen float_obs_gen)
    (fun (xs, ys) ->
      let a = Stats.Summary.of_list xs and b = Stats.Summary.of_list ys in
      summary_close (Stats.Summary.merge a b) (Stats.Summary.merge b a))

let prop_summary_associative =
  QCheck.Test.make ~count:200 ~name:"Summary.merge is associative (approx)"
    QCheck.(triple float_obs_gen float_obs_gen float_obs_gen)
    (fun (xs, ys, zs) ->
      let a = Stats.Summary.of_list xs
      and b = Stats.Summary.of_list ys
      and c = Stats.Summary.of_list zs in
      summary_close
        (Stats.Summary.merge (Stats.Summary.merge a b) c)
        (Stats.Summary.merge a (Stats.Summary.merge b c)))

let prop_summary_identity =
  QCheck.Test.make ~count:200 ~name:"Summary.empty is a two-sided identity"
    float_obs_gen (fun xs ->
      let a = Stats.Summary.of_list xs in
      Stats.Summary.equal a (Stats.Summary.merge Stats.Summary.empty a)
      && Stats.Summary.equal a (Stats.Summary.merge a Stats.Summary.empty))

(* Any chunking of a seed list, swept chunk by chunk and merged, equals
   the unchunked sweep — the property that makes Par_sweep's scheduling
   invisible. *)
let prop_partial_chunking_invariant =
  let sweep seeds =
    Agreement.Ensemble.partial_windowed
      ~protocol:(Protocols.Lewko_variant.protocol ())
      ~strategy:(fun _ -> Adversary.Split_vote.windowed ())
      ~spec:(windowed_spec ~n:7 ~max_windows:5_000 ())
      ~seeds ()
  in
  QCheck.Test.make ~count:12 ~name:"chunked Partial.merge equals unchunked sweep"
    QCheck.(pair (int_range 1 10) (list_of_size (Gen.int_range 0 12) (int_bound 1_000)))
    (fun (size, seeds) ->
      let whole = sweep seeds in
      let chunked =
        List.fold_left
          (fun acc chunk -> Agreement.Ensemble.Partial.merge acc (sweep chunk))
          (Agreement.Ensemble.Partial.empty ())
          (Par_sweep.chunk ~size seeds)
      in
      Agreement.Ensemble.Partial.equal whole chunked
      && Agreement.Ensemble.Partial.runs whole = List.length seeds)

(* ------------------------------------------------------------------ *)
(* Sequential fast path: no domain may be spawned when parallelism
   cannot help.  The spawn tally is cumulative, so each check takes a
   before/after delta.                                                 *)

let spawn_delta f =
  let before = Par_sweep.spawned_domains () in
  let result = f () in
  (result, Par_sweep.spawned_domains () - before)

let items = Array.init 100 (fun i -> i)

let sum ?jobs () =
  Par_sweep.map_reduce ?jobs ~merge:( + ) ~init:0 ~f:(fun x -> x * x) items

let expected_sum = Array.fold_left (fun acc x -> acc + (x * x)) 0 items

let test_no_spawn_at_jobs_one () =
  let result, spawned = spawn_delta (fun () -> sum ~jobs:1 ()) in
  Alcotest.(check int) "result" expected_sum result;
  Alcotest.(check int) "no domain spawned" 0 spawned;
  let result, spawned = spawn_delta (fun () -> sum ()) in
  Alcotest.(check int) "default jobs result" expected_sum result;
  Alcotest.(check int) "default jobs spawns nothing" 0 spawned

let test_single_core_fast_path () =
  (* On a single-core host every jobs value must collapse to the
     sequential path; on a multicore host jobs > 1 is expected to
     spawn.  Either way the result is byte-identical. *)
  let result, spawned = spawn_delta (fun () -> sum ~jobs:4 ()) in
  Alcotest.(check int) "result identical" expected_sum result;
  if Domain.recommended_domain_count () = 1 then
    Alcotest.(check int) "single core: jobs=4 spawns nothing" 0 spawned
  else
    Alcotest.(check bool) "multicore: jobs=4 uses domains" true (spawned > 0)

let suite =
  [
    Alcotest.test_case "windowed benign: jobs-invariant" `Quick test_windowed_benign;
    Alcotest.test_case "windowed balancing: jobs-invariant" `Quick
      test_windowed_balancing;
    Alcotest.test_case "stepwise balancing: jobs-invariant" `Quick
      test_stepwise_split_vote;
    Alcotest.test_case "trace lint parallelizes" `Quick test_lint_under_parallelism;
    Alcotest.test_case "edge: zero seeds" `Quick test_zero_seeds;
    Alcotest.test_case "edge: zero window budget" `Quick test_zero_window_budget;
    Alcotest.test_case "edge: nothing terminates" `Quick
      test_all_runs_fail_termination;
    Alcotest.test_case "edge: more jobs than seeds" `Quick test_more_jobs_than_seeds;
    Alcotest.test_case "map_reduce re-raises" `Quick test_map_reduce_exceptions;
    Alcotest.test_case "fast path: jobs=1 never spawns" `Quick
      test_no_spawn_at_jobs_one;
    Alcotest.test_case "fast path: single-core collapse" `Quick
      test_single_core_fast_path;
    Alcotest.test_case "chunk shapes" `Quick test_chunk;
    Alcotest.test_case "histogram merge: pinned values" `Quick
      test_histogram_merge_pinned;
    to_alcotest prop_exact_commutative;
    to_alcotest prop_exact_associative;
    to_alcotest prop_exact_identity;
    to_alcotest prop_exact_merge_is_fold;
    to_alcotest prop_histogram_commutative;
    to_alcotest prop_histogram_associative;
    to_alcotest prop_histogram_identity;
    to_alcotest prop_summary_commutative;
    to_alcotest prop_summary_associative;
    to_alcotest prop_summary_identity;
    to_alcotest prop_partial_chunking_invariant;
  ]
