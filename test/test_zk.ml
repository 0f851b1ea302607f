(* Z^k set probes (Definitions 10/12) on the variant algorithm. *)

let protocol = Protocols.Lewko_variant.protocol ()

let config inputs =
  Dsim.Engine.init ~protocol ~n:7 ~fault_bound:1 ~inputs ~seed:11 ()

let test_canonical_choices_valid () =
  let n = 13 and t = 2 in
  List.iter
    (fun (resets, silenced) ->
      let w = Dsim.Window.uniform ~n ~silenced ~resets () in
      match Dsim.Window.validate ~n ~t w with
      | Ok () -> ()
      | Error m -> Alcotest.fail m)
    (Lowerbound.Zk_sets.canonical_choices ~n ~t)

let test_canonical_choices_zero_t () =
  Alcotest.(check int) "only the fault-free choice" 1
    (List.length (Lowerbound.Zk_sets.canonical_choices ~n:5 ~t:0))

let test_in_z0 () =
  let c = config (Array.make 7 false) in
  Alcotest.(check bool) "fresh config outside Z0" false
    (Lowerbound.Zk_sets.in_z0 c ~value:false);
  (* Run to a decision. *)
  ignore
    (Dsim.Runner.run_windows c
       ~strategy:(Adversary.Benign.windowed ())
       ~max_windows:10 ~stop:`All_decided);
  Alcotest.(check bool) "decided-0 config in Z^0_0" true
    (Lowerbound.Zk_sets.in_z0 c ~value:false);
  Alcotest.(check bool) "not in Z^0_1" false (Lowerbound.Zk_sets.in_z0 c ~value:true)

let test_member_k0_is_z0 () =
  let c = config (Array.make 7 true) in
  let rng = Prng.Stream.root 1 in
  Alcotest.(check bool) "k=0 delegates to Z0" false
    (Lowerbound.Zk_sets.member c ~k:0 ~value:true ~samples:1 ~tau:0.5 ~rng)

let test_member_unanimous () =
  let rng = Prng.Stream.root 2 in
  let tau = Stats.Tail.tau ~n:7 ~t:1 in
  let all_zero = config (Array.make 7 false) in
  Alcotest.(check bool) "all-zero in Z^1_0" true
    (Lowerbound.Zk_sets.member all_zero ~k:1 ~value:false ~samples:6 ~tau ~rng);
  Alcotest.(check bool) "all-zero not in Z^1_1" false
    (Lowerbound.Zk_sets.member all_zero ~k:1 ~value:true ~samples:6 ~tau ~rng)

let test_member_does_not_mutate () =
  let c = config (Array.make 7 false) in
  let before = Test_cores.joined c in
  let rng = Prng.Stream.root 3 in
  ignore (Lowerbound.Zk_sets.member c ~k:1 ~value:false ~samples:4 ~tau:0.9 ~rng);
  Alcotest.(check string) "config untouched" before (Test_cores.joined c)

let test_separation () =
  let sep =
    Lowerbound.Zk_sets.estimate_z0_separation ~protocol ~n:7 ~t:1 ~runs:40 ~seed:5
  in
  Alcotest.(check bool) "found both decision values" true
    (sep.Lowerbound.Zk_sets.pairs_checked > 0);
  Alcotest.(check bool) "Lemma 11 separation" true sep.Lowerbound.Zk_sets.holds;
  Alcotest.(check bool) "distance exceeds t" true
    (sep.Lowerbound.Zk_sets.min_distance > 1)

let test_zk_separation () =
  let sep =
    Lowerbound.Zk_sets.estimate_zk_separation ~protocol ~n:7 ~t:1 ~k:1 ~runs:12
      ~samples:5 ~seed:4
  in
  Alcotest.(check bool) "both Z^1 buckets sampled" true
    (sep.Lowerbound.Zk_sets.pairs_checked > 0);
  Alcotest.(check bool) "Lemma 13 separation at k=1" true
    sep.Lowerbound.Zk_sets.holds

let suite =
  [
    Alcotest.test_case "zk separation (k=1)" `Quick test_zk_separation;
    Alcotest.test_case "canonical choices valid" `Quick test_canonical_choices_valid;
    Alcotest.test_case "canonical choices t=0" `Quick test_canonical_choices_zero_t;
    Alcotest.test_case "in_z0" `Quick test_in_z0;
    Alcotest.test_case "member k=0 is Z0" `Quick test_member_k0_is_z0;
    Alcotest.test_case "member unanimous" `Quick test_member_unanimous;
    Alcotest.test_case "member does not mutate" `Quick test_member_does_not_mutate;
    Alcotest.test_case "separation" `Quick test_separation;
  ]
