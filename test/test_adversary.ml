(* Adversary strategies: every windowed strategy must emit Definition-1
   windows, and the balancing strategies must actually balance. *)

let make_config ?(n = 13) ?(t = 2) ?(seed = 1) ?inputs () =
  let inputs = Option.value ~default:(Array.init n (fun i -> i mod 2 = 0)) inputs in
  Dsim.Engine.init ~protocol:(Protocols.Lewko_variant.protocol ()) ~n ~fault_bound:t
    ~inputs ~seed ()

let check_strategy_windows name strategy =
  let config = make_config () in
  for i = 1 to 20 do
    match strategy config with
    | None -> Alcotest.fail (name ^ ": halted unexpectedly")
    | Some window -> (
        match Dsim.Window.validate ~n:13 ~t:2 window with
        | Ok () -> Dsim.Engine.apply_window config window
        | Error m ->
            Alcotest.fail (Printf.sprintf "%s: invalid window at %d: %s" name i m))
  done

let test_all_windowed_strategies_valid () =
  check_strategy_windows "benign" (Adversary.Benign.windowed ());
  check_strategy_windows "silence-first" Adversary.Silence.first_t;
  check_strategy_windows "silence-last" Adversary.Silence.last_t;
  check_strategy_windows "silence-fixed" (Adversary.Silence.fixed ~silenced:[ 3; 7 ]);
  check_strategy_windows "silence-rotating" (Adversary.Silence.rotating ~period:2 ~count:2);
  check_strategy_windows "reset-rotating" (Adversary.Reset_storm.rotating ());
  check_strategy_windows "reset-random" (Adversary.Reset_storm.random ~seed:5 ());
  check_strategy_windows "reset-targeted" (Adversary.Reset_storm.target_undecided ());
  check_strategy_windows "reset+silence" (Adversary.Reset_storm.with_silence ~seed:6 ());
  check_strategy_windows "balancing" (Adversary.Split_vote.windowed ());
  check_strategy_windows "balance+reset" (Adversary.Split_vote.windowed_with_resets ());
  check_strategy_windows "split-brain" (Adversary.Split_brain.windowed ())

let test_rotating_invalid_period () =
  let raised =
    try
      let (_ : ('a, 'b) Adversary.Strategy.windowed) =
        Adversary.Silence.rotating ~period:0 ~count:1
      in
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "period 0 rejected" true raised

let test_census () =
  let inputs = Array.init 12 (fun i -> i < 6) in
  let config = make_config ~n:12 ~t:1 ~inputs () in
  let zeros, ones, silent = Adversary.Strategy.vote_census config in
  Alcotest.(check int) "zeros" 6 zeros;
  Alcotest.(check int) "ones" 6 ones;
  Alcotest.(check int) "silent" 0 silent;
  (* Reset someone: they become silent (recovering). *)
  Dsim.Engine.apply config (Dsim.Step.Reset 0);
  let zeros, ones, silent = Adversary.Strategy.vote_census config in
  Alcotest.(check int) "zeros after reset" 6 zeros;
  Alcotest.(check int) "ones after reset" 5 ones;
  Alcotest.(check int) "silent after reset" 1 silent

let test_majority_holders () =
  (* 7 ones (ids 0,2,3,5,6,8,10) vs 5 zeros. *)
  let inputs = [| true; false; true; true; false; true; true; false; true; false; true; false |] in
  let config = make_config ~n:12 ~t:1 ~inputs () in
  Alcotest.(check (list int)) "two lowest majority holders" [ 0; 2 ]
    (Adversary.Strategy.majority_holders config ~limit:2);
  Alcotest.(check (list int)) "all seven" [ 0; 2; 3; 5; 6; 8; 10 ]
    (Adversary.Strategy.majority_holders config ~limit:100)

let test_limit_windows () =
  let strategy = Adversary.Strategy.limit_windows 3 (Adversary.Benign.windowed ()) in
  let config = make_config () in
  let count = ref 0 in
  let rec drain () =
    match strategy config with
    | Some _ ->
        incr count;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check int) "exactly 3 windows" 3 !count

let test_switch_after () =
  let first _config = Some (Dsim.Window.uniform ~n:13 ~silenced:[ 0; 1 ] ()) in
  let second _config = Some (Dsim.Window.uniform ~n:13 ()) in
  let strategy = Adversary.Strategy.switch_after 2 first second in
  let config = make_config () in
  let silenced_count window = 13 - List.length (Dsim.Window.receive_set window 0) in
  (match strategy config with
  | Some w -> Alcotest.(check int) "first strategy silences" 2 (silenced_count w)
  | None -> Alcotest.fail "halted");
  ignore (strategy config);
  match strategy config with
  | Some w -> Alcotest.(check int) "second strategy after k" 0 (silenced_count w)
  | None -> Alcotest.fail "halted"

let test_balancing_silences_majority () =
  (* 8 ones vs 5 zeros with t = 2: the balancer must silence 2 one-
     holders, never zero-holders. *)
  let inputs = Array.init 13 (fun i -> i < 8) in
  let config = make_config ~inputs () in
  match (Adversary.Split_vote.windowed ()) config with
  | None -> Alcotest.fail "halted"
  | Some window ->
      let receive = Dsim.Window.receive_set window 0 in
      let silenced = List.filter (fun p -> not (List.mem p receive)) (List.init 13 Fun.id) in
      Alcotest.(check int) "silences t" 2 (List.length silenced);
      List.iter
        (fun p -> Alcotest.(check bool) "silenced holds majority" true inputs.(p))
        silenced

let test_balancing_escape_threshold () =
  let thresholds = Protocols.Thresholds.default ~n:13 ~t:2 in
  Alcotest.(check int) "T3 + t" 9
    (Adversary.Split_vote.escape_threshold ~n:13 ~t:2 ~thresholds)

let test_crash_budget_respected () =
  let config = make_config ~n:13 ~t:2 () in
  let strategy = Adversary.Crash.before_decision () in
  for _ = 1 to 2000 do
    match strategy config with
    | Some step -> Dsim.Engine.apply config step
    | None -> ()
  done;
  Alcotest.(check bool) "at most t crashes" true (Dsim.Engine.crashed_count config <= 2)

let test_crash_at_start_rejects_excess () =
  let config = make_config ~n:13 ~t:2 () in
  let strategy = Adversary.Crash.at_start ~crash:[ 0; 1; 2 ] in
  let raised =
    try
      ignore (strategy config);
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "more than t rejected" true raised

let test_lookahead_default_candidates () =
  let config = make_config ~n:7 ~t:1 () in
  let candidates = Adversary.Lookahead.default_candidates config in
  (* Fault-free + n silencers + n resetters. *)
  Alcotest.(check int) "candidate count" 15 (List.length candidates);
  List.iter
    (fun w ->
      match Dsim.Window.validate ~n:7 ~t:1 w with
      | Ok () -> ()
      | Error m -> Alcotest.fail m)
    candidates

let test_byzantine_silent_drops_only_corrupt () =
  let config =
    Dsim.Engine.init ~protocol:(Protocols.Ben_or.protocol ()) ~n:5 ~fault_bound:1
      ~inputs:(Array.make 5 true) ~seed:2 ~record_events:true ()
  in
  let strategy =
    Adversary.Byzantine.lockstep ~corrupt:[ 0 ] ~flavour:Adversary.Byzantine.Silent ()
  in
  for _ = 1 to 2 * ((2 * 5) + 25 + 5) do
    match strategy config with
    | Some step -> Dsim.Engine.apply config step
    | None -> ()
  done;
  let trace = Dsim.Engine.trace config in
  (* Nothing from p0 is ever delivered; everyone else's messages are. *)
  let delivered_from_p0 =
    List.exists
      (function Dsim.Trace.Delivered { src = 0; _ } -> true | _ -> false)
      (Dsim.Trace.events trace)
  in
  Alcotest.(check bool) "p0 never delivered" false delivered_from_p0;
  Alcotest.(check bool) "p0's sends were dropped" true (Dsim.Trace.dropped trace >= 5);
  Alcotest.(check bool) "others delivered" true (Dsim.Trace.delivered trace >= 20)

let test_lookahead_produces_valid_windows () =
  let config = make_config ~n:7 ~t:1 () in
  let strategy = Adversary.Lookahead.windowed ~samples:3 ~horizon:2 ~seed:3 () in
  match strategy config with
  | None -> Alcotest.fail "halted"
  | Some window -> (
      match Dsim.Window.validate ~n:7 ~t:1 window with
      | Ok () -> ()
      | Error m -> Alcotest.fail m)

let test_lookahead_custom_candidates () =
  let config = make_config ~n:7 ~t:1 () in
  let only = Dsim.Window.uniform ~n:7 ~silenced:[ 3 ] () in
  let strategy =
    Adversary.Lookahead.windowed ~samples:2 ~horizon:1 ~seed:1
      ~candidates:(fun _ -> [ only ]) ()
  in
  (match strategy config with
  | Some w -> Alcotest.(check bool) "the only candidate wins" true (w = only)
  | None -> Alcotest.fail "halted");
  let empty = Adversary.Lookahead.windowed ~samples:2 ~horizon:1 ~seed:1
      ~candidates:(fun _ -> []) () in
  Alcotest.(check bool) "no candidates halts" true (empty config = None)

let test_lookahead_does_not_mutate () =
  let config = make_config ~n:7 ~t:1 () in
  let before = Test_cores.joined config in
  let strategy = Adversary.Lookahead.windowed ~samples:3 ~horizon:2 ~seed:3 () in
  ignore (strategy config);
  Alcotest.(check string) "configuration untouched by lookahead" before
    (Test_cores.joined config)

let test_split_brain_freezes_deterministic () =
  (* The FLP demonstration as a regression test: pinned coin + the
     split-brain schedule never decides; the fair coin always does. *)
  let n = 13 and t = 2 in
  let inputs = Array.init n (fun i -> i < 7) in
  let run coin seed =
    let config =
      Dsim.Engine.init
        ~protocol:(Protocols.Lewko_variant.protocol ?coin ())
        ~n ~fault_bound:t ~inputs ~seed ()
    in
    Dsim.Runner.run_windows config
      ~strategy:(Adversary.Split_brain.windowed ())
      ~max_windows:3_000 ~stop:`First_decision
  in
  for seed = 1 to 3 do
    let frozen = run (Some (fun _ -> false)) seed in
    Alcotest.(check bool) "deterministic variant frozen" true
      (frozen.Dsim.Runner.decided = []);
    Alcotest.(check bool) "no conflict while frozen" false frozen.Dsim.Runner.conflict;
    let random = run None seed in
    Alcotest.(check bool) "randomized variant decides" true
      (random.Dsim.Runner.decided <> [])
  done

let test_stepwise_strategies_progress () =
  (* Each stepwise strategy must drive Ben-Or to a decision on
     unanimous inputs (liveness sanity). *)
  let check name strategy =
    let config =
      Dsim.Engine.init ~protocol:(Protocols.Ben_or.protocol ()) ~n:7 ~fault_bound:2
        ~inputs:(Array.make 7 true) ~seed:2 ()
    in
    let outcome =
      Dsim.Runner.run_steps config ~strategy ~max_steps:200_000 ~stop:`First_decision
    in
    Alcotest.(check bool) (name ^ " reaches a decision") true
      (outcome.Dsim.Runner.decided <> [])
  in
  check "lockstep" (Adversary.Benign.lockstep ());
  check "random-fair" (Adversary.Benign.random_fair ~seed:4 ~drop_probability:0.4 ());
  check "balancing" (Adversary.Split_vote.stepwise ());
  check "echo-chamber" (Adversary.Echo_chamber.stepwise ());
  check "crash-late" (Adversary.Crash.before_decision ());
  check "staggered" (Adversary.Crash.staggered ~every:3)

let suite =
  [
    Alcotest.test_case "windowed strategies valid" `Quick test_all_windowed_strategies_valid;
    Alcotest.test_case "rotating invalid period" `Quick test_rotating_invalid_period;
    Alcotest.test_case "census" `Quick test_census;
    Alcotest.test_case "majority holders" `Quick test_majority_holders;
    Alcotest.test_case "limit windows" `Quick test_limit_windows;
    Alcotest.test_case "switch after" `Quick test_switch_after;
    Alcotest.test_case "balancing silences majority" `Quick test_balancing_silences_majority;
    Alcotest.test_case "balancing escape threshold" `Quick test_balancing_escape_threshold;
    Alcotest.test_case "crash budget respected" `Quick test_crash_budget_respected;
    Alcotest.test_case "crash at start rejects excess" `Quick
      test_crash_at_start_rejects_excess;
    Alcotest.test_case "lookahead default candidates" `Quick
      test_lookahead_default_candidates;
    Alcotest.test_case "byzantine silent drops only corrupt" `Quick
      test_byzantine_silent_drops_only_corrupt;
    Alcotest.test_case "lookahead valid windows" `Quick test_lookahead_produces_valid_windows;
    Alcotest.test_case "lookahead custom candidates" `Quick test_lookahead_custom_candidates;
    Alcotest.test_case "lookahead does not mutate" `Quick test_lookahead_does_not_mutate;
    Alcotest.test_case "stepwise strategies progress" `Quick test_stepwise_strategies_progress;
    Alcotest.test_case "split-brain freezes deterministic variant" `Quick
      test_split_brain_freezes_deterministic;
  ]
