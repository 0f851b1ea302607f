(* White-box tests of the Section 3 variant algorithm, driving the
   protocol record directly (no engine): n = 7, t = 1, so T1 = T2 = 5
   and T3 = 4. *)

let protocol = Protocols.Lewko_variant.protocol ()

let rng () = Prng.Stream.root 77

let init ?(input = true) ?(id = 0) () =
  protocol.Dsim.Protocol.init ~n:7 ~t:1 ~id ~input

let deliver state ~src message = protocol.Dsim.Protocol.on_deliver state ~src message (rng ())

(* Round and estimate as [observe] reports them: round -1 and no
   estimate while recovering from a reset. *)
let round_of state = (protocol.Dsim.Protocol.observe state).Dsim.Obs.round
let estimate_of state = (protocol.Dsim.Protocol.observe state).Dsim.Obs.estimate

let vote round value = { Protocols.Lewko_variant.round; value }

let feed state votes =
  List.fold_left (fun s (src, round, value) -> deliver s ~src (vote round value)) state votes

(* Drain the outbox and expand lazy broadcasts into the explicit
   (destination, message) pairs the engine would enqueue. *)
let drain state =
  let state, sends = protocol.Dsim.Protocol.outgoing state in
  (state, Dsim.Step.expand ~n:7 sends)

let test_init_broadcasts () =
  let state = init () in
  let _, messages = drain state in
  Alcotest.(check int) "sends to all 7" 7 (List.length messages);
  List.iter
    (fun (_, m) ->
      Alcotest.(check int) "round 1" 1 m.Protocols.Lewko_variant.round;
      Alcotest.(check bool) "carries input" true m.Protocols.Lewko_variant.value)
    messages;
  Alcotest.(check int) "round 1" 1 (round_of state)

let test_outgoing_idempotent () =
  let state = init () in
  let state, first = drain state in
  let _, second = drain state in
  Alcotest.(check int) "first flush" 7 (List.length first);
  Alcotest.(check int) "second flush empty" 0 (List.length second)

let test_waits_for_t1 () =
  let state = init () in
  let state = feed state [ (1, 1, true); (2, 1, true); (3, 1, true); (4, 1, true) ] in
  Alcotest.(check int) "still round 1 after 4 votes" 1
    (round_of state);
  Alcotest.(check int) "pending count" 4
    (Protocols.Lewko_variant.pending_votes state ~round:1)

let test_decides_at_t2 () =
  let state, _ = drain (init ()) in
  let state =
    feed state
      [ (1, 1, true); (2, 1, true); (3, 1, true); (4, 1, true); (5, 1, true) ]
  in
  Alcotest.(check bool) "decided 1" true (protocol.Dsim.Protocol.output state = Some true);
  Alcotest.(check int) "advanced to round 2" 2
    (round_of state);
  (* The round-2 vote is queued. *)
  let _, messages = drain state in
  Alcotest.(check int) "round-2 broadcast" 7 (List.length messages);
  List.iter
    (fun (_, m) -> Alcotest.(check int) "round 2" 2 m.Protocols.Lewko_variant.round)
    messages

let test_adopts_at_t3_without_deciding () =
  let state = init ~input:false () in
  (* 4 ones + 1 zero: T3 = 4 reached for 1, T2 = 5 not. *)
  let state =
    feed state
      [ (1, 1, true); (2, 1, true); (3, 1, true); (4, 1, true); (5, 1, false) ]
  in
  Alcotest.(check bool) "no decision" true (protocol.Dsim.Protocol.output state = None);
  Alcotest.(check bool) "adopted majority deterministically" true
    (estimate_of state = Some true)

let test_coin_on_balance () =
  (* 3/2 split is below T3 on both sides: the estimate must come from
     the coin — over many rngs both values must occur. *)
  let outcomes = ref [] in
  for seed = 1 to 30 do
    let state = protocol.Dsim.Protocol.init ~n:7 ~t:1 ~id:0 ~input:true in
    let r = Prng.Stream.root seed in
    let state =
      List.fold_left
        (fun s (src, v) ->
          protocol.Dsim.Protocol.on_deliver s ~src (vote 1 v) r)
        state
        [ (1, true); (2, true); (3, true); (4, false); (5, false) ]
    in
    match estimate_of state with
    | Some v -> outcomes := v :: !outcomes
    | None -> Alcotest.fail "expected an estimate"
  done;
  Alcotest.(check bool) "both coin values occur" true
    (List.mem true !outcomes && List.mem false !outcomes)

let test_duplicate_votes_ignored () =
  let state = init () in
  let state =
    feed state [ (1, 1, true); (1, 1, true); (1, 1, false); (2, 1, true) ]
  in
  Alcotest.(check int) "two distinct senders" 2
    (Protocols.Lewko_variant.pending_votes state ~round:1)

let test_old_round_votes_ignored () =
  let state = init () in
  let state =
    feed state
      [ (1, 1, true); (2, 1, true); (3, 1, true); (4, 1, true); (5, 1, true) ]
  in
  (* Now in round 2; a late round-1 vote must not count anywhere. *)
  let state = feed state [ (6, 1, false) ] in
  Alcotest.(check int) "round unchanged" 2 (round_of state);
  Alcotest.(check int) "no round-1 tally kept" 0
    (Protocols.Lewko_variant.pending_votes state ~round:1)

let test_future_round_votes_buffered () =
  let state = init () in
  (* Four round-2 votes arrive early; then round 1 completes; then the
     fifth round-2 vote fires round 2 immediately. *)
  let state =
    feed state [ (1, 2, true); (2, 2, true); (3, 2, true); (4, 2, true) ]
  in
  Alcotest.(check int) "buffered" 4 (Protocols.Lewko_variant.pending_votes state ~round:2);
  let state =
    feed state
      [ (1, 1, true); (2, 1, true); (3, 1, true); (4, 1, true); (5, 1, true) ]
  in
  Alcotest.(check int) "round 2 now" 2 (round_of state);
  let state = feed state [ (5, 2, true) ] in
  Alcotest.(check int) "round 3 after 5th future vote" 3
    (round_of state)

let test_reset_and_recovery () =
  let state = init () in
  let state = protocol.Dsim.Protocol.on_reset state in
  Alcotest.(check int) "recovering round" (-1)
    (round_of state);
  Alcotest.(check bool) "no estimate while recovering" true
    (estimate_of state = None);
  let obs = protocol.Dsim.Protocol.observe state in
  Alcotest.(check int) "reset counter" 1 obs.Dsim.Obs.resets;
  (* A recovering processor sends nothing. *)
  let _, messages = drain state in
  Alcotest.(check int) "silent while recovering" 0 (List.length messages);
  (* Five round-5 votes with 4+ agreeing: adopt round 5, run step 3,
     resume at round 6. *)
  let state =
    feed state
      [ (1, 5, true); (2, 5, true); (3, 5, true); (4, 5, true); (5, 5, false) ]
  in
  Alcotest.(check int) "recovered to round 6" 6
    (round_of state);
  Alcotest.(check bool) "estimate adopted" true
    (estimate_of state = Some true);
  let _, messages = drain state in
  Alcotest.(check int) "resumes broadcasting" 7 (List.length messages)

let test_reset_preserves_output_and_input () =
  let state = init ~input:false () in
  let state =
    feed state
      [ (1, 1, false); (2, 1, false); (3, 1, false); (4, 1, false); (5, 1, false) ]
  in
  Alcotest.(check bool) "decided 0" true (protocol.Dsim.Protocol.output state = Some false);
  let state = protocol.Dsim.Protocol.on_reset state in
  Alcotest.(check bool) "output survives reset" true
    (protocol.Dsim.Protocol.output state = Some false);
  let obs = protocol.Dsim.Protocol.observe state in
  Alcotest.(check bool) "input survives reset" false obs.Dsim.Obs.input

let test_recovery_can_decide () =
  (* A recovering processor that sees T2 agreeing votes writes its
     output during recovery (step 3 includes the decision rule). *)
  let state = protocol.Dsim.Protocol.on_reset (init ()) in
  let state =
    feed state
      [ (1, 4, false); (2, 4, false); (3, 4, false); (4, 4, false); (5, 4, false) ]
  in
  Alcotest.(check bool) "decided during recovery" true
    (protocol.Dsim.Protocol.output state = Some false)

let test_message_introspection () =
  let m = vote 3 true in
  Alcotest.(check bool) "bit" true (protocol.Dsim.Protocol.message_bit m = Some true);
  Alcotest.(check bool) "round" true (protocol.Dsim.Protocol.message_round m = Some 3);
  (match protocol.Dsim.Protocol.rewrite_bit m false with
  | Some m' ->
      Alcotest.(check bool) "rewritten bit" true
        (protocol.Dsim.Protocol.message_bit m' = Some false);
      Alcotest.(check bool) "round preserved" true
        (protocol.Dsim.Protocol.message_round m' = Some 3)
  | None -> Alcotest.fail "expected rewrite");
  Alcotest.(check bool) "origin is sender" true
    (protocol.Dsim.Protocol.message_origin m = None)

let test_state_core_distinguishes () =
  let a = init ~input:true () and b = init ~input:false () in
  Alcotest.(check bool) "different inputs, different cores" true
    (protocol.Dsim.Protocol.state_core a <> protocol.Dsim.Protocol.state_core b);
  let a' = feed a [ (1, 1, true) ] in
  Alcotest.(check bool) "delivery changes core" true
    (protocol.Dsim.Protocol.state_core a <> protocol.Dsim.Protocol.state_core a')

let test_custom_thresholds_validated () =
  let bad = { Protocols.Thresholds.t1 = 7; t2 = 7; t3 = 7 } in
  let p = Protocols.Lewko_variant.protocol ~thresholds:bad () in
  Alcotest.check_raises "invalid thresholds rejected at init"
    (Invalid_argument
       "Lewko_variant.init: infeasible for n=7 t=1 (need n - 2t >= T1)")
    (fun () -> ignore (p.Dsim.Protocol.init ~n:7 ~t:1 ~id:0 ~input:true))

(* A vote for the current round copies the tally record and the
   four-field hot state, and nothing else.  At n = 13 under benign
   windows a whole run to decision read 29.5 minor words per delivery
   with one flat record and every round in a map, 11.8 after; the
   limit sits between the two. *)
let test_delivery_allocation () =
  let n = 13 in
  let config =
    Dsim.Engine.init ~protocol ~n ~fault_bound:((n - 1) / 6)
      ~inputs:(Agreement.Ensemble.split_inputs ~n 1) ~seed:1 ()
  in
  let before = Gc.minor_words () in
  let outcome =
    Dsim.Runner.run_windows config ~strategy:(Adversary.Benign.windowed ())
      ~max_windows:1_000 ~stop:`All_decided
  in
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "all decide" n (List.length outcome.Dsim.Runner.decided);
  let delivered = Dsim.Trace.delivered (Dsim.Engine.trace config) in
  let per_delivery = words /. float_of_int delivered in
  if per_delivery >= 20.0 then
    Alcotest.failf "Lewko allocated %.2f minor words per delivery (limit 20)" per_delivery

(* --- differential against the flat-record predecessor ([Lewko_oracle]) --- *)

(* Mostly the burst's main bit, one vote in four a fresh coin. *)
let lewko_vote rs =
  let main = Random.State.bool rs in
  fun () -> if Random.State.int rs 4 = 0 then Random.State.bool rs else main

let qcheck_lewko_oracle =
  QCheck.Test.make ~count:300 ~name:"split state agrees with the flat-record oracle"
    (QCheck.make
       ~print:(Oracle_diff.show_case (fun v -> if v then ":1" else ":0"))
       (Oracle_diff.case_gen ~sizes:[| (7, 1); (13, 2); (19, 3); (25, 4) |]
          ~vote:lewko_vote))
    (Oracle_diff.agrees protocol (Lewko_oracle.protocol ()) ~message:vote)

let suite =
  [
    Alcotest.test_case "init broadcasts" `Quick test_init_broadcasts;
    Alcotest.test_case "outgoing idempotent" `Quick test_outgoing_idempotent;
    Alcotest.test_case "waits for T1" `Quick test_waits_for_t1;
    Alcotest.test_case "decides at T2" `Quick test_decides_at_t2;
    Alcotest.test_case "adopts at T3 without deciding" `Quick
      test_adopts_at_t3_without_deciding;
    Alcotest.test_case "coin on balance" `Quick test_coin_on_balance;
    Alcotest.test_case "duplicate votes ignored" `Quick test_duplicate_votes_ignored;
    Alcotest.test_case "old round votes ignored" `Quick test_old_round_votes_ignored;
    Alcotest.test_case "future round votes buffered" `Quick
      test_future_round_votes_buffered;
    Alcotest.test_case "reset and recovery" `Quick test_reset_and_recovery;
    Alcotest.test_case "reset preserves output/input" `Quick
      test_reset_preserves_output_and_input;
    Alcotest.test_case "recovery can decide" `Quick test_recovery_can_decide;
    Alcotest.test_case "message introspection" `Quick test_message_introspection;
    Alcotest.test_case "state core distinguishes" `Quick test_state_core_distinguishes;
    Alcotest.test_case "custom thresholds validated" `Quick
      test_custom_thresholds_validated;
    Alcotest.test_case "delivery allocation" `Quick test_delivery_allocation;
    Test_seed.to_alcotest qcheck_lewko_oracle;
  ]
