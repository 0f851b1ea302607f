(* White-box tests of Ben-Or: n = 7, t = 2, so each phase waits for
   n - t = 5 messages; proposals need a > n/2 = 3.5 report majority;
   decisions need t + 1 = 3 agreeing proposals. *)

let protocol = Protocols.Ben_or.protocol ()

let rng () = Prng.Stream.root 7

let init ?(input = true) () = protocol.Dsim.Protocol.init ~n:7 ~t:2 ~id:0 ~input

let deliver state ~src m = protocol.Dsim.Protocol.on_deliver state ~src m (rng ())

(* What the tests read of a state is what [observe] exposes: phase 0
   collects reports, phase 1 proposals. *)
let observe state = protocol.Dsim.Protocol.observe state
let round_of state = (observe state).Dsim.Obs.round
let estimate_of state = (observe state).Dsim.Obs.estimate

let in_phase state phase =
  (observe state).Dsim.Obs.phase
  = (match phase with `Report -> 0 | `Propose -> 1)

let report round value = Protocols.Ben_or.Report { round; value }
let propose round value = Protocols.Ben_or.Propose { round; value }

let feed state messages =
  List.fold_left (fun s (src, m) -> deliver s ~src m) state messages

(* Drain the outbox and expand lazy broadcasts into the explicit
   (destination, message) pairs the engine would enqueue. *)
let drain state =
  let state, sends = protocol.Dsim.Protocol.outgoing state in
  (state, Dsim.Step.expand ~n:7 sends)

let test_init () =
  let state = init () in
  Alcotest.(check int) "round 1" 1 (round_of state);
  Alcotest.(check bool) "report phase" true
    (in_phase state `Report);
  let _, messages = drain state in
  Alcotest.(check int) "broadcasts reports" 7 (List.length messages);
  List.iter
    (fun (_, m) ->
      match m with
      | Protocols.Ben_or.Report { round; value } ->
          Alcotest.(check int) "round" 1 round;
          Alcotest.(check bool) "value" true value
      | Protocols.Ben_or.Propose _ -> Alcotest.fail "unexpected proposal")
    messages

let test_majority_report_proposes_value () =
  let state = init () in
  let state =
    feed state
      [
        (1, report 1 true); (2, report 1 true); (3, report 1 true);
        (4, report 1 true); (5, report 1 false);
      ]
  in
  Alcotest.(check bool) "now propose phase" true
    (in_phase state `Propose);
  let _, messages = drain state in
  let proposals =
    List.filter_map
      (fun (_, m) ->
        match m with Protocols.Ben_or.Propose { value; _ } -> Some value | _ -> None)
      messages
  in
  Alcotest.(check int) "proposed to all" 7 (List.length proposals);
  List.iter
    (fun v -> Alcotest.(check bool) "proposes Some true" true (v = Some true))
    proposals

let test_split_reports_propose_question () =
  let state, _ = drain (init ()) in
  let state =
    feed state
      [
        (1, report 1 true); (2, report 1 true); (3, report 1 true);
        (4, report 1 false); (5, report 1 false);
      ]
  in
  (* 3 of 5 is not > n/2 = 3.5 of all n. *)
  let _, messages = drain state in
  List.iter
    (fun (_, m) ->
      match m with
      | Protocols.Ben_or.Propose { value; _ } ->
          Alcotest.(check bool) "proposes ?" true (value = None)
      | Protocols.Ben_or.Report _ -> Alcotest.fail "unexpected report")
    messages

let to_propose_phase state =
  feed state
    [
      (1, report 1 true); (2, report 1 true); (3, report 1 true);
      (4, report 1 false); (5, report 1 false);
    ]

let test_decides_on_t_plus_1_proposals () =
  let state = to_propose_phase (init ()) in
  let state =
    feed state
      [
        (1, propose 1 (Some false)); (2, propose 1 (Some false));
        (3, propose 1 (Some false)); (4, propose 1 None); (5, propose 1 None);
      ]
  in
  Alcotest.(check bool) "decided 0" true
    (protocol.Dsim.Protocol.output state = Some false);
  Alcotest.(check int) "advanced to round 2" 2 (round_of state);
  Alcotest.(check (option bool)) "adopted decided value" (Some false)
    (estimate_of state)

let test_adopts_on_single_proposal () =
  let state = to_propose_phase (init ()) in
  let state =
    feed state
      [
        (1, propose 1 (Some false)); (2, propose 1 None); (3, propose 1 None);
        (4, propose 1 None); (5, propose 1 None);
      ]
  in
  Alcotest.(check bool) "no decision on 1 proposal" true
    (protocol.Dsim.Protocol.output state = None);
  Alcotest.(check (option bool)) "adopted the proposal" (Some false)
    (estimate_of state)

let test_coin_on_all_question () =
  let outcomes = ref [] in
  for seed = 1 to 30 do
    let r = Prng.Stream.root seed in
    let state = protocol.Dsim.Protocol.init ~n:7 ~t:2 ~id:0 ~input:true in
    let state =
      List.fold_left
        (fun s (src, m) -> protocol.Dsim.Protocol.on_deliver s ~src m r)
        state
        [
          (1, report 1 true); (2, report 1 true); (3, report 1 true);
          (4, report 1 false); (5, report 1 false);
          (1, propose 1 None); (2, propose 1 None); (3, propose 1 None);
          (4, propose 1 None); (5, propose 1 None);
        ]
    in
    outcomes := estimate_of state :: !outcomes
  done;
  Alcotest.(check bool) "both coin values occur" true
    (List.mem (Some true) !outcomes && List.mem (Some false) !outcomes)

let test_future_round_buffered () =
  let state = init () in
  let state = feed state [ (1, report 2 true) ] in
  Alcotest.(check int) "still round 1" 1 (round_of state);
  (* Complete round 1 (all-true reports then all-true proposals). *)
  let state =
    feed state
      [
        (1, report 1 true); (2, report 1 true); (3, report 1 true);
        (4, report 1 true); (5, report 1 true);
        (1, propose 1 (Some true)); (2, propose 1 (Some true));
        (3, propose 1 (Some true)); (4, propose 1 (Some true));
        (5, propose 1 (Some true));
      ]
  in
  Alcotest.(check int) "round 2" 2 (round_of state);
  Alcotest.(check bool) "decided" true (protocol.Dsim.Protocol.output state = Some true)

let test_duplicates_ignored () =
  let state = init () in
  let state =
    feed state
      [ (1, report 1 true); (1, report 1 true); (1, report 1 false); (2, report 1 true) ]
  in
  Alcotest.(check bool) "still in report phase (2 distinct senders)" true
    (in_phase state `Report)

let test_reset_restarts () =
  let state = to_propose_phase (init ()) in
  let state = protocol.Dsim.Protocol.on_reset state in
  Alcotest.(check int) "round restarts" 1 (round_of state);
  Alcotest.(check bool) "report phase" true
    (in_phase state `Report);
  let obs = protocol.Dsim.Protocol.observe state in
  Alcotest.(check int) "reset counted" 1 obs.Dsim.Obs.resets

let test_message_introspection () =
  Alcotest.(check bool) "report bit" true
    (protocol.Dsim.Protocol.message_bit (report 1 true) = Some true);
  Alcotest.(check bool) "question has no bit" true
    (protocol.Dsim.Protocol.message_bit (propose 1 None) = None);
  Alcotest.(check bool) "proposal bit" true
    (protocol.Dsim.Protocol.message_bit (propose 1 (Some false)) = Some false);
  (match protocol.Dsim.Protocol.rewrite_bit (propose 2 None) true with
  | Some (Protocols.Ben_or.Propose { round; value }) ->
      Alcotest.(check int) "round kept" 2 round;
      Alcotest.(check bool) "bit forged" true (value = Some true)
  | _ -> Alcotest.fail "expected rewritten proposal")

let test_validity_unanimous () =
  (* All processors with input 0 decide 0 in round 1 under fair
     delivery (validity, Definition 2). *)
  let n = 7 in
  let config =
    Dsim.Engine.init ~protocol ~n ~fault_bound:2 ~inputs:(Array.make n false) ~seed:3 ()
  in
  let outcome =
    Dsim.Runner.run_steps config
      ~strategy:(Adversary.Benign.lockstep ())
      ~max_steps:10_000 ~stop:`All_decided
  in
  Alcotest.(check int) "all decided" n (List.length outcome.Dsim.Runner.decided);
  List.iter
    (fun (_, v) -> Alcotest.(check bool) "decided 0" false v)
    outcome.Dsim.Runner.decided


(* A message for the current round copies one tally record and the
   six-field hot state, and nothing else.  At n = 9 under benign
   lockstep steps a whole run to decision read 65.5 minor words per
   delivery with one flat record and every round in two maps, 41.3
   after; the limit sits between the two. *)
let test_delivery_allocation () =
  let n = 9 in
  let config =
    Dsim.Engine.init ~protocol ~n ~fault_bound:((n - 1) / 5)
      ~inputs:(Agreement.Ensemble.split_inputs ~n 1) ~seed:1 ()
  in
  let before = Gc.minor_words () in
  let outcome =
    Dsim.Runner.run_steps config ~strategy:(Adversary.Benign.lockstep ())
      ~max_steps:100_000 ~stop:`All_decided
  in
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "all decide" n (List.length outcome.Dsim.Runner.decided);
  let delivered = Dsim.Trace.delivered (Dsim.Engine.trace config) in
  let per_delivery = words /. float_of_int delivered in
  if per_delivery >= 53.0 then
    Alcotest.failf "Ben-Or allocated %.2f minor words per delivery (limit 53)" per_delivery

(* --- differential against the flat-record predecessor ([Ben_or_oracle]) --- *)

type vote = R of bool | P of bool option

let show_vote = function
  | R v -> if v then "R1" else "R0"
  | P None -> "P?"
  | P (Some v) -> if v then "P1" else "P0"

let message round = function R value -> report round value | P value -> propose round value

(* A burst is mostly reports or mostly proposals of its main value;
   one vote in four is a fresh draw of either kind. *)
let ben_or_vote rs =
  let draw () =
    match Random.State.int rs 5 with
    | 0 | 1 -> R (Random.State.bool rs)
    | 2 -> P None
    | _ -> P (Some (Random.State.bool rs))
  in
  let main = draw () in
  fun () -> if Random.State.int rs 4 = 0 then draw () else main

let qcheck_ben_or_oracle =
  QCheck.Test.make ~count:300 ~name:"split state agrees with the flat-record oracle"
    (QCheck.make ~print:(Oracle_diff.show_case show_vote)
       (Oracle_diff.case_gen ~sizes:[| (6, 1); (9, 1); (11, 2); (26, 5) |] ~vote:ben_or_vote))
    (Oracle_diff.agrees protocol (Ben_or_oracle.protocol ()) ~message)

let suite =
  [
    Alcotest.test_case "init" `Quick test_init;
    Alcotest.test_case "majority report proposes value" `Quick
      test_majority_report_proposes_value;
    Alcotest.test_case "split reports propose ?" `Quick
      test_split_reports_propose_question;
    Alcotest.test_case "decides on t+1 proposals" `Quick test_decides_on_t_plus_1_proposals;
    Alcotest.test_case "adopts on single proposal" `Quick test_adopts_on_single_proposal;
    Alcotest.test_case "coin on all-?" `Quick test_coin_on_all_question;
    Alcotest.test_case "future round buffered" `Quick test_future_round_buffered;
    Alcotest.test_case "duplicates ignored" `Quick test_duplicates_ignored;
    Alcotest.test_case "reset restarts" `Quick test_reset_restarts;
    Alcotest.test_case "message introspection" `Quick test_message_introspection;
    Alcotest.test_case "validity unanimous" `Quick test_validity_unanimous;
    Alcotest.test_case "delivery allocation" `Quick test_delivery_allocation;
    Test_seed.to_alcotest qcheck_ben_or_oracle;
  ]
