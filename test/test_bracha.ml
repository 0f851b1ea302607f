(* Bracha's protocol: integration-level behaviour on the engine plus
   the tag arithmetic and message introspection. *)

let protocol = Protocols.Bracha.protocol ()

let test_tag_arithmetic () =
  Alcotest.(check int) "round 1 phase 1" 5 (Protocols.Bracha.tag_of ~round:1 ~phase:1);
  Alcotest.(check int) "round 3 phase 2" 14 (Protocols.Bracha.tag_of ~round:3 ~phase:2);
  (* Tags are strictly increasing along (round, phase). *)
  let tags =
    List.concat_map
      (fun round -> List.map (fun phase -> Protocols.Bracha.tag_of ~round ~phase) [ 1; 2; 3 ])
      [ 1; 2; 3 ]
  in
  let rec increasing = function
    | a :: (b :: _ as rest) -> a < b && increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "monotone" true (increasing tags)

let test_message_introspection () =
  let m =
    Protocols.Reliable_broadcast.Echo
      { origin = 4; tag = Protocols.Bracha.tag_of ~round:2 ~phase:3;
        payload = Protocols.Bracha.Dec true }
  in
  Alcotest.(check bool) "bit of Dec" true (protocol.Dsim.Protocol.message_bit m = Some true);
  Alcotest.(check bool) "round decoded" true
    (protocol.Dsim.Protocol.message_round m = Some 2);
  Alcotest.(check bool) "origin is the relayed vote's owner" true
    (protocol.Dsim.Protocol.message_origin m = Some 4);
  match protocol.Dsim.Protocol.rewrite_bit m false with
  | Some (Protocols.Reliable_broadcast.Echo { payload = Protocols.Bracha.Dec false; _ }) -> ()
  | _ -> Alcotest.fail "rewrite must preserve the Dec constructor"

let run ~n ~t ~inputs ~seed ~strategy ~max_steps ~stop =
  let config = Dsim.Engine.init ~protocol ~n ~fault_bound:t ~inputs ~seed () in
  (Dsim.Runner.run_steps config ~strategy ~max_steps ~stop, config)

let test_unanimous_first_round () =
  let n = 7 in
  let outcome, config =
    run ~n ~t:2 ~inputs:(Array.make n true) ~seed:1
      ~strategy:(Adversary.Benign.lockstep ()) ~max_steps:100_000 ~stop:`All_decided
  in
  Alcotest.(check int) "all decide" n (List.length outcome.Dsim.Runner.decided);
  List.iter (fun (_, v) -> Alcotest.(check bool) "value 1" true v) outcome.Dsim.Runner.decided;
  (* Decision happens within the first round (observe round <= 2). *)
  let first_decider =
    match outcome.Dsim.Runner.first_decision with
    | Some (pid, _, _, _, _) -> pid
    | None -> Alcotest.fail "no decision"
  in
  Alcotest.(check bool) "decided early" true
    ((Dsim.Engine.observe config first_decider).Dsim.Obs.round <= 2)

let test_validity_zero () =
  let n = 7 in
  let outcome, _ =
    run ~n ~t:2 ~inputs:(Array.make n false) ~seed:2
      ~strategy:(Adversary.Benign.lockstep ()) ~max_steps:100_000 ~stop:`All_decided
  in
  List.iter (fun (_, v) -> Alcotest.(check bool) "value 0" false v) outcome.Dsim.Runner.decided

let test_agreement_under_echo_chamber () =
  for seed = 1 to 5 do
    let n = 7 in
    let inputs = Array.init n (fun i -> (i + seed) mod 2 = 0) in
    let outcome, _ =
      run ~n ~t:2 ~inputs ~seed
        ~strategy:(Adversary.Echo_chamber.stepwise ())
        ~max_steps:500_000 ~stop:`All_decided
    in
    Alcotest.(check bool) "no conflict" false outcome.Dsim.Runner.conflict;
    let verdict = Agreement.Correctness.of_outcome ~inputs outcome in
    Alcotest.(check bool) "validity" true verdict.Agreement.Correctness.validity
  done

let test_agreement_under_byzantine_flip () =
  (* Safety must survive vote flipping within t < n/3 (liveness may
     suffer; we only require no conflicting decisions). *)
  for seed = 1 to 5 do
    let n = 7 in
    let inputs = Array.init n (fun i -> (i + seed) mod 2 = 0) in
    let outcome, _ =
      run ~n ~t:2 ~inputs ~seed
        ~strategy:
          (Adversary.Byzantine.lockstep ~corrupt:[ 0; 1 ] ~flavour:Adversary.Byzantine.Flip
             ())
        ~max_steps:150_000 ~stop:`All_decided
    in
    Alcotest.(check bool) "no conflict under flip" false outcome.Dsim.Runner.conflict
  done

(* --- validation filter --- *)

let vprotocol = Protocols.Bracha.protocol ~validated:true ()

let accept_vote state ~origin ~tag ~payload ~rng =
  (* Drive an RBC acceptance by delivering 2t+1 = 5 matching readies. *)
  let deliver s src =
    vprotocol.Dsim.Protocol.on_deliver s ~src
      (Protocols.Reliable_broadcast.Ready { origin; tag; payload })
      rng
  in
  List.fold_left deliver state [ 1; 2; 3; 4; 5 ]

let test_validated_quarantines_forged_dec () =
  let rng = Prng.Stream.root 5 in
  let state = vprotocol.Dsim.Protocol.init ~n:7 ~t:2 ~id:0 ~input:true in
  (* A Dec vote for round 1 phase 3 with no admitted phase-2 votes at
     all cannot be justified: it must sit in quarantine. *)
  let tag3 = Protocols.Bracha.tag_of ~round:1 ~phase:3 in
  let state =
    accept_vote state ~origin:6 ~tag:tag3 ~payload:(Protocols.Bracha.Dec false) ~rng
  in
  Alcotest.(check int) "forged Dec quarantined" 1
    (Protocols.Bracha.quarantined_count state);
  (* Justification is a chain: phase-2 votes need phase-1 support
     themselves.  Admit 3 phase-1 votes for false... *)
  let tag1 = Protocols.Bracha.tag_of ~round:1 ~phase:1 in
  let state =
    List.fold_left
      (fun s origin ->
        accept_vote s ~origin ~tag:tag1 ~payload:(Protocols.Bracha.Val false) ~rng)
      state [ 1; 2; 3 ]
  in
  Alcotest.(check int) "Dec still unjustified" 1
    (Protocols.Bracha.quarantined_count state);
  (* ...then 4 = floor(7/2)+1 phase-2 votes for false, which releases
     the decision candidate transitively. *)
  let tag2 = Protocols.Bracha.tag_of ~round:1 ~phase:2 in
  let state =
    List.fold_left
      (fun s origin ->
        accept_vote s ~origin ~tag:tag2 ~payload:(Protocols.Bracha.Val false) ~rng)
      state [ 1; 2; 3; 4 ]
  in
  Alcotest.(check int) "justified Dec released" 0
    (Protocols.Bracha.quarantined_count state)

let test_validated_phase2_needs_phase1_support () =
  let rng = Prng.Stream.root 6 in
  let state = vprotocol.Dsim.Protocol.init ~n:7 ~t:2 ~id:0 ~input:true in
  let tag2 = Protocols.Bracha.tag_of ~round:1 ~phase:2 in
  (* Phase-2 Val without any phase-1 support: quarantined. *)
  let state =
    accept_vote state ~origin:6 ~tag:tag2 ~payload:(Protocols.Bracha.Val true) ~rng
  in
  Alcotest.(check int) "unsupported phase-2 vote held" 1
    (Protocols.Bracha.quarantined_count state);
  (* Admit 3 = floor((n-t)/2)+1 phase-1 votes for true: released. *)
  let tag1 = Protocols.Bracha.tag_of ~round:1 ~phase:1 in
  let state =
    List.fold_left
      (fun s origin ->
        accept_vote s ~origin ~tag:tag1 ~payload:(Protocols.Bracha.Val true) ~rng)
      state [ 1; 2; 3 ]
  in
  Alcotest.(check int) "released once supported" 0
    (Protocols.Bracha.quarantined_count state)

let test_validated_liveness () =
  (* The validated protocol still terminates under fair scheduling and
     under the Byzantine flip adversary's stress, without conflicts. *)
  let n = 7 in
  let run_v ~inputs ~seed ~strategy ~max_steps =
    let config =
      Dsim.Engine.init ~protocol:vprotocol ~n ~fault_bound:2 ~inputs ~seed ()
    in
    Dsim.Runner.run_steps config ~strategy ~max_steps ~stop:`All_decided
  in
  let outcome =
    run_v ~inputs:(Array.make n true) ~seed:3
      ~strategy:(Adversary.Benign.lockstep ()) ~max_steps:200_000
  in
  Alcotest.(check int) "validated unanimous decides" n
    (List.length outcome.Dsim.Runner.decided);
  let inputs = Array.init n (fun i -> i mod 2 = 0) in
  let outcome =
    run_v ~inputs ~seed:4
      ~strategy:
        (Adversary.Byzantine.lockstep ~corrupt:[ 0 ] ~flavour:Adversary.Byzantine.Flip ())
      ~max_steps:300_000
  in
  Alcotest.(check bool) "no conflict with validation under flip" false
    outcome.Dsim.Runner.conflict

let test_validation_restores_liveness_under_flip () =
  (* At boundary resilience (n = 7, t = 2) the vote-flipping adversary
     stalls plain Bracha for a very long time, but the validation
     filter quarantines the corrupt votes' influence and decisions
     return.  Fixed seeds keep this deterministic. *)
  let n = 7 in
  let budget = 300_000 in
  let run protocol seed =
    let inputs = Array.init n (fun i -> (i + seed) mod 2 = 0) in
    let config = Dsim.Engine.init ~protocol ~n ~fault_bound:2 ~inputs ~seed () in
    Dsim.Runner.run_steps config
      ~strategy:
        (Adversary.Byzantine.lockstep ~corrupt:[ 0; 1 ] ~flavour:Adversary.Byzantine.Flip
           ())
      ~max_steps:budget ~stop:`All_decided
  in
  for seed = 1 to 3 do
    let plain = run (Protocols.Bracha.protocol ()) seed in
    let validated = run (Protocols.Bracha.protocol ~validated:true ()) seed in
    Alcotest.(check bool)
      (Printf.sprintf "plain stalls (seed %d)" seed)
      true
      (plain.Dsim.Runner.reason = Dsim.Runner.Budget_exhausted);
    Alcotest.(check bool)
      (Printf.sprintf "validated decides (seed %d)" seed)
      true
      (validated.Dsim.Runner.reason = Dsim.Runner.Stopped);
    Alcotest.(check bool) "validated no conflict" false validated.Dsim.Runner.conflict
  done

let test_crash_tolerance () =
  let n = 7 in
  let inputs = Array.init n (fun i -> i mod 2 = 0) in
  let outcome, _ =
    run ~n ~t:2 ~inputs ~seed:4
      ~strategy:(Adversary.Crash.at_start ~crash:[ 5; 6 ])
      ~max_steps:500_000 ~stop:`All_decided
  in
  Alcotest.(check bool) "terminates with 2 crashes" true
    (outcome.Dsim.Runner.reason = Dsim.Runner.Stopped);
  Alcotest.(check int) "5 live deciders" 5 (List.length outcome.Dsim.Runner.decided);
  Alcotest.(check bool) "no conflict" false outcome.Dsim.Runner.conflict

(* A delivery that accepts nothing copies the RBC state's three fields,
   Bracha's hot record and one instance, and path-copies one int-keyed
   map.  At n = 16 under benign windows a whole run to decision read
   91.5 minor words per delivery with a tuple-keyed instance map and
   flat records, 61.5 after; the limit sits between the two. *)
let test_delivery_allocation () =
  let n = 16 in
  let config =
    Dsim.Engine.init ~protocol ~n ~fault_bound:((n - 1) / 3)
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
  if per_delivery >= 75.0 then
    Alcotest.failf "Bracha allocated %.2f minor words per delivery (limit 75)" per_delivery

let suite =
  [
    Alcotest.test_case "tag arithmetic" `Quick test_tag_arithmetic;
    Alcotest.test_case "message introspection" `Quick test_message_introspection;
    Alcotest.test_case "unanimous first round" `Quick test_unanimous_first_round;
    Alcotest.test_case "validity zero" `Quick test_validity_zero;
    Alcotest.test_case "agreement under echo chamber" `Quick
      test_agreement_under_echo_chamber;
    Alcotest.test_case "agreement under byzantine flip" `Quick
      test_agreement_under_byzantine_flip;
    Alcotest.test_case "validated quarantines forged Dec" `Quick
      test_validated_quarantines_forged_dec;
    Alcotest.test_case "validated phase-2 needs phase-1 support" `Quick
      test_validated_phase2_needs_phase1_support;
    Alcotest.test_case "validated liveness" `Quick test_validated_liveness;
    Alcotest.test_case "validation restores liveness under flip" `Quick
      test_validation_restores_liveness_under_flip;
    Alcotest.test_case "crash tolerance" `Quick test_crash_tolerance;
    Alcotest.test_case "delivery allocation" `Quick test_delivery_allocation;
  ]
