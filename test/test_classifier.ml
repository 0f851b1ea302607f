(* The dynamic Definitions 15/16 classifier. *)

let check protocol ~n ~t =
  Protocols.Classifier.check protocol ~n ~t ~seeds:[ 1; 2; 3 ] ~windows_per_run:15

let test_lewko_consistent () =
  let report = check (Protocols.Lewko_variant.protocol ()) ~n:13 ~t:2 in
  Alcotest.(check bool) "declared forgetful" true
    report.Protocols.Classifier.declared_forgetful;
  (match report.Protocols.Classifier.forgetful with
  | Protocols.Classifier.No_counterexample trials ->
      Alcotest.(check bool) "performed checks" true (trials > 100)
  | Protocols.Classifier.Counterexample w -> Alcotest.fail ("false positive: " ^ w));
  (match report.Protocols.Classifier.fully_communicative with
  | Protocols.Classifier.No_counterexample _ -> ()
  | Protocols.Classifier.Counterexample w -> Alcotest.fail ("false positive: " ^ w));
  Alcotest.(check bool) "consistent" true (Protocols.Classifier.consistent report)

let test_ben_or_consistent () =
  let report = check (Protocols.Ben_or.protocol ()) ~n:9 ~t:2 in
  (match report.Protocols.Classifier.forgetful with
  | Protocols.Classifier.No_counterexample _ -> ()
  | Protocols.Classifier.Counterexample w ->
      Alcotest.fail ("ben-or is forgetful; classifier claimed: " ^ w));
  Alcotest.(check bool) "consistent" true (Protocols.Classifier.consistent report)

let test_bracha_consistent () =
  let report = check (Protocols.Bracha.protocol ()) ~n:7 ~t:2 in
  Alcotest.(check bool) "declared not forgetful" false
    report.Protocols.Classifier.declared_forgetful;
  (* Whatever the dynamic evidence, a declared-false property can never
     be inconsistent. *)
  Alcotest.(check bool) "consistent" true (Protocols.Classifier.consistent report)

(* A deliberately memoryful protocol: its message text is constant
   ("ping"), but *how many* broadcasts it queues depends on the total
   number of messages it has EVER received (two on even lifetimes, one
   on odd ones) — data from before its last sending event.  The classifier must find two states with equal
   forgetful-cores (same input, estimate and recent deliveries) about
   to send different things. *)
type memoryful_state = {
  id : int;
  n : int;
  input : bool;
  lifetime_received : int;
  outbox : string list;
}

let memoryful : (memoryful_state, string) Dsim.Protocol.t =
  {
    Dsim.Protocol.name = "memoryful-toy";
    init =
      (fun ~n ~t:_ ~id ~input ->
        {
          id;
          n;
          input;
          lifetime_received = 0;
          outbox = [ "ping" ];
        });
    outgoing =
      (fun s ->
        ({ s with outbox = [] }, List.map (fun m -> Dsim.Step.Broadcast m) s.outbox));
    on_deliver =
      (fun s ~src:_ _message _rng ->
        let lifetime_received = s.lifetime_received + 1 in
        let outbox =
          if lifetime_received mod 2 = 0 then [ "ping"; "ping" ] else [ "ping" ]
        in
        { s with lifetime_received; outbox });
    on_reset = (fun s -> { s with lifetime_received = 0; outbox = [] });
    output = (fun _ -> None);
    observe =
      (fun s ->
        Dsim.Obs.make ~id:s.id ~round:1 ~estimate:(Some s.input) ~output:None
          ~input:s.input ~resets:0 ~phase:0);
    message_bit = (fun _ -> None);
    message_round = (fun _ -> None);
    message_origin = (fun _ -> None);
    rewrite_bit = (fun _ _ -> None);
    state_core = (fun s -> Printf.sprintf "%d:%d" s.id s.lifetime_received);
    props = Dsim.Protocol.default_props;
    add_message = Buffer.add_string;
  }

let test_memoryful_detected () =
  let report =
    Protocols.Classifier.check memoryful ~n:5 ~t:1 ~seeds:[ 1; 2 ] ~windows_per_run:8
  in
  (match report.Protocols.Classifier.forgetful with
  | Protocols.Classifier.Counterexample _ -> ()
  | Protocols.Classifier.No_counterexample _ ->
      Alcotest.fail "classifier missed the lifetime counter");
  (* Declared not-forgetful (default props), so still consistent. *)
  Alcotest.(check bool) "consistent" true (Protocols.Classifier.consistent report)

let test_consistency_logic () =
  let base =
    {
      Protocols.Classifier.protocol_name = "x";
      declared_forgetful = true;
      declared_fully_communicative = true;
      forgetful = Protocols.Classifier.No_counterexample 10;
      fully_communicative = Protocols.Classifier.No_counterexample 10;
    }
  in
  Alcotest.(check bool) "clean report" true (Protocols.Classifier.consistent base);
  Alcotest.(check bool) "declared-true + counterexample = inconsistent" false
    (Protocols.Classifier.consistent
       { base with Protocols.Classifier.forgetful = Protocols.Classifier.Counterexample "w" });
  Alcotest.(check bool) "declared-false + counterexample = fine" true
    (Protocols.Classifier.consistent
       {
         base with
         Protocols.Classifier.declared_forgetful = false;
         forgetful = Protocols.Classifier.Counterexample "w";
       })

let suite =
  [
    Alcotest.test_case "lewko consistent" `Quick test_lewko_consistent;
    Alcotest.test_case "ben-or consistent" `Quick test_ben_or_consistent;
    Alcotest.test_case "bracha consistent" `Quick test_bracha_consistent;
    Alcotest.test_case "memoryful protocol detected" `Quick test_memoryful_detected;
    Alcotest.test_case "consistency logic" `Quick test_consistency_logic;
  ]
