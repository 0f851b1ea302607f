(* Vote tallies with sender deduplication. *)

let test_empty () =
  Alcotest.(check int) "count" 0 (Protocols.Tally.count Protocols.Tally.empty);
  Alcotest.(check (list int)) "no srcs" [] (Protocols.Tally.srcs Protocols.Tally.empty)

let test_counting () =
  let t = Protocols.Tally.add Protocols.Tally.empty ~src:0 true in
  let t = Protocols.Tally.add t ~src:1 true in
  let t = Protocols.Tally.add t ~src:2 false in
  Alcotest.(check int) "count" 3 (Protocols.Tally.count t);
  Alcotest.(check int) "ones" 2 (Protocols.Tally.count_value t true);
  Alcotest.(check int) "zeros" 1 (Protocols.Tally.count_value t false)

let test_dedup () =
  let t = Protocols.Tally.add Protocols.Tally.empty ~src:0 true in
  let t = Protocols.Tally.add t ~src:0 false in
  Alcotest.(check int) "duplicate ignored" 1 (Protocols.Tally.count t);
  Alcotest.(check int) "first vote kept" 1 (Protocols.Tally.count_value t true);
  Alcotest.(check (list int)) "one src" [ 0 ] (Protocols.Tally.srcs t)

let test_srcs_and_fingerprint () =
  let t = Protocols.Tally.add Protocols.Tally.empty ~src:5 true in
  let t = Protocols.Tally.add t ~src:1 false in
  Alcotest.(check (list int)) "srcs sorted" [ 1; 5 ] (Protocols.Tally.srcs t);
  Alcotest.(check string) "fingerprint" "1:0,5:1" (Protocols.Tally.fingerprint t)

let suite =
  [
    Alcotest.test_case "empty" `Quick test_empty;
    Alcotest.test_case "counting" `Quick test_counting;
    Alcotest.test_case "dedup" `Quick test_dedup;
    Alcotest.test_case "srcs and fingerprint" `Quick test_srcs_and_fingerprint;
  ]
