(* Vote tallies with sender deduplication. *)

module Tally = Protocols.Tally

let votes t =
  let acc = ref [] in
  Tally.iter (fun src code -> acc := (src, code) :: !acc) t;
  List.rev !acc

let of_votes votes =
  List.fold_left (fun t (src, code) -> Tally.add t ~src code) Tally.empty votes

let test_empty () =
  Alcotest.(check int) "count" 0 (Tally.count Tally.empty);
  Alcotest.(check (list (pair int int))) "no votes" [] (votes Tally.empty)

let test_counting () =
  let t = of_votes [ (0, 1); (1, 1); (2, 0); (3, 2); (4, 3); (5, 3) ] in
  Alcotest.(check int) "count" 6 (Tally.count t);
  Alcotest.(check (list int)) "per code" [ 1; 2; 1; 2 ]
    (List.map (Tally.count_value t) [ 0; 1; 2; 3 ])

let test_dedup () =
  let t = Tally.add Tally.empty ~src:0 1 in
  Alcotest.(check bool) "duplicate returns the same tally" true
    (Tally.add t ~src:0 0 == t);
  Alcotest.(check int) "duplicate ignored" 1 (Tally.count t);
  Alcotest.(check int) "first vote kept" 1 (Tally.count_value t 1);
  Alcotest.(check bool) "sender recorded" true (Tally.mem t 0);
  Alcotest.(check bool) "other sender absent" false (Tally.mem t 1)

let test_iter () =
  let t = of_votes [ (5, 1); (1, 0); (3, 3) ] in
  Alcotest.(check (list (pair int int))) "ascending src" [ (1, 0); (3, 3); (5, 1) ]
    (votes t)

let test_bounds () =
  Alcotest.check_raises "code 4" (Invalid_argument "Tally.add: code outside [0, 4)")
    (fun () -> ignore (Tally.add Tally.empty ~src:0 4));
  Alcotest.check_raises "code -1" (Invalid_argument "Tally.add: code outside [0, 4)")
    (fun () -> ignore (Tally.add Tally.empty ~src:0 (-1)));
  Alcotest.check_raises "src -1" (Invalid_argument "Tally.add: negative sender")
    (fun () -> ignore (Tally.add Tally.empty ~src:(-1) 0));
  (* Fill one code's count field to its limit, then one sender more. *)
  let full = ref Tally.empty in
  for src = 1 to (1 lsl 20) - 1 do
    full := Tally.add !full ~src 2
  done;
  Alcotest.(check int) "count at the bound" ((1 lsl 20) - 1) (Tally.count !full);
  Alcotest.(check (list int)) "no carry into other codes" [ 0; 0; (1 lsl 20) - 1; 0 ]
    (List.map (Tally.count_value !full) [ 0; 1; 2; 3 ]);
  Alcotest.(check int) "a known sender is still a duplicate" ((1 lsl 20) - 1)
    (Tally.count (Tally.add !full ~src:1 0));
  Alcotest.check_raises "one sender past the bound"
    (Invalid_argument "Tally.add: more than 2^20 - 1 senders")
    (fun () -> ignore (Tally.add !full ~src:0 2))

(* Differential check against a naive first-vote-wins association list:
   senders are drawn mostly from either side of the boundary between
   chunk 0 (senders 0 to 19, kept in the record) and the chunks of the
   map (20 up), so duplicates are common and most tallies mix both, and
   sometimes from the whole [0, 10^4] range.  [iter] must give every
   vote in ascending senders, chunk 0's first. *)
let prop_matches_naive =
  let src =
    QCheck.Gen.(
      frequency [ (3, int_range 0 19); (3, int_range 20 45); (1, int_range 0 10_000) ])
  in
  let vote = QCheck.Gen.(pair src (int_range 0 3)) in
  QCheck.Test.make ~count:300 ~name:"tally matches a first-vote-wins list"
    QCheck.(
      make
        ~print:Print.(list (pair int int))
        Gen.(list_size (int_range 0 400) vote))
    (fun input ->
      let naive =
        List.fold_left
          (fun acc (src, code) ->
            if List.mem_assoc src acc then acc else (src, code) :: acc)
          [] input
      in
      let t = of_votes input in
      let sorted = List.sort (fun (a, _) (b, _) -> Int.compare a b) naive in
      let probes = (-1, 0) :: (10_001, 0) :: List.init 46 (fun src -> (src, 0)) @ input in
      Tally.count t = List.length naive
      && List.for_all
           (fun code ->
             Tally.count_value t code
             = List.length (List.filter (fun (_, c) -> c = code) naive))
           [ 0; 1; 2; 3 ]
      && List.for_all (fun (src, _) -> Tally.mem t src = List.mem_assoc src naive) probes
      && votes t = sorted)

let suite =
  [
    Alcotest.test_case "empty" `Quick test_empty;
    Alcotest.test_case "counting" `Quick test_counting;
    Alcotest.test_case "dedup" `Quick test_dedup;
    Alcotest.test_case "iter ascending" `Quick test_iter;
    Alcotest.test_case "code and sender bounds" `Quick test_bounds;
    Test_seed.to_alcotest prop_matches_naive;
  ]
