(* Tests for the message buffer. *)

let add ?(src = 0) ?(count = 2) mb first =
  Dsim.Mailbox.add_broadcast mb ~first ~count ~src
    ~payload:(Printf.sprintf "m%d" first) ~depth:1

(* Every pending envelope as (id, src, dst, payload), ascending id. *)
let pending mb =
  let acc = ref [] in
  Dsim.Mailbox.iter_range mb ~from:0 ~til:max_int acc
    (fun acc ~id ~src ~dst ~depth:_ payload -> acc := (id, src, dst, payload) :: !acc);
  List.rev !acc

let envelope = Alcotest.(list (pair (pair int int) (pair int string)))
let view l = List.map (fun (id, src, dst, payload) -> ((id, src), (dst, payload))) l

let test_add_take () =
  let mb = Dsim.Mailbox.create () in
  add mb 1;
  Alcotest.(check int) "size" 2 (Dsim.Mailbox.size mb);
  let taken = ref [] in
  let take id =
    Dsim.Mailbox.take_with mb id taken (fun taken ~id:_ ~src:_ ~dst ~depth:_ payload ->
        taken := (dst, payload) :: !taken)
  in
  Alcotest.(check bool) "take hits" true (take 2);
  Alcotest.(check (list (pair int string))) "dst and payload" [ (1, "m1") ] !taken;
  Alcotest.(check int) "size after take" 1 (Dsim.Mailbox.size mb);
  Alcotest.(check bool) "take again misses" false (take 2);
  Alcotest.(check (list (pair int string))) "no second visit" [ (1, "m1") ] !taken

let test_duplicate_id () =
  let mb = Dsim.Mailbox.create () in
  add mb 1;
  Alcotest.check_raises "overlapping ids"
    (Invalid_argument "Mailbox.add_broadcast: ids not fresh") (fun () -> add mb 2)

let test_pending_order () =
  let mb = Dsim.Mailbox.create () in
  add mb 1;
  add ~count:3 mb 5;
  ignore (Dsim.Mailbox.take_with mb 6 () (fun () ~id:_ ~src:_ ~dst:_ ~depth:_ _ -> ()));
  Alcotest.(check (list int)) "ascending ids" [ 1; 2; 5; 7 ] (Dsim.Mailbox.pending_ids mb);
  Alcotest.check envelope "range walk hands out fields"
    (view [ (2, 0, 1, "m1"); (5, 0, 0, "m5") ])
    (view
       (let acc = ref [] in
        Dsim.Mailbox.iter_range mb ~from:2 ~til:7 acc
          (fun acc ~id ~src ~dst ~depth:_ payload -> acc := (id, src, dst, payload) :: !acc);
        List.rev !acc))

let test_pending_filters () =
  let mb = Dsim.Mailbox.create () in
  add ~src:0 ~count:3 mb 0;
  add ~src:3 mb 3;
  let ids = ref [] in
  Dsim.Mailbox.iter_for mb ~dst:1 ids (fun ids ~id ~src:_ ~dst:_ ~depth:_ _ ->
      ids := id :: !ids);
  Alcotest.(check (list int)) "for dst 1, ascending" [ 1; 4 ] (List.rev !ids)

(* The window delivery walk: only in-range, allowed envelopes for [dst]
   are removed and visited, ascending; everything else stays pending. *)
let test_drain_for () =
  let mb = Dsim.Mailbox.create () in
  List.iteri (fun src first -> add ~src:(src mod 3) mb first) [ 0; 2; 4; 6; 8 ];
  let drained = ref [] in
  Dsim.Mailbox.drain_for mb ~dst:1 ~from:2 ~til:9
    ~allow:(fun ~dst:_ ~src -> src <> 1)
    drained
    (fun drained ~id ~src:_ ~dst:_ ~depth:_ _ -> drained := id :: !drained);
  Alcotest.(check (list int)) "drained ascending" [ 5; 7 ] (List.rev !drained);
  Alcotest.(check (list int)) "rest pending" [ 0; 1; 2; 3; 4; 6; 8; 9 ]
    (Dsim.Mailbox.pending_ids mb)

(* Corruption overrides one destination's payload; its id, its place
   and the other destinations are untouched, and taking it ends the
   override. *)
let test_replace_payload () =
  let mb = Dsim.Mailbox.create () in
  add ~count:3 mb 0;
  Alcotest.(check bool) "replace hits" true (Dsim.Mailbox.replace_payload mb 1 "corrupted");
  Alcotest.check envelope "rewritten in place"
    (view [ (0, 0, 0, "m0"); (1, 0, 1, "corrupted"); (2, 0, 2, "m0") ])
    (view (pending mb));
  let taken = ref "" in
  ignore
    (Dsim.Mailbox.take_with mb 1 taken (fun taken ~id:_ ~src:_ ~dst:_ ~depth:_ payload ->
         taken := payload));
  Alcotest.(check string) "taken with its override" "corrupted" !taken;
  Alcotest.(check bool) "replace of a taken id misses" false
    (Dsim.Mailbox.replace_payload mb 1 "x");
  Alcotest.(check bool) "replace misses" false (Dsim.Mailbox.replace_payload mb 9 "x")

let test_copy_isolation () =
  let mb = Dsim.Mailbox.create () in
  add mb 0;
  let copy = Dsim.Mailbox.copy mb in
  ignore (Dsim.Mailbox.replace_payload copy 0 "x");
  ignore (Dsim.Mailbox.take_with copy 1 () (fun () ~id:_ ~src:_ ~dst:_ ~depth:_ _ -> ()));
  Alcotest.check envelope "original untouched"
    (view [ (0, 0, 0, "m0"); (1, 0, 1, "m0") ])
    (view (pending mb));
  Alcotest.check envelope "copy rewritten and drained" (view [ (0, 0, 0, "x") ])
    (view (pending copy));
  add copy 2;
  Alcotest.(check (list int)) "original lacks new" [ 0; 1 ] (Dsim.Mailbox.pending_ids mb)

let test_empty () =
  let mb = Dsim.Mailbox.create () in
  Alcotest.(check int) "size" 0 (Dsim.Mailbox.size mb);
  Alcotest.(check (list int)) "no pending" [] (Dsim.Mailbox.pending_ids mb)

let suite =
  [
    Alcotest.test_case "add/take" `Quick test_add_take;
    Alcotest.test_case "duplicate id" `Quick test_duplicate_id;
    Alcotest.test_case "pending order" `Quick test_pending_order;
    Alcotest.test_case "pending filters" `Quick test_pending_filters;
    Alcotest.test_case "drain_for" `Quick test_drain_for;
    Alcotest.test_case "replace payload" `Quick test_replace_payload;
    Alcotest.test_case "copy isolation" `Quick test_copy_isolation;
    Alcotest.test_case "empty" `Quick test_empty;
  ]
