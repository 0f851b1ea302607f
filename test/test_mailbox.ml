(* Tests for the message buffer. *)

let add ?(src = 0) ?(dst = 1) ?(depth = 1) mb id =
  Dsim.Mailbox.add_unicast mb ~id ~src ~dst ~payload:(Printf.sprintf "m%d" id)
    ~depth ~sent_at_step:0 ~sent_in_window:0

let test_add_take () =
  let mb = Dsim.Mailbox.create () in
  add mb 1;
  add mb 2;
  Alcotest.(check int) "size" 2 (Dsim.Mailbox.size mb);
  let taken = ref [] in
  let take id =
    Dsim.Mailbox.take_with mb id taken (fun taken ~id:_ ~src:_ ~dst:_ ~depth:_ payload ->
        taken := payload :: !taken)
  in
  Alcotest.(check bool) "take hits" true (take 1);
  Alcotest.(check (list string)) "payload" [ "m1" ] !taken;
  Alcotest.(check int) "size after take" 1 (Dsim.Mailbox.size mb);
  Alcotest.(check bool) "take again misses" false (take 1);
  Alcotest.(check (list string)) "no second visit" [ "m1" ] !taken

let test_duplicate_id () =
  let mb = Dsim.Mailbox.create () in
  add mb 1;
  Alcotest.check_raises "duplicate" (Invalid_argument "Mailbox.add: duplicate message id")
    (fun () -> add mb 1)

let test_pending_order () =
  let mb = Dsim.Mailbox.create () in
  List.iter (fun id -> add mb id) [ 5; 1; 3 ];
  let ids = Dsim.Mailbox.pending_ids mb in
  Alcotest.(check (list int)) "ascending ids" [ 1; 3; 5 ] ids

let test_pending_filters () =
  let mb = Dsim.Mailbox.create () in
  add ~src:0 ~dst:1 mb 1;
  add ~src:0 ~dst:2 mb 2;
  add ~src:3 ~dst:1 mb 3;
  Alcotest.(check (list int)) "for dst 1, ascending" [ 1; 3 ]
    (List.map
       (fun e -> e.Dsim.Envelope.id)
       (Dsim.Mailbox.pending_for mb ~dst:1))

(* The window delivery walk: only in-range, allowed envelopes for [dst]
   are removed and visited, ascending; everything else stays pending. *)
let test_drain_for () =
  let mb = Dsim.Mailbox.create () in
  List.iter (fun id -> add ~src:(id mod 3) ~dst:(id mod 2) mb id) [ 9; 3; 0; 4; 7; 12; 1 ];
  let drained = ref [] in
  Dsim.Mailbox.drain_for mb ~dst:1 ~from:2 ~til:10
    ~allow:(fun ~dst:_ ~src -> src <> 1)
    drained
    (fun drained ~id ~src:_ ~dst:_ ~depth:_ _ -> drained := id :: !drained);
  Alcotest.(check (list int)) "drained ascending" [ 3; 9 ] (List.rev !drained);
  Alcotest.(check (list int)) "rest pending" [ 0; 1; 4; 7; 12 ]
    (Dsim.Mailbox.pending_ids mb);
  Alcotest.check_raises "negative dst"
    (Invalid_argument "Mailbox.drain_for: negative dst") (fun () ->
      Dsim.Mailbox.drain_for mb ~dst:(-1) ~from:0 ~til:max_int
        ~allow:(fun ~dst:_ ~src:_ -> true)
        () (fun () ~id:_ ~src:_ ~dst:_ ~depth:_ _ -> ()))

let test_replace_payload () =
  let mb = Dsim.Mailbox.create () in
  add mb 1;
  Alcotest.(check bool) "replace hits" true (Dsim.Mailbox.replace_payload mb 1 "corrupted");
  (match Dsim.Mailbox.find mb 1 with
  | Some e -> Alcotest.(check string) "rewritten" "corrupted" e.Dsim.Envelope.payload
  | None -> Alcotest.fail "expected envelope");
  Alcotest.(check bool) "replace misses" false (Dsim.Mailbox.replace_payload mb 9 "x")

let test_copy_isolation () =
  let mb = Dsim.Mailbox.create () in
  add mb 1;
  let copy = Dsim.Mailbox.copy mb in
  ignore (Dsim.Mailbox.take_with copy 1 () (fun () ~id:_ ~src:_ ~dst:_ ~depth:_ _ -> ()));
  Alcotest.(check int) "original untouched" 1 (Dsim.Mailbox.size mb);
  Alcotest.(check int) "copy drained" 0 (Dsim.Mailbox.size copy);
  add copy 2;
  Alcotest.(check bool) "original lacks new" true (Dsim.Mailbox.find mb 2 = None)

let test_empty () =
  let mb = Dsim.Mailbox.create () in
  Alcotest.(check bool) "is_empty" true (Dsim.Mailbox.is_empty mb);
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
