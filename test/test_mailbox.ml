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

(* Dead entries stay in the table as the pool [add_broadcast] refills:
   once one window's broadcasts (13 of 13 destinations, as at n = 13)
   have been added and drained, the next window's adds allocate
   nothing. *)
let test_refill_allocates_nothing () =
  let n = 13 and payload = "m" in
  let mb = Dsim.Mailbox.create () in
  let window first =
    for src = 0 to n - 1 do
      Dsim.Mailbox.add_broadcast mb ~first:(first + (src * n)) ~count:n ~src ~payload
        ~depth:1
    done
  in
  window 0;
  for dst = 0 to n - 1 do
    Dsim.Mailbox.drain_for mb ~dst ~from:min_int ~til:max_int
      ~allow:(fun ~dst:_ ~src:_ -> true)
      () (fun () ~id:_ ~src:_ ~dst:_ ~depth:_ _ -> ())
  done;
  Alcotest.(check int) "drained" 0 (Dsim.Mailbox.size mb);
  let before = Gc.minor_words () in
  window (n * n);
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "refilled" (n * n) (Dsim.Mailbox.size mb);
  Alcotest.(check (float 0.)) "minor words of the second window's adds" 0. words

(* Differential check against a naive model: each mailbox is mirrored
   by its pending envelopes as an ascending list of
   (id, src, dst, depth, payload).  Random operations run against a
   growing family of mailboxes (the first one and copies of any of
   them, so copies are taken before refills and then mutated
   themselves); after every operation each mailbox's pending ids, size,
   per-destination walks and full walk must equal its model's.  Counts
   are small and vary, and whole-table drains are frequent, so tables
   empty, compact and are refilled in place, often at another count. *)
type op =
  | Add of { box : int; gap : int; count : int; src : int; depth : int }
  | Take of { box : int; pick : int }
  | Drain of { box : int; dst : int; from : int; til : int; allow : int }
  | Drain_all of int
  | Iter_range of { box : int; from : int; til : int }
  | Replace of { box : int; pick : int }
  | Copy of int

let print_op = function
  | Add { box; gap; count; src; depth } ->
      Printf.sprintf "add(box %d, gap %d, count %d, src %d, depth %d)" box gap count src
        depth
  | Take { box; pick } -> Printf.sprintf "take(box %d, pick %d)" box pick
  | Drain { box; dst; from; til; allow } ->
      Printf.sprintf "drain(box %d, dst %d, [%d, %d), allow %#x)" box dst from til allow
  | Drain_all box -> Printf.sprintf "drain-all(box %d)" box
  | Iter_range { box; from; til } ->
      Printf.sprintf "iter-range(box %d, [%d, %d))" box from til
  | Replace { box; pick } -> Printf.sprintf "replace(box %d, pick %d)" box pick
  | Copy box -> Printf.sprintf "copy(box %d)" box

let max_count = 4
let max_boxes = 5

let gen_op =
  let open QCheck.Gen in
  let box = int_range 0 (max_boxes - 1) and pick = int_range 0 1_000 in
  let id = int_range 0 300 in
  frequency
    [
      ( 6,
        map
          (fun (box, gap, count, (src, depth)) -> Add { box; gap; count; src; depth })
          (quad box (int_range 0 2)
             (frequency [ (2, return 1); (3, int_range 1 max_count) ])
             (pair (int_range 0 (max_count - 1)) (int_range 0 3))) );
      (4, map2 (fun box pick -> Take { box; pick }) box pick);
      ( 2,
        map
          (fun (box, dst, (from, til), allow) -> Drain { box; dst; from; til; allow })
          (quad box (int_range 0 (max_count - 1)) (pair id id) (int_range 0 255)) );
      (1, map (fun box -> Drain_all box) box);
      (1, map2 (fun box (from, til) -> Iter_range { box; from; til }) box (pair id id));
      (2, map2 (fun box pick -> Replace { box; pick }) box pick);
      (1, map (fun box -> Copy box) box);
    ]

type model = {
  mb : string Dsim.Mailbox.t;
  mutable env : (int * int * int * int * string) list;  (* ascending id *)
  mutable hi : int;
}

let visited = ref []

let record () ~id ~src ~dst ~depth payload =
  visited := (id, src, dst, depth, payload) :: !visited

let walk f =
  visited := [];
  f ();
  List.rev !visited

(* A pending id (or, for odd picks, any id up to just past [hi], which
   mostly misses), so takes and rewrites hit often. *)
let id_of m pick =
  if pick mod 2 = 0 && m.env <> [] then
    let id, _, _, _, _ = List.nth m.env (pick / 2 mod List.length m.env) in
    id
  else pick / 2 mod (m.hi + 2)

let allow_of mask ~dst ~src = (mask lsr (((src * max_count) + dst) mod 8)) land 1 = 1

let consistent m =
  let ids = List.map (fun (id, _, _, _, _) -> id) m.env in
  Dsim.Mailbox.pending_ids m.mb = ids
  && Dsim.Mailbox.size m.mb = List.length ids
  && walk (fun () -> Dsim.Mailbox.iter_range m.mb ~from:0 ~til:max_int () record) = m.env
  && List.for_all
       (fun dst ->
         walk (fun () -> Dsim.Mailbox.iter_for m.mb ~dst () record)
         = List.filter (fun (_, _, d, _, _) -> d = dst) m.env)
       (List.init max_count Fun.id)

(* Apply [op] to the mailbox it names and its model; [false] when a
   visit or a result disagrees with the model. *)
let step boxes serial op =
  let nth box = boxes.(box mod Array.length boxes) in
  let remove m taken = m.env <- List.filter (fun e -> not (List.mem e taken)) m.env in
  match op with
  | Add { box; gap; count; src; depth } ->
      let m = nth box in
      let first = m.hi + gap and payload = Printf.sprintf "p%d" serial in
      Dsim.Mailbox.add_broadcast m.mb ~first ~count ~src ~payload ~depth;
      m.env <- m.env @ List.init count (fun dst -> (first + dst, src, dst, depth, payload));
      m.hi <- first + count;
      (boxes, true)
  | Take { box; pick } ->
      let m = nth box in
      let id = id_of m pick in
      let expected = List.filter (fun (i, _, _, _, _) -> i = id) m.env in
      let hit = ref false in
      let got = walk (fun () -> hit := Dsim.Mailbox.take_with m.mb id () record) in
      remove m expected;
      (boxes, got = expected && !hit = (expected <> []))
  | Drain { box; dst; from; til; allow } ->
      let m = nth box in
      let expected =
        List.filter
          (fun (id, src, d, _, _) ->
            d = dst && id >= from && id < til && allow_of allow ~dst ~src)
          m.env
      in
      let got =
        walk (fun () ->
            Dsim.Mailbox.drain_for m.mb ~dst ~from ~til ~allow:(allow_of allow) () record)
      in
      remove m expected;
      (boxes, got = expected)
  | Drain_all box ->
      let m = nth box in
      for dst = 0 to max_count - 1 do
        Dsim.Mailbox.drain_for m.mb ~dst ~from:min_int ~til:max_int
          ~allow:(fun ~dst:_ ~src:_ -> true)
          () record
      done;
      m.env <- [];
      (boxes, true)
  | Iter_range { box; from; til } ->
      let m = nth box in
      let got = walk (fun () -> Dsim.Mailbox.iter_range m.mb ~from ~til () record) in
      (boxes, got = List.filter (fun (id, _, _, _, _) -> id >= from && id < til) m.env)
  | Replace { box; pick } ->
      let m = nth box in
      let id = id_of m pick and payload = Printf.sprintf "r%d" serial in
      let pending = List.exists (fun (i, _, _, _, _) -> i = id) m.env in
      m.env <-
        List.map
          (fun ((i, src, dst, depth, _) as e) ->
            if i = id then (i, src, dst, depth, payload) else e)
          m.env;
      (boxes, Dsim.Mailbox.replace_payload m.mb id payload = pending)
  | Copy box ->
      let m = nth box in
      let c = { mb = Dsim.Mailbox.copy m.mb; env = m.env; hi = m.hi } in
      (* At the cap, the copy takes the last slot; the first mailbox stays. *)
      if Array.length boxes < max_boxes then (Array.append boxes [| c |], true)
      else begin
        boxes.(max_boxes - 1) <- c;
        (boxes, true)
      end

let prop_matches_model =
  QCheck.Test.make ~count:300 ~name:"mailbox matches a list-of-envelopes model"
    QCheck.(
      make ~print:Print.(list print_op) ~shrink:Shrink.list
        Gen.(list_size (int_range 1 150) gen_op))
    (fun ops ->
      let rec run boxes serial = function
        | [] -> true
        | op :: rest ->
            let boxes, ok = step boxes serial op in
            ok && Array.for_all consistent boxes && run boxes (serial + 1) rest
      in
      run [| { mb = Dsim.Mailbox.create (); env = []; hi = 0 } |] 0 ops)

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
    Alcotest.test_case "refill allocates nothing" `Quick test_refill_allocates_nothing;
    Test_seed.to_alcotest prop_matches_model;
  ]
