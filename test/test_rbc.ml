(* Reliable broadcast state machine: n = 7, t = 2, so the echo quorum
   is floor((7+2)/2) + 1 = 5, ready amplification needs t + 1 = 3, and
   acceptance needs 2t + 1 = 5 matching readies. *)

module Rbc = Protocols.Reliable_broadcast

(* The test payloads are "v" and "w". *)
let code = function "v" -> 0 | "w" -> 1 | p -> invalid_arg ("payload " ^ p)

let create ?(self = 0) () = Rbc.create ~quorums:Rbc.quorums ~n:7 ~t:2 ~self ~code ()

(* Expand lazy broadcast envelopes into the explicit (destination,
   message) pairs the engine would enqueue (n = 7 throughout). *)
let expand sends = Dsim.Step.expand ~n:7 sends

let kind = function
  | Rbc.Initial _ -> `Initial
  | Rbc.Echo _ -> `Echo
  | Rbc.Ready _ -> `Ready

let count_kind k messages =
  List.length (List.filter (fun (_, m) -> kind m = k) messages)

let test_broadcast_sends_initial () =
  let state = create () in
  let _, sends = Rbc.broadcast state ~tag:1 "v" in
  let sends = expand sends in
  Alcotest.(check int) "initial to all" 7 (List.length sends);
  Alcotest.(check int) "all initial" 7 (count_kind `Initial sends)

let test_broadcast_once_per_tag () =
  let state = create () in
  let state, _ = Rbc.broadcast state ~tag:1 "v" in
  let _, again = Rbc.broadcast state ~tag:1 "w" in
  Alcotest.(check int) "re-broadcast ignored" 0 (List.length again)

let test_initial_echoes () =
  let state = create () in
  let _, sends, accepted =
    Rbc.receive state ~src:3 (Rbc.Initial { tag = 5; payload = "v" })
  in
  let sends = expand sends in
  Alcotest.(check int) "echo to all" 7 (count_kind `Echo sends);
  Alcotest.(check (list (pair int string))) "nothing accepted yet" [] accepted;
  (* The echo names the true origin. *)
  List.iter
    (fun (_, m) ->
      match m with
      | Rbc.Echo { origin; tag; payload } ->
          Alcotest.(check int) "origin" 3 origin;
          Alcotest.(check int) "tag" 5 tag;
          Alcotest.(check string) "payload" "v" payload
      | _ -> ())
    sends

let test_duplicate_initial_ignored () =
  let state = create () in
  let state, _, _ = Rbc.receive state ~src:3 (Rbc.Initial { tag = 5; payload = "v" }) in
  let _, sends, _ = Rbc.receive state ~src:3 (Rbc.Initial { tag = 5; payload = "w" }) in
  Alcotest.(check int) "second initial silent" 0 (List.length sends)

let test_echo_quorum_triggers_ready () =
  let state = ref (create ()) in
  let total_readies = ref 0 in
  for src = 1 to 5 do
    let s, sends, _ =
      Rbc.receive !state ~src (Rbc.Echo { origin = 6; tag = 2; payload = "v" })
    in
    state := s;
    total_readies := !total_readies + count_kind `Ready (expand sends);
    if src < 5 then
      Alcotest.(check int)
        (Printf.sprintf "no ready at %d echoes" src)
        0 !total_readies
  done;
  Alcotest.(check int) "ready fired at 5 echoes" 7 !total_readies

let test_mismatched_echoes_do_not_quorum () =
  let state = ref (create ()) in
  let readies = ref 0 in
  (* 4 echoes for "v", 3 for "w": neither reaches the quorum of 5. *)
  List.iteri
    (fun i payload ->
      let s, sends, _ =
        Rbc.receive !state ~src:(i mod 7)
          (Rbc.Echo { origin = 6; tag = 2; payload })
      in
      state := s;
      readies := !readies + count_kind `Ready (expand sends))
    [ "v"; "w"; "v"; "w"; "v"; "w"; "v" ];
  Alcotest.(check int) "no ready from split echoes" 0 !readies

let test_ready_amplification () =
  (* t + 1 = 3 matching readies trigger our own ready even without an
     echo quorum. *)
  let state = ref (create ()) in
  let readies = ref 0 in
  for src = 1 to 3 do
    let s, sends, _ =
      Rbc.receive !state ~src (Rbc.Ready { origin = 6; tag = 2; payload = "v" })
    in
    state := s;
    readies := !readies + count_kind `Ready (expand sends)
  done;
  Alcotest.(check int) "amplified at t+1" 7 !readies

let test_acceptance_at_2t_plus_1 () =
  let state = ref (create ()) in
  let accepted_total = ref [] in
  for src = 1 to 5 do
    let s, _, accepted =
      Rbc.receive !state ~src (Rbc.Ready { origin = 6; tag = 2; payload = "v" })
    in
    state := s;
    accepted_total := !accepted_total @ accepted;
    if src < 5 then
      Alcotest.(check int) "not yet accepted" 0 (List.length !accepted_total)
  done;
  Alcotest.(check (list (pair int string))) "accepted once" [ (6, "v") ] !accepted_total;
  (* A 6th ready must not re-accept. *)
  let _, _, accepted =
    Rbc.receive !state ~src:6 (Rbc.Ready { origin = 6; tag = 2; payload = "v" })
  in
  Alcotest.(check int) "no double acceptance" 0 (List.length accepted)

let test_accepted_by_tag () =
  let state = ref (create ()) in
  let accepted = ref [] in
  let push origin tag =
    for src = 1 to 5 do
      let s, _, now =
        Rbc.receive !state ~src (Rbc.Ready { origin; tag; payload = "v" })
      in
      state := s;
      accepted := !accepted @ List.map (fun (o, p) -> (tag, (o, p))) now
    done
  in
  push 1 10;
  push 2 10;
  push 3 11;
  let at tag =
    List.filter_map (fun (t, acc) -> if t = tag then Some acc else None) !accepted
  in
  Alcotest.(check (list (pair int string))) "tag 10 accepts" [ (1, "v"); (2, "v") ]
    (at 10);
  Alcotest.(check int) "tag 11" 1 (List.length (at 11));
  Alcotest.(check int) "tag 12 empty" 0 (List.length (at 12))

let test_equivocation_safety () =
  (* An origin sends "v" to some and "w" to others (via corrupted
     initials).  Whatever happens, no processor can collect two
     accepted payloads for the same (origin, tag); here we check the
     quorum arithmetic directly: with n = 7, t = 2, echo quorums for
     two different payloads would need 10 > 7 echo senders. *)
  let state = ref (create ()) in
  let ready_payloads = ref [] in
  List.iteri
    (fun i payload ->
      let s, sends, _ =
        Rbc.receive !state ~src:i (Rbc.Echo { origin = 6; tag = 0; payload })
      in
      state := s;
      List.iter
        (fun (_, m) ->
          match m with
          | Rbc.Ready { payload; _ } -> ready_payloads := payload :: !ready_payloads
          | _ -> ())
        (expand sends))
    [ "v"; "v"; "v"; "w"; "w"; "v"; "v" ];
  (* "v" got 5 echoes -> one ready burst, all for "v". *)
  Alcotest.(check bool) "readies only for v" true
    (List.for_all (fun p -> p = "v") !ready_payloads);
  Alcotest.(check bool) "some ready fired" true (!ready_payloads <> [])

(* Full-network simulation of one RBC instance where the origin
   equivocates: payload "v" claimed to some processors, "w" to others.
   Under any delivery order, correct processors must never accept
   different payloads (agreement), and if anyone accepts, everyone does
   once all traffic is flushed (totality). *)
let simulate_equivocation ?(split = 3) ~seed () =
  let n = 7 and t = 2 in
  let states =
    Array.init n (fun self ->
        Rbc.create ~quorums:Rbc.quorums ~n ~t ~self ~code ())
  in
  let rng = Prng.Stream.root seed in
  (* The corrupt origin (processor 6) sends Initial("v") to the first
     [split] processors and Initial("w") to the rest; everything else
     is honest. *)
  let queue = ref [] in
  for dst = 0 to 5 do
    let payload = if dst < split then "v" else "w" in
    queue := (6, dst, Rbc.Initial { tag = 1; payload }) :: !queue
  done;
  let accepted = Array.make n [] in
  let rec drain () =
    match !queue with
    | [] -> ()
    | _ ->
        (* Deliver a uniformly random pending message. *)
        let arr = Array.of_list !queue in
        let i = Prng.Stream.int_below rng (Array.length arr) in
        let src, dst, message = arr.(i) in
        queue := List.filteri (fun j _ -> j <> i) (Array.to_list arr);
        let state, sends, now = Rbc.receive states.(dst) ~src message in
        states.(dst) <- state;
        accepted.(dst) <- accepted.(dst) @ now;
        List.iter (fun (to_, m) -> queue := (dst, to_, m) :: !queue) (expand sends);
        drain ()
  in
  drain ();
  accepted

let test_equivocation_agreement_property () =
  let saw_global_acceptance = ref false in
  List.iter
    (fun split ->
      for seed = 1 to 12 do
        let accepted = simulate_equivocation ~split ~seed () in
        let payloads =
          Array.to_list accepted |> List.concat |> List.map snd
          |> List.sort_uniq compare
        in
        Alcotest.(check bool)
          (Printf.sprintf "at most one payload accepted (split %d, seed %d)" split seed)
          true
          (List.length payloads <= 1);
        (* Totality: with all traffic flushed, acceptance is all-or-none. *)
        let acceptors =
          Array.to_list accepted |> List.filter (fun l -> l <> []) |> List.length
        in
        Alcotest.(check bool)
          (Printf.sprintf "all-or-none acceptance (split %d, seed %d)" split seed)
          true
          (acceptors = 0 || acceptors = 7);
        if acceptors = 7 then saw_global_acceptance := true
      done)
    [ 0; 3; 5; 6 ];
  (* A near-unanimous origin (split 5 or 6) must actually go through —
     the property is not vacuously all-none. *)
  Alcotest.(check bool) "acceptance occurs for consistent-enough origins" true
    !saw_global_acceptance

let test_fingerprint_changes () =
  let a = create () in
  let b, _, _ = Rbc.receive a ~src:1 (Rbc.Echo { origin = 2; tag = 0; payload = "v" }) in
  Alcotest.(check bool) "fingerprint reflects state" true
    (Rbc.fingerprint (fun s -> s) a <> Rbc.fingerprint (fun s -> s) b)

(* --- instance keys ---

   Instances are keyed by one packed int, so only origins in
   [\[0, 2^30)] and tags in [\[0, 2^32)] name an instance: anything
   else is ignored, with no state change, sends or acceptance. *)

let ignored state label message =
  let next, sends, accepted = Rbc.receive state ~src:1 message in
  Alcotest.(check string) (label ^ ": state unchanged")
    (Rbc.fingerprint Fun.id state) (Rbc.fingerprint Fun.id next);
  Alcotest.(check int) (label ^ ": no sends") 0 (List.length sends);
  Alcotest.(check (list (pair int string))) (label ^ ": no acceptance") [] accepted

let test_out_of_range_keys_ignored () =
  let state, _, _ =
    Rbc.receive (create ()) ~src:2 (Rbc.Echo { origin = 3; tag = 4; payload = "v" })
  in
  List.iter
    (fun (label, origin, tag) ->
      ignored state (label ^ " echo") (Rbc.Echo { origin; tag; payload = "v" });
      ignored state (label ^ " ready") (Rbc.Ready { origin; tag; payload = "v" }))
    [
      ("negative origin", -1, 4);
      ("origin 2^30", 1 lsl 30, 4);
      ("min_int origin", min_int, 4);
      ("negative tag", 3, -1);
      ("tag 2^32", 3, 1 lsl 32);
      ("max_int tag", 3, max_int);
    ];
  ignored state "initial tag 2^32" (Rbc.Initial { tag = 1 lsl 32; payload = "v" });
  (* A full accept quorum outside the range still accepts nothing. *)
  let state = ref state in
  for src = 1 to 5 do
    let next, _, accepted =
      Rbc.receive !state ~src (Rbc.Ready { origin = 3; tag = -4; payload = "v" })
    in
    Alcotest.(check (list (pair int string))) "no acceptance at tag -4" [] accepted;
    state := next
  done

(* The largest keys in range stay distinct and in (origin, tag) order. *)
let test_key_range_edges () =
  let top_tag = (1 lsl 32) - 1 and top_origin = (1 lsl 30) - 1 in
  let state =
    List.fold_left
      (fun s (origin, tag) ->
        let s, _, _ = Rbc.receive s ~src:1 (Rbc.Echo { origin; tag; payload = "v" }) in
        s)
      (create ())
      [ (top_origin, 0); (1, 0); (0, top_tag); (top_origin, top_tag) ]
  in
  Alcotest.(check string) "instances in (origin, tag) order"
    (Printf.sprintf "(0,%d)e1r0;(1,0)e1r0;(%d,0)e1r0;(%d,%d)e1r0" top_tag top_origin
       top_origin top_tag)
    (Rbc.fingerprint Fun.id state)

(* --- differential against the tuple-keyed predecessor ([Rbc_oracle]) --- *)

type rbc_op =
  | Receive of int * int Rbc.msg  (* src, message *)
  | Broadcast of int * int  (* tag, payload *)

type rbc_case = { rn : int; rself : int; ops : rbc_op list }

let show_op = function
  | Receive (src, Rbc.Initial { tag; payload }) -> Printf.sprintf "%d:init[%d]%d" src tag payload
  | Receive (src, Rbc.Echo { origin; tag; payload }) ->
      Printf.sprintf "%d:echo[%d@%d]%d" src tag origin payload
  | Receive (src, Rbc.Ready { origin; tag; payload }) ->
      Printf.sprintf "%d:ready[%d@%d]%d" src tag origin payload
  | Broadcast (tag, payload) -> Printf.sprintf "bcast[%d]%d" tag payload

(* Bursts of one message from many senders, over a pool of three keys
   and payloads mostly of one code, so echo, ready and accept quorums
   are reached at every n. *)
let rbc_case_gen rs =
  let int k = Random.State.int rs k in
  let n = [| 4; 7; 64 |].(int 3) in
  let origin () =
    match int 6 with 0 -> (1 lsl 30) - 1 | 1 -> n + int 1000 | _ -> int n
  in
  let tag () =
    match int 6 with
    | 0 -> (1 lsl 32) - 1
    | 1 -> Random.State.bits rs
    | _ -> [| 0; 1; 5 |].(int 3)
  in
  let keys = Array.init 3 (fun _ -> (origin (), tag ())) in
  let payload () = if int 4 = 0 then int 4 else 0 in
  let burst () =
    let origin, tag = keys.(int 3) and payload = payload () in
    if int 10 = 0 then [ Broadcast (tag, payload) ]
    else
      let message =
        match int 3 with
        | 0 -> Rbc.Initial { tag; payload }
        | 1 -> Rbc.Echo { origin; tag; payload }
        | _ -> Rbc.Ready { origin; tag; payload }
      in
      List.init (1 + int n) (fun _ -> Receive (int n, message))
  in
  { rn = n; rself = int n; ops = List.concat (List.init (1 + int 12) (fun _ -> burst ())) }

let show_case c =
  Printf.sprintf "n=%d self=%d ops=[%s]" c.rn c.rself (String.concat "; " (List.map show_op c.ops))

let same_as_oracle c =
  let t = (c.rn - 1) / 3 and code p = p land 3 in
  let fingerprint = Rbc.fingerprint string_of_int
  and oracle_fingerprint = Rbc_oracle.fingerprint string_of_int in
  let rec go state oracle = function
    | [] -> true
    | op :: rest ->
        let (state, sends, accepted), (oracle, oracle_sends, oracle_accepted) =
          match op with
          | Receive (src, message) ->
              (Rbc.receive state ~src message, Rbc_oracle.receive oracle ~src message)
          | Broadcast (tag, payload) ->
              let state, sends = Rbc.broadcast state ~tag payload
              and oracle, oracle_sends = Rbc_oracle.broadcast oracle ~tag payload in
              ((state, sends, []), (oracle, oracle_sends, []))
        in
        String.equal (fingerprint state) (oracle_fingerprint oracle)
        && sends = oracle_sends && accepted = oracle_accepted
        && go state oracle rest
  in
  go
    (Rbc.create ~quorums:Rbc.quorums ~n:c.rn ~t ~self:c.rself ~code ())
    (Rbc_oracle.create ~quorums:Rbc.quorums ~n:c.rn ~t ~self:c.rself ~code ())
    c.ops

let qcheck_rbc_differential =
  QCheck.Test.make ~count:200 ~name:"int-keyed receive agrees with the tuple-keyed oracle"
    (QCheck.make ~print:show_case rbc_case_gen)
    same_as_oracle

let suite =
  [
    Alcotest.test_case "broadcast sends initial" `Quick test_broadcast_sends_initial;
    Alcotest.test_case "broadcast once per tag" `Quick test_broadcast_once_per_tag;
    Alcotest.test_case "initial echoes" `Quick test_initial_echoes;
    Alcotest.test_case "duplicate initial ignored" `Quick test_duplicate_initial_ignored;
    Alcotest.test_case "echo quorum triggers ready" `Quick test_echo_quorum_triggers_ready;
    Alcotest.test_case "mismatched echoes no quorum" `Quick
      test_mismatched_echoes_do_not_quorum;
    Alcotest.test_case "ready amplification" `Quick test_ready_amplification;
    Alcotest.test_case "acceptance at 2t+1" `Quick test_acceptance_at_2t_plus_1;
    Alcotest.test_case "accepted by tag" `Quick test_accepted_by_tag;
    Alcotest.test_case "equivocation safety" `Quick test_equivocation_safety;
    Alcotest.test_case "equivocation agreement + totality" `Quick
      test_equivocation_agreement_property;
    Alcotest.test_case "fingerprint changes" `Quick test_fingerprint_changes;
    Alcotest.test_case "out-of-range keys ignored" `Quick test_out_of_range_keys_ignored;
    Alcotest.test_case "key range edges" `Quick test_key_range_edges;
    Test_seed.to_alcotest qcheck_rbc_differential;
  ]
