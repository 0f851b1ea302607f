(* Engine mechanics, tested against a tiny deterministic protocol so
   the assertions are independent of any real agreement algorithm.

   The toy protocol: on init, queue a "hello" broadcast; on receiving
   "ping", queue a "pong" broadcast; on receiving
   "decide", write the input bit to the output.  Resets clear the
   received log. *)

type toy_state = {
  id : int;
  n : int;
  input : bool;
  output : bool option;
  resets : int;
  received : (int * string) list;
  outbox : string list;  (* queued broadcasts, most recent first *)
}

let toy : (toy_state, string) Dsim.Protocol.t =
  {
    Dsim.Protocol.name = "toy";
    init =
      (fun ~n ~t:_ ~id ~input ->
        {
          id;
          n;
          input;
          output = None;
          resets = 0;
          received = [];
          outbox = [ "hello" ];
        });
    outgoing =
      (fun s ->
        ({ s with outbox = [] }, List.map (fun m -> Dsim.Step.Broadcast m) s.outbox));
    on_deliver =
      (fun s ~src message _rng ->
        let s = { s with received = (src, message) :: s.received } in
        match message with
        | "ping" -> { s with outbox = "pong" :: s.outbox }
        | "decide" -> { s with output = Some s.input }
        | _ -> s);
    on_reset = (fun s -> { s with received = []; outbox = []; resets = s.resets + 1 });
    output = (fun s -> s.output);
    observe =
      (fun s ->
        Dsim.Obs.make ~id:s.id ~round:1 ~estimate:(Some s.input) ~output:s.output
          ~input:s.input ~resets:s.resets ~phase:0);
    message_bit = (fun _ -> None);
    message_round = (fun _ -> None);
    message_origin = (fun _ -> None);
    rewrite_bit = (fun _ _ -> None);
    state_core =
      (fun s ->
        Printf.sprintf "%d:%b:%s:%d:[%s]" s.id s.input
          (match s.output with None -> "_" | Some b -> string_of_bool b)
          s.resets
          (String.concat ";"
             (List.map (fun (src, m) -> Printf.sprintf "%d-%s" src m) s.received)));
    props = Dsim.Protocol.default_props;
    add_message = Buffer.add_string;
  }

let make ?(n = 3) ?(t = 1) ?(inputs = [| true; false; true |]) ?(seed = 1)
    ?(track_deliveries = true) () =
  Dsim.Engine.init ~protocol:toy ~n ~fault_bound:t ~inputs ~seed
    ~track_deliveries ()

(* The fields of one pending envelope, as the mailbox's visitors hand
   them out. *)
type envelope = { msg_id : int; src : int; payload : string; depth : int }

let pending_for config ~dst =
  let acc = ref [] in
  Dsim.Mailbox.iter_for (Dsim.Engine.mailbox config) ~dst acc
    (fun acc ~id ~src ~dst:_ ~depth payload ->
      acc := { msg_id = id; src; payload; depth } :: !acc);
  List.rev !acc

let test_init () =
  let config = make () in
  Alcotest.(check int) "n" 3 (Dsim.Engine.n config);
  Alcotest.(check int) "t" 1 (Dsim.Engine.fault_bound config);
  Alcotest.(check int) "mailbox empty" 0 (Dsim.Mailbox.size (Dsim.Engine.mailbox config));
  Alcotest.(check int) "no steps yet" 0 (Dsim.Engine.step_index config);
  Alcotest.(check bool) "nobody decided" false (Dsim.Engine.some_decided config)

let test_init_validation () =
  Alcotest.check_raises "inputs length" (Invalid_argument "Engine.init: |inputs| <> n")
    (fun () -> ignore (Dsim.Engine.init ~protocol:toy ~n:3 ~fault_bound:1 ~inputs:[| true |] ~seed:1 ()));
  Alcotest.check_raises "bad t" (Invalid_argument "Engine.init: fault bound out of range")
    (fun () ->
      ignore
        (Dsim.Engine.init ~protocol:toy ~n:2 ~fault_bound:2 ~inputs:[| true; false |]
           ~seed:1 ()))

let test_send_flushes_once () =
  let config = make () in
  Dsim.Engine.apply config (Dsim.Step.Send 0);
  Alcotest.(check int) "3 hellos" 3 (Dsim.Mailbox.size (Dsim.Engine.mailbox config));
  Dsim.Engine.apply config (Dsim.Step.Send 0);
  Alcotest.(check int) "second send is a no-op" 3
    (Dsim.Mailbox.size (Dsim.Engine.mailbox config))

let test_deliver () =
  let config = make () in
  Dsim.Engine.apply config (Dsim.Step.Send 0);
  let id =
    match pending_for config ~dst:1 with
    | e :: _ -> e.msg_id
    | [] -> Alcotest.fail "expected a pending message"
  in
  Dsim.Engine.apply config (Dsim.Step.Deliver id);
  Alcotest.(check int) "mailbox shrank" 2 (Dsim.Mailbox.size (Dsim.Engine.mailbox config));
  let core = (Dsim.Engine.state_cores config).(1) in
  Alcotest.(check bool) "state recorded delivery" true
    (String.length core > 0
    &&
    let contains s sub =
      let n = String.length sub and h = String.length s in
      let rec scan i = i + n <= h && (String.sub s i n = sub || scan (i + 1)) in
      scan 0
    in
    contains core "0-hello")

let test_deliver_unknown_raises () =
  let config = make () in
  Alcotest.check_raises "unknown id"
    (Invalid_argument "Engine: deliver of unknown message #42") (fun () ->
      Dsim.Engine.apply config (Dsim.Step.Deliver 42))

let test_crash_semantics () =
  let config = make () in
  Dsim.Engine.apply config (Dsim.Step.Crash 1);
  Alcotest.(check bool) "crashed" true (Dsim.Engine.crashed config 1);
  Alcotest.(check int) "count" 1 (Dsim.Engine.crashed_count config);
  (* Crashed processors do not send. *)
  Dsim.Engine.apply config (Dsim.Step.Send 1);
  Alcotest.(check int) "no messages from crashed" 0
    (Dsim.Mailbox.size (Dsim.Engine.mailbox config));
  (* Deliveries to crashed processors are dropped silently. *)
  Dsim.Engine.apply config (Dsim.Step.Send 0);
  let to_crashed =
    match pending_for config ~dst:1 with
    | e :: _ -> e.msg_id
    | [] -> Alcotest.fail "expected pending"
  in
  Dsim.Engine.apply config (Dsim.Step.Deliver to_crashed);
  Alcotest.(check int) "dropped, not delivered" 1
    (Dsim.Trace.dropped (Dsim.Engine.trace config))

let test_reset_semantics () =
  let config = make () in
  Dsim.Engine.apply config (Dsim.Step.Send 0);
  Dsim.Engine.deliver_all_pending config ~dst:2;
  Dsim.Engine.apply config (Dsim.Step.Reset 2);
  Alcotest.(check int) "reset counter" 1 (Dsim.Engine.reset_count config 2);
  Alcotest.(check int) "trace resets" 1 (Dsim.Trace.resets (Dsim.Engine.trace config));
  Alcotest.(check (list string)) "recent deliveries cleared" []
    (Dsim.Engine.recent_deliveries config 2)

let test_corrupt () =
  let config = make () in
  Dsim.Engine.apply config (Dsim.Step.Send 0);
  let id =
    match Dsim.Mailbox.pending_ids (Dsim.Engine.mailbox config) with
    | id :: _ -> id
    | [] -> Alcotest.fail "expected pending"
  in
  Dsim.Engine.apply config (Dsim.Step.Corrupt (id, "forged"));
  Alcotest.(check (list string)) "payload rewritten, other destinations kept"
    [ "forged"; "hello"; "hello" ]
    (List.map (fun e -> e.payload) (List.concat_map (fun dst -> pending_for config ~dst) [ 0; 1; 2 ]));
  Alcotest.check_raises "corrupt unknown"
    (Invalid_argument "Engine: corrupt of unknown message #777") (fun () ->
      Dsim.Engine.apply config (Dsim.Step.Corrupt (777, "x")))

let test_causal_depth () =
  let config = make () in
  (* Flush p0 and p2; turn p2's message to p1 into a ping; deliver both
     to p1 (depth 1); p1's pong then has depth 2. *)
  Dsim.Engine.apply config (Dsim.Step.Send 0);
  Dsim.Engine.apply config (Dsim.Step.Send 2);
  let ping_id =
    match
      List.filter
        (fun e -> e.src = 2)
        (pending_for config ~dst:1)
    with
    | e :: _ -> e.msg_id
    | [] -> Alcotest.fail "expected pending from p2"
  in
  Dsim.Engine.apply config (Dsim.Step.Corrupt (ping_id, "ping"));
  Dsim.Engine.deliver_all_pending config ~dst:1;
  Alcotest.(check int) "receive depth 1" 1 (Dsim.Engine.receive_depth config 1);
  Dsim.Engine.apply config (Dsim.Step.Send 1);
  let pong =
    match
      List.filter
        (fun e -> e.payload = "pong")
        (pending_for config ~dst:2)
    with
    | [ e ] -> e
    | _ -> Alcotest.fail "expected exactly the pong"
  in
  Alcotest.(check int) "pong depth = 2" 2 pong.depth;
  Dsim.Engine.apply config (Dsim.Step.Deliver pong.msg_id);
  Alcotest.(check int) "chain depth propagates" 2 (Dsim.Engine.max_chain_depth config)

let test_copy_isolation () =
  let config = make () in
  Dsim.Engine.apply config (Dsim.Step.Send 0);
  let fork = Dsim.Engine.copy config in
  Dsim.Engine.deliver_all_pending fork ~dst:1;
  Dsim.Engine.apply fork (Dsim.Step.Reset 2);
  Alcotest.(check int) "original mailbox intact" 3
    (Dsim.Mailbox.size (Dsim.Engine.mailbox config));
  Alcotest.(check int) "original resets intact" 0 (Dsim.Engine.reset_count config 2);
  Alcotest.(check bool) "fingerprints diverged" true
    (Test_cores.joined config <> Test_cores.joined fork)

let test_determinism () =
  let run seed =
    let config =
      Dsim.Engine.init ~protocol:(Protocols.Lewko_variant.protocol ()) ~n:7
        ~fault_bound:1
        ~inputs:(Array.init 7 (fun i -> i mod 2 = 0))
        ~seed ()
    in
    ignore
      (Dsim.Runner.run_windows config
         ~strategy:(Adversary.Split_vote.windowed ())
         ~max_windows:300 ~stop:`First_decision);
    Test_cores.joined config
  in
  Alcotest.(check string) "same seed, same execution" (run 11) (run 11);
  Alcotest.(check bool) "different seed, different execution" true (run 11 <> run 12)

let test_reseed_changes_coins () =
  let base =
    Dsim.Engine.init ~protocol:(Protocols.Lewko_variant.protocol ()) ~n:7 ~fault_bound:1
      ~inputs:(Array.init 7 (fun i -> i mod 2 = 0))
      ~seed:5 ()
  in
  let run config =
    ignore
      (Dsim.Runner.run_windows config
         ~strategy:(Adversary.Split_vote.windowed ())
         ~max_windows:50 ~stop:`Never);
    Test_cores.joined config
  in
  let replay = run (Dsim.Engine.copy base) in
  let replay2 = run (Dsim.Engine.copy base) in
  Alcotest.(check string) "copies replay identical coins" replay replay2;
  let fork = Dsim.Engine.copy base in
  Dsim.Engine.reseed fork (Prng.Stream.root 999);
  Alcotest.(check bool) "reseeded fork diverges" true (run fork <> replay)

let test_apply_window () =
  let config = make ~n:3 ~t:1 () in
  let window = Dsim.Window.uniform ~n:3 ~silenced:[ 0 ] ~resets:[ 2 ] () in
  Dsim.Engine.apply_window config window;
  Alcotest.(check int) "window counted" 1 (Dsim.Engine.window_index config);
  (* Everyone sent 3 hellos; each processor receives from {1,2} only;
     p0's messages are dropped at window end. *)
  Alcotest.(check int) "sent" 9 (Dsim.Trace.sent (Dsim.Engine.trace config));
  Alcotest.(check int) "delivered 2 senders x 3 dsts" 6
    (Dsim.Trace.delivered (Dsim.Engine.trace config));
  Alcotest.(check int) "silenced sender dropped" 3
    (Dsim.Trace.dropped (Dsim.Engine.trace config));
  Alcotest.(check int) "reset applied" 1 (Dsim.Engine.reset_count config 2);
  Alcotest.(check int) "mailbox drained" 0 (Dsim.Mailbox.size (Dsim.Engine.mailbox config))

let test_window_delivery_order () =
  (* Within a window, each destination receives in ascending sender
     order — "some fixed order" made concrete and deterministic. *)
  let config = make ~n:3 ~t:0 () in
  Dsim.Engine.apply_window config (Dsim.Window.uniform ~n:3 ());
  let core = (Dsim.Engine.state_cores config).(1) in
  (* The toy state_core lists receptions most-recent-first, so sender 2
     must appear before sender 0 in the rendering. *)
  let index_of sub s =
    let n = String.length sub and h = String.length s in
    let rec scan i = if i + n > h then -1 else if String.sub s i n = sub then i else scan (i + 1) in
    scan 0
  in
  let pos0 = index_of "0-hello" core and pos2 = index_of "2-hello" core in
  Alcotest.(check bool) "both delivered" true (pos0 >= 0 && pos2 >= 0);
  Alcotest.(check bool) "ascending sender order" true (pos2 < pos0)

let test_decision_recorded () =
  let config = make () in
  Dsim.Engine.apply config (Dsim.Step.Send 0);
  let id =
    match pending_for config ~dst:1 with
    | e :: _ -> e.msg_id
    | [] -> Alcotest.fail "expected pending"
  in
  Dsim.Engine.apply config (Dsim.Step.Corrupt (id, "decide"));
  Dsim.Engine.apply config (Dsim.Step.Deliver id);
  Alcotest.(check bool) "some decided" true (Dsim.Engine.some_decided config);
  Alcotest.(check (list (pair int bool))) "p1 decided its input" [ (1, false) ]
    (Dsim.Engine.decided_values config);
  match Dsim.Trace.first_decision (Dsim.Engine.trace config) with
  | Some (pid, value, _, _, _) ->
      Alcotest.(check int) "pid" 1 pid;
      Alcotest.(check bool) "value" false value
  | None -> Alcotest.fail "decision not traced"

(* The stop and conflict checks against their definitions over
   [decided_values]: crashed processors never block [all_decided]. *)
let test_stop_checks () =
  let config = make () in
  let decide p =
    Dsim.Engine.apply config (Dsim.Step.Send p);
    match pending_for config ~dst:p with
    | e :: _ ->
        Dsim.Engine.apply config (Dsim.Step.Corrupt (e.msg_id, "decide"));
        Dsim.Engine.apply config (Dsim.Step.Deliver e.msg_id)
    | [] -> Alcotest.fail "expected a pending message"
  in
  let check label ~some ~all ~conflict =
    Alcotest.(check bool) (label ^ ": some") some (Dsim.Engine.some_decided config);
    Alcotest.(check bool) (label ^ ": all") all (Dsim.Engine.all_decided config);
    Alcotest.(check bool) (label ^ ": conflict") conflict
      (Dsim.Engine.decision_conflict config);
    Alcotest.(check bool) (label ^ ": some = decided_values <> []") some
      (Dsim.Engine.decided_values config <> [])
  in
  check "initial" ~some:false ~all:false ~conflict:false;
  decide 1;
  check "p1 decided 0" ~some:true ~all:false ~conflict:false;
  Dsim.Engine.apply config (Dsim.Step.Crash 2);
  check "p2 crashed" ~some:true ~all:false ~conflict:false;
  decide 0;
  check "p0 decided 1" ~some:true ~all:true ~conflict:true

(* A protocol that does as little as a protocol can: its state never
   changes and it broadcasts one preallocated message every window, so
   whatever a window allocates is the engine's. *)
let idle_sends = ((), [ Dsim.Step.Broadcast "m" ])

let idle : (unit, string) Dsim.Protocol.t =
  {
    toy with
    Dsim.Protocol.name = "idle";
    init = (fun ~n:_ ~t:_ ~id:_ ~input:_ -> ());
    outgoing = (fun () -> idle_sends);
    on_deliver = (fun s ~src:_ _ _ -> s);
    on_reset = Fun.id;
    output = (fun () -> None);
    observe =
      (fun () ->
        Dsim.Obs.make ~id:0 ~round:1 ~estimate:None ~output:None ~input:false ~resets:0
          ~phase:0);
    state_core = (fun () -> "");
  }

(* Full-delivery windows at n = 32 deliver n^2 = 1024 messages each.
   Delivery itself allocates nothing when no events are recorded, so
   what remains is per send (the shared broadcast entry) and per window
   (the receive-set predicate, the drop sweep's callback), well under
   one word per delivery. *)
let test_window_allocation () =
  let n = 32 in
  let config =
    Dsim.Engine.init ~protocol:idle ~n ~fault_bound:0 ~inputs:(Array.make n false) ~seed:1
      ()
  in
  let window = Dsim.Window.uniform ~n () in
  (* Warm-up: grow the mailbox's broadcast table to its working size. *)
  for _ = 1 to 4 do
    Dsim.Engine.apply_window config window
  done;
  let windows = 50 in
  let delivered_before = Dsim.Trace.delivered (Dsim.Engine.trace config) in
  let before = Gc.minor_words () in
  for _ = 1 to windows do
    Dsim.Engine.apply_window config window
  done;
  let words = Gc.minor_words () -. before in
  let delivered = Dsim.Trace.delivered (Dsim.Engine.trace config) - delivered_before in
  Alcotest.(check int) "every message delivered" (windows * n * n) delivered;
  let per_delivery = words /. float_of_int delivered in
  if per_delivery >= 1.0 then
    Alcotest.failf "apply_window allocated %.2f minor words per delivery (limit 1)"
      per_delivery

let test_recent_deliveries_lifecycle () =
  let config = make () in
  (* Flush every initial outbox, then turn p2's message to p1 into a
     ping while it is still buffered. *)
  List.iter (fun p -> Dsim.Engine.apply config (Dsim.Step.Send p)) [ 0; 1; 2 ];
  let from_p2 =
    match
      List.filter
        (fun e -> e.src = 2)
        (pending_for config ~dst:1)
    with
    | e :: _ -> e.msg_id
    | [] -> Alcotest.fail "expected pending from p2"
  in
  Dsim.Engine.apply config (Dsim.Step.Corrupt (from_p2, "ping"));
  let from_p0 =
    match
      List.filter
        (fun e -> e.src = 0)
        (pending_for config ~dst:1)
    with
    | e :: _ -> e.msg_id
    | [] -> Alcotest.fail "expected pending from p0"
  in
  Dsim.Engine.apply config (Dsim.Step.Deliver from_p0);
  Alcotest.(check int) "one recent delivery" 1
    (List.length (Dsim.Engine.recent_deliveries config 1));
  (* A send that emits nothing must NOT clear the log... *)
  Dsim.Engine.apply config (Dsim.Step.Send 1);
  Alcotest.(check int) "empty send preserves log" 1
    (List.length (Dsim.Engine.recent_deliveries config 1));
  (* ...but a message-emitting send does.  The ping queues a pong. *)
  Dsim.Engine.apply config (Dsim.Step.Deliver from_p2);
  Alcotest.(check int) "two recent now" 2
    (List.length (Dsim.Engine.recent_deliveries config 1));
  Dsim.Engine.apply config (Dsim.Step.Send 1);
  Alcotest.(check (list string)) "emitting send clears log" []
    (Dsim.Engine.recent_deliveries config 1)

let suite =
  [
    Alcotest.test_case "init" `Quick test_init;
    Alcotest.test_case "init validation" `Quick test_init_validation;
    Alcotest.test_case "send flushes once" `Quick test_send_flushes_once;
    Alcotest.test_case "deliver" `Quick test_deliver;
    Alcotest.test_case "deliver unknown raises" `Quick test_deliver_unknown_raises;
    Alcotest.test_case "crash semantics" `Quick test_crash_semantics;
    Alcotest.test_case "reset semantics" `Quick test_reset_semantics;
    Alcotest.test_case "corrupt" `Quick test_corrupt;
    Alcotest.test_case "causal depth" `Quick test_causal_depth;
    Alcotest.test_case "copy isolation" `Quick test_copy_isolation;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "reseed changes coins" `Quick test_reseed_changes_coins;
    Alcotest.test_case "apply window" `Quick test_apply_window;
    Alcotest.test_case "window delivery order" `Quick test_window_delivery_order;
    Alcotest.test_case "decision recorded" `Quick test_decision_recorded;
    Alcotest.test_case "stop checks" `Quick test_stop_checks;
    Alcotest.test_case "window allocation" `Quick test_window_allocation;
    Alcotest.test_case "recent deliveries lifecycle" `Quick test_recent_deliveries_lifecycle;
  ]
