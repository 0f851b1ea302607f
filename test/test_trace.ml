(* Trace recording, counters and printers. *)

let test_counters () =
  let t = Dsim.Trace.create ~record_events:false () in
  Dsim.Trace.record t (Dsim.Trace.Sent { src = 0; dst = 1; msg_id = 0; depth = 1 });
  Dsim.Trace.record t (Dsim.Trace.Delivered { src = 0; dst = 1; msg_id = 0; depth = 1 });
  Dsim.Trace.record t (Dsim.Trace.Dropped { msg_id = 9 });
  Dsim.Trace.record t (Dsim.Trace.Reset_done { pid = 2 });
  Dsim.Trace.record t (Dsim.Trace.Crashed { pid = 3 });
  Dsim.Trace.record t (Dsim.Trace.Window_closed { index = 1 });
  Alcotest.(check int) "sent" 1 (Dsim.Trace.sent t);
  Alcotest.(check int) "delivered" 1 (Dsim.Trace.delivered t);
  Alcotest.(check int) "dropped" 1 (Dsim.Trace.dropped t);
  Alcotest.(check int) "resets" 1 (Dsim.Trace.resets t);
  Alcotest.(check int) "crashes" 1 (Dsim.Trace.crashes t);
  Alcotest.(check int) "windows" 1 (Dsim.Trace.windows_closed t);
  Alcotest.(check (list string)) "events not recorded" []
    (List.map (Format.asprintf "%a" Dsim.Trace.pp_event) (Dsim.Trace.events t))

let test_event_recording () =
  let t = Dsim.Trace.create ~record_events:true () in
  Dsim.Trace.record t (Dsim.Trace.Sent { src = 0; dst = 1; msg_id = 0; depth = 1 });
  Dsim.Trace.record t (Dsim.Trace.Dropped { msg_id = 0 });
  let events = Dsim.Trace.events t in
  Alcotest.(check int) "two events" 2 (List.length events);
  (* Chronological order. *)
  match events with
  | [ Dsim.Trace.Sent _; Dsim.Trace.Dropped _ ] -> ()
  | _ -> Alcotest.fail "events out of order"

let test_decisions_always_recorded () =
  let t = Dsim.Trace.create ~record_events:false () in
  Dsim.Trace.record t
    (Dsim.Trace.Decided { pid = 4; value = true; step = 10; window = 2; chain_depth = 3 });
  Dsim.Trace.record t
    (Dsim.Trace.Decided { pid = 5; value = true; step = 12; window = 2; chain_depth = 3 });
  Alcotest.(check int) "both decisions kept" 2 (List.length (Dsim.Trace.decisions t));
  match Dsim.Trace.first_decision t with
  | Some (pid, value, step, window, chain) ->
      Alcotest.(check int) "first pid" 4 pid;
      Alcotest.(check bool) "value" true value;
      Alcotest.(check int) "step" 10 step;
      Alcotest.(check int) "window" 2 window;
      Alcotest.(check int) "chain" 3 chain
  | None -> Alcotest.fail "expected first decision"

let test_copy_independent () =
  let t = Dsim.Trace.create ~record_events:true () in
  Dsim.Trace.record t (Dsim.Trace.Dropped { msg_id = 1 });
  let c = Dsim.Trace.copy t in
  Dsim.Trace.record c (Dsim.Trace.Dropped { msg_id = 2 });
  Alcotest.(check int) "original unaffected" 1 (Dsim.Trace.dropped t);
  Alcotest.(check int) "copy advanced" 2 (Dsim.Trace.dropped c)

let test_printers_do_not_crash () =
  let printed =
    List.map
      (Format.asprintf "%a" Dsim.Trace.pp_event)
      [
        Dsim.Trace.Sent { src = 0; dst = 1; msg_id = 2; depth = 3 };
        Dsim.Trace.Delivered { src = 0; dst = 1; msg_id = 2; depth = 3 };
        Dsim.Trace.Dropped { msg_id = 2 };
        Dsim.Trace.Reset_done { pid = 1 };
        Dsim.Trace.Crashed { pid = 1 };
        Dsim.Trace.Decided { pid = 1; value = false; step = 4; window = 1; chain_depth = 2 };
        Dsim.Trace.Window_closed { index = 7 };
      ]
  in
  List.iter
    (fun s -> Alcotest.(check bool) "non-empty rendering" true (String.length s > 0))
    printed;
  let obs =
    Dsim.Obs.make ~id:3 ~round:2 ~estimate:(Some true) ~output:None ~input:false
      ~resets:1 ~phase:0
  in
  Alcotest.(check bool) "obs printer" true
    (String.length (Format.asprintf "%a" Dsim.Obs.pp obs) > 0)

let test_json_write_file () =
  let t = Dsim.Trace.create ~record_events:true () in
  Dsim.Trace.record t (Dsim.Trace.Reset_done { pid = 0 });
  let path = Filename.temp_file "trace" ".jsonl" in
  Dsim.Trace_export.write_file ~path t;
  let ic = open_in path in
  let first = input_line ic in
  close_in ic;
  Sys.remove path;
  Alcotest.(check bool) "file starts with the summary" true
    (String.length first > 10 && String.sub first 0 16 = {|{"type":"summary|})

let test_random_fair_never_drops () =
  (* The random-fair scheduler only delays: by the end of a completed
     run, everything sent was delivered (no Drop steps). *)
  let config =
    Dsim.Engine.init ~protocol:(Protocols.Ben_or.protocol ()) ~n:5 ~fault_bound:1
      ~inputs:(Array.make 5 true) ~seed:3 ()
  in
  let outcome =
    Dsim.Runner.run_steps config
      ~strategy:(Adversary.Benign.random_fair ~seed:8 ~drop_probability:0.5 ())
      ~max_steps:100_000 ~stop:`All_decided
  in
  Alcotest.(check bool) "decided" true (outcome.Dsim.Runner.decided <> []);
  Alcotest.(check int) "nothing dropped" 0
    (Dsim.Trace.dropped (Dsim.Engine.trace config))

let test_json_export () =
  let t = Dsim.Trace.create ~record_events:true () in
  Dsim.Trace.record t (Dsim.Trace.Sent { src = 0; dst = 1; msg_id = 2; depth = 3 });
  Dsim.Trace.record t
    (Dsim.Trace.Decided { pid = 1; value = true; step = 4; window = 1; chain_depth = 2 });
  let jsonl = Dsim.Trace_export.to_jsonl t in
  let lines = String.split_on_char '\n' jsonl |> List.filter (fun l -> l <> "") in
  Alcotest.(check int) "summary + 2 events" 3 (List.length lines);
  Alcotest.(check string) "summary line"
    {|{"type":"summary","sent":1,"delivered":0,"dropped":0,"resets":0,"crashes":0,"windows":0,"decisions":[{"pid":1,"value":1,"step":4,"window":1,"chain_depth":2}]}|}
    (List.hd lines);
  Alcotest.(check string) "sent event"
    {|{"type":"sent","src":0,"dst":1,"msg_id":2,"depth":3}|}
    (List.nth lines 1);
  Alcotest.(check string) "decided event"
    {|{"type":"decided","pid":1,"value":1,"step":4,"window":1,"chain_depth":2}|}
    (List.nth lines 2)

let test_json_event_shapes () =
  List.iter
    (fun (event, expected) ->
      Alcotest.(check string) "event json" expected (Dsim.Trace_export.event_to_json event))
    [
      (Dsim.Trace.Dropped { msg_id = 7 }, {|{"type":"dropped","msg_id":7}|});
      (Dsim.Trace.Reset_done { pid = 3 }, {|{"type":"reset","pid":3}|});
      (Dsim.Trace.Crashed { pid = 4 }, {|{"type":"crashed","pid":4}|});
      (Dsim.Trace.Window_closed { index = 9 }, {|{"type":"window_closed","index":9}|});
    ]

let suite =
  [
    Alcotest.test_case "counters" `Quick test_counters;
    Alcotest.test_case "json export" `Quick test_json_export;
    Alcotest.test_case "json event shapes" `Quick test_json_event_shapes;
    Alcotest.test_case "json write file" `Quick test_json_write_file;
    Alcotest.test_case "event recording" `Quick test_event_recording;
    Alcotest.test_case "decisions always recorded" `Quick test_decisions_always_recorded;
    Alcotest.test_case "copy independent" `Quick test_copy_independent;
    Alcotest.test_case "printers do not crash" `Quick test_printers_do_not_crash;
    Alcotest.test_case "random-fair never drops" `Quick test_random_fair_never_drops;
  ]
