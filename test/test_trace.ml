(* Trace recording, counters and the JSON Lines rendering. *)

let test_counters () =
  let t = Dsim.Trace.create ~record_events:false () in
  Dsim.Trace.record_broadcast t ~src:0 ~first:0 ~count:1 ~depth:1;
  Dsim.Trace.record_delivered t ~src:0 ~dst:1 ~msg_id:0 ~depth:1;
  Dsim.Trace.record_dropped t ~msg_id:9;
  Dsim.Trace.record_reset t ~pid:2;
  Dsim.Trace.record_crash t ~pid:3;
  Dsim.Trace.record_window_closed t ~index:1;
  Alcotest.(check int) "sent" 1 (Dsim.Trace.sent t);
  Alcotest.(check int) "delivered" 1 (Dsim.Trace.delivered t);
  Alcotest.(check int) "dropped" 1 (Dsim.Trace.dropped t);
  Alcotest.(check int) "resets" 1 (Dsim.Trace.resets t);
  Alcotest.(check int) "crashes" 1 (Dsim.Trace.crashes t);
  Alcotest.(check int) "windows" 1 (Dsim.Trace.windows_closed t);
  Alcotest.(check (list string)) "events not recorded" []
    (List.map Dsim.Trace_export.event_to_json (Dsim.Trace.events t))

let test_event_recording () =
  let t = Dsim.Trace.create ~record_events:true () in
  Dsim.Trace.record_broadcast t ~src:0 ~first:0 ~count:1 ~depth:1;
  Dsim.Trace.record_dropped t ~msg_id:0;
  let events = Dsim.Trace.events t in
  Alcotest.(check int) "two events" 2 (List.length events);
  (* Chronological order. *)
  match events with
  | [ Dsim.Trace.Sent _; Dsim.Trace.Dropped _ ] -> ()
  | _ -> Alcotest.fail "events out of order"

let test_decisions_always_recorded () =
  let t = Dsim.Trace.create ~record_events:false () in
  Dsim.Trace.record_decided t ~pid:4 ~value:true ~step:10 ~window:2 ~chain_depth:3;
  Dsim.Trace.record_decided t ~pid:5 ~value:true ~step:12 ~window:2 ~chain_depth:3;
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
  Dsim.Trace.record_dropped t ~msg_id:1;
  let c = Dsim.Trace.copy t in
  Dsim.Trace.record_dropped c ~msg_id:2;
  Alcotest.(check int) "original unaffected" 1 (Dsim.Trace.dropped t);
  Alcotest.(check int) "copy advanced" 2 (Dsim.Trace.dropped c)

let test_obs_printer () =
  let obs =
    Dsim.Obs.make ~id:3 ~round:2 ~estimate:(Some true) ~output:None ~input:false
      ~resets:1 ~phase:0
  in
  Alcotest.(check string) "obs printer" "p3[r=2 ph=0 x=1 out=_ in=0 resets=1]"
    (Format.asprintf "%a" Dsim.Obs.pp obs)

let test_json_write_file () =
  let t = Dsim.Trace.create ~record_events:true () in
  Dsim.Trace.record_reset t ~pid:0;
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
  Dsim.Trace.record_broadcast t ~src:0 ~first:1 ~count:2 ~depth:3;
  Dsim.Trace.record_decided t ~pid:1 ~value:true ~step:4 ~window:1 ~chain_depth:2;
  let jsonl = Dsim.Trace_export.to_jsonl t in
  let lines = String.split_on_char '\n' jsonl |> List.filter (fun l -> l <> "") in
  Alcotest.(check int) "summary + 3 events" 4 (List.length lines);
  Alcotest.(check string) "summary line"
    {|{"type":"summary","sent":2,"delivered":0,"dropped":0,"resets":0,"crashes":0,"windows":0,"decisions":[{"pid":1,"value":1,"step":4,"window":1,"chain_depth":2}]}|}
    (List.hd lines);
  Alcotest.(check (list string)) "one sent event per destination"
    [
      {|{"type":"sent","src":0,"dst":0,"msg_id":1,"depth":3}|};
      {|{"type":"sent","src":0,"dst":1,"msg_id":2,"depth":3}|};
    ]
    [ List.nth lines 1; List.nth lines 2 ];
  Alcotest.(check string) "decided event"
    {|{"type":"decided","pid":1,"value":1,"step":4,"window":1,"chain_depth":2}|}
    (List.nth lines 3)

(* Every [Trace.event] constructor: this is what [agreement_cli --trace]
   prints and what [--json] writes after its summary line. *)
let test_json_event_shapes () =
  List.iter
    (fun (event, expected) ->
      Alcotest.(check string) "event json" expected (Dsim.Trace_export.event_to_json event))
    [
      ( Dsim.Trace.Sent { src = 0; dst = 1; msg_id = 2; depth = 3 },
        {|{"type":"sent","src":0,"dst":1,"msg_id":2,"depth":3}|} );
      ( Dsim.Trace.Delivered { src = 4; dst = 5; msg_id = 6; depth = 7 },
        {|{"type":"delivered","src":4,"dst":5,"msg_id":6,"depth":7}|} );
      ( Dsim.Trace.Decided { pid = 1; value = false; step = 4; window = 1; chain_depth = 2 },
        {|{"type":"decided","pid":1,"value":0,"step":4,"window":1,"chain_depth":2}|} );
      (Dsim.Trace.Dropped { msg_id = 7 }, {|{"type":"dropped","msg_id":7}|});
      (Dsim.Trace.Reset_done { pid = 3 }, {|{"type":"reset","pid":3}|});
      (Dsim.Trace.Crashed { pid = 4 }, {|{"type":"crashed","pid":4}|});
      (Dsim.Trace.Window_closed { index = 9 }, {|{"type":"window_closed","index":9}|});
    ]

(* The recorded event stream of three executions, pinned by the MD5 of
   its JSON Lines export.  [lewko-reset-audit-n12] and the E0 audit read
   these events, so a kernel change must leave every one of them (and
   their order) unchanged.  The Ben-Or run drops messages; the Lewko run
   resets every window. *)
let events_md5 config =
  Digest.to_hex (Digest.string (Dsim.Trace_export.to_jsonl (Dsim.Engine.trace config)))

let recorded_windows ~protocol ~n ~t ~strategy =
  let config =
    Dsim.Engine.init ~protocol ~n ~fault_bound:t
      ~inputs:(Agreement.Ensemble.split_inputs ~n 1) ~seed:1 ~record_events:true ()
  in
  ignore (Dsim.Runner.run_windows config ~strategy ~max_windows:20_000 ~stop:`All_decided);
  events_md5 config

let test_events_pinned () =
  Alcotest.(check string) "lewko reset storm n=12" "2f5e24ff52d3872c2428fac923685847"
    (recorded_windows ~protocol:(Protocols.Lewko_variant.protocol ()) ~n:12 ~t:1
       ~strategy:(Adversary.Reset_storm.with_silence ~seed:1 ()));
  Alcotest.(check string) "bracha benign windows n=7" "9622afe4196aa423c4164a58ffa1e62c"
    (recorded_windows ~protocol:(Protocols.Bracha.protocol ()) ~n:7 ~t:2
       ~strategy:(Adversary.Benign.windowed ()));
  let config =
    Dsim.Engine.init ~protocol:(Protocols.Ben_or.protocol ()) ~n:9 ~fault_bound:4
      ~inputs:(Agreement.Ensemble.split_inputs ~n:9 1) ~seed:1 ~record_events:true ()
  in
  let outcome =
    Dsim.Runner.run_steps config ~strategy:(Adversary.Split_vote.stepwise ())
      ~max_steps:6_000_000 ~stop:`First_decision
  in
  Alcotest.(check bool) "ben-or run drops messages" true
    (Dsim.Trace.dropped (Dsim.Engine.trace config) > 0);
  Alcotest.(check bool) "ben-or run decides" true (outcome.Dsim.Runner.decided <> []);
  Alcotest.(check string) "ben-or stepwise n=9" "16983a1cc210bcde8a9d57cfcd35d065" (events_md5 config);
  (* Byzantine lockstep rewrites every message processor 0 broadcasts
     to echo its recipient's estimate; each such [Corrupt] rewrites one
     destination of a broadcast entry, so this run pins the
     payload-override path. *)
  let config =
    Dsim.Engine.init ~protocol:(Protocols.Bracha.protocol ()) ~n:7 ~fault_bound:2
      ~inputs:(Agreement.Ensemble.split_inputs ~n:7 1) ~seed:1 ~record_events:true ()
  in
  let corruptions = ref 0 in
  let byzantine =
    Adversary.Byzantine.lockstep ~corrupt:[ 0 ] ~flavour:Adversary.Byzantine.Equivocate ()
  in
  let strategy config =
    let step = byzantine config in
    (match step with Some (Dsim.Step.Corrupt _) -> incr corruptions | _ -> ());
    step
  in
  let outcome = Dsim.Runner.run_steps config ~strategy ~max_steps:200_000 ~stop:`All_decided in
  Alcotest.(check bool) "byzantine run corrupts broadcasts" true (!corruptions > 0);
  Alcotest.(check bool) "byzantine run decides" true (outcome.Dsim.Runner.decided <> []);
  Alcotest.(check string) "bracha byzantine equivocate n=7" "470ffd6a32c5c9843a5b8bedb36b68fd" (events_md5 config)

let suite =
  [
    Alcotest.test_case "counters" `Quick test_counters;
    Alcotest.test_case "json export" `Quick test_json_export;
    Alcotest.test_case "json event shapes" `Quick test_json_event_shapes;
    Alcotest.test_case "json write file" `Quick test_json_write_file;
    Alcotest.test_case "event recording" `Quick test_event_recording;
    Alcotest.test_case "decisions always recorded" `Quick test_decisions_always_recorded;
    Alcotest.test_case "copy independent" `Quick test_copy_independent;
    Alcotest.test_case "obs printer" `Quick test_obs_printer;
    Alcotest.test_case "random-fair never drops" `Quick test_random_fair_never_drops;
    Alcotest.test_case "recorded events pinned" `Quick test_events_pinned;
  ]
