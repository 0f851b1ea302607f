(* Reset storm: the strongly adaptive adversary resets t processors at
   the end of *every* acceptable window, so the cumulative number of
   failures vastly exceeds t — and the variant algorithm still reaches
   a correct decision (Theorem 4 / experiment E7).

     dune exec examples/reset_storm.exe
*)

let () =
  let n = 13 and t = 2 in
  let inputs = Array.init n (fun i -> i mod 2 = 0) in
  let config =
    Dsim.Engine.init
      ~protocol:(Protocols.Lewko_variant.protocol ())
      ~n ~fault_bound:t ~inputs ~seed:7 ~record_events:true ()
  in
  let outcome =
    Dsim.Runner.run_windows config
      ~strategy:(Adversary.Reset_storm.random ~seed:99 ())
      ~max_windows:10_000 ~stop:`All_decided
  in
  Format.printf "@[<v>Reset storm, n = %d, t = %d (resets per window = t):@,  %a@,@]" n t
    Dsim.Runner.pp_outcome outcome;
  Format.printf "Total resetting failures absorbed: %d (= %.1f x t)@."
    outcome.Dsim.Runner.total_resets
    (float_of_int outcome.Dsim.Runner.total_resets /. float_of_int t);
  (* Show the per-processor reset counts and decisions. *)
  Format.printf "@[<v>Per-processor outcome:@,";
  for p = 0 to n - 1 do
    Format.printf "  %a@," Dsim.Obs.pp (Dsim.Engine.observe config p)
  done;
  Format.printf "@]";
  (* Replay the last few recorded events to show a reset + recovery. *)
  let events = Dsim.Trace.events (Dsim.Engine.trace config) in
  let resets =
    List.filter (function Dsim.Trace.Reset_done _ -> true | _ -> false) events
  in
  Format.printf "Recorded %d reset events; decisions despite them:@." (List.length resets);
  List.iter
    (fun event ->
      match event with
      | Dsim.Trace.Decided _ ->
          Format.printf "  %s@." (Dsim.Trace_export.event_to_json event)
      | _ -> ())
    events;
  (* Audit the full trace: even under the storm, FIFO channels, causal
     depths, provenance, the t-resets-per-window cap and the T1 decision
     quorum must hold. *)
  (match Lintkit.Trace_lint.audit ~decision_quorum:(n - (2 * t)) config with
  | [] -> Format.printf "Trace lint: clean.@."
  | violations ->
      List.iter
        (fun v -> Format.printf "Trace lint: %a@." Lintkit.Trace_lint.pp_violation v)
        violations);
  (* The contrast: Ben-Or has no re-join procedure (a reset processor
     just restarts from its input), and the same storm livelocks it. *)
  let contrast =
    Dsim.Engine.init ~protocol:(Protocols.Ben_or.protocol ()) ~n ~fault_bound:t
      ~inputs ~seed:7 ~record_events:true ()
  in
  let outcome =
    Dsim.Runner.run_windows contrast
      ~strategy:(Adversary.Reset_storm.random ~seed:99 ())
      ~max_windows:2_000 ~stop:`All_decided
  in
  (match Lintkit.Trace_lint.audit ~decision_quorum:(n - t) contrast with
  | [] -> ()
  | violations ->
      List.iter
        (fun v -> Format.printf "Trace lint (ben-or): %a@." Lintkit.Trace_lint.pp_violation v)
        violations);
  Format.printf
    "@.Contrast — Ben-Or (restart-on-reset, no re-join) under the same storm:@.  %a@.\
     The baselines livelock under reset storms; the variant's recovery@.\
     procedure (Section 3, 'handling resets') is what makes the model@.\
     survivable.  Experiment E14 quantifies this.@."
    Dsim.Runner.pp_outcome outcome
