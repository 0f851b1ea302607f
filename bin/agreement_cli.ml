(* Single-execution driver: run one protocol under one adversary and
   print the outcome (optionally the full event trace).  Useful for
   poking at the system interactively:

     agreement_cli --protocol lewko --adversary balancing -n 13 -t 2 \
       --inputs split --seed 7 --trace

   With --sweep COUNT the same (protocol, adversary) pair runs over
   COUNT consecutive seeds instead and the aggregate ensemble result is
   printed; -j spreads the sweep over domains without changing any
   number in the output.

   --trace prints every recorded event as one JSON Lines object (the
   same lines --json writes after its summary line).  Exit codes: 0 =
   the run or sweep finished, 2 = usage error (including any malformed
   argument) or infeasible parameters. *)

type protocol_choice = Lewko | Lewko_det | Ben_or | Bracha | Bracha_validated

let parse_inputs ~n = function
  | "zeros" -> Array.make n false
  | "ones" -> Array.make n true
  | "split" -> Array.init n (fun i -> i mod 2 = 0)
  | spec ->
      if String.length spec = n && String.for_all (fun c -> c = '0' || c = '1') spec
      then Array.init n (fun i -> spec.[i] = '1')
      else
        invalid_arg
          (Printf.sprintf "inputs must be zeros|ones|split or a %d-char bitstring" n)

let windowed_adversary name seed : ('s, 'm) Adversary.Strategy.windowed =
  match name with
  | "benign" -> Adversary.Benign.windowed ()
  | "silence" -> Adversary.Silence.last_t
  | "balancing" -> Adversary.Split_vote.windowed ()
  | "balance+reset" -> Adversary.Split_vote.windowed_with_resets ()
  | "split-brain" -> Adversary.Split_brain.windowed ()
  | "reset-rotating" -> Adversary.Reset_storm.rotating ()
  | "reset-random" -> Adversary.Reset_storm.random ~seed ()
  | "reset-targeted" -> Adversary.Reset_storm.target_undecided ()
  | "lookahead" -> Adversary.Lookahead.windowed ~samples:8 ~horizon:4 ~seed ()
  | other -> invalid_arg ("unknown windowed adversary: " ^ other)

let stepwise_adversary name seed : ('s, 'm) Adversary.Strategy.stepwise =
  match name with
  | "benign" -> Adversary.Benign.lockstep ()
  | "random" -> Adversary.Benign.random_fair ~seed ~drop_probability:0.3 ()
  | "balancing" -> Adversary.Split_vote.stepwise ()
  | "echo-chamber" -> Adversary.Echo_chamber.stepwise ()
  | "crash-start" -> Adversary.Crash.at_start ~crash:[ 0 ]
  | "crash-late" -> Adversary.Crash.before_decision ()
  | "byz-flip" -> Adversary.Byzantine.lockstep ~corrupt:[ 0 ] ~flavour:Adversary.Byzantine.Flip ()
  | "byz-equivocate" ->
      Adversary.Byzantine.lockstep ~corrupt:[ 0 ] ~flavour:Adversary.Byzantine.Equivocate ()
  | other -> invalid_arg ("unknown stepwise adversary: " ^ other)

let print_outcome name outcome =
  Format.printf "@[<v>protocol: %s@,%a@]@." name Dsim.Runner.pp_outcome outcome

let print_trace config =
  List.iter
    (fun event -> print_endline (Dsim.Trace_export.event_to_json event))
    (Dsim.Trace.events (Dsim.Engine.trace config))

let export_trace config = function
  | None -> ()
  | Some path ->
      Dsim.Trace_export.write_file ~path (Dsim.Engine.trace config);
      Format.printf "trace written to %s@." path

let run_windowed protocol ~n ~t ~inputs ~seed ~adversary ~max_windows ~trace ~json =
  let record_events = trace || json <> None in
  let config =
    Dsim.Engine.init ~protocol ~n ~fault_bound:t ~inputs ~seed ~record_events ()
  in
  let outcome =
    Dsim.Runner.run_windows config
      ~strategy:(windowed_adversary adversary seed)
      ~max_windows ~stop:`All_decided
  in
  if trace then print_trace config;
  export_trace config json;
  print_outcome protocol.Dsim.Protocol.name outcome

let run_stepwise protocol ~n ~t ~inputs ~seed ~adversary ~max_steps ~trace ~json =
  let record_events = trace || json <> None in
  let config =
    Dsim.Engine.init ~protocol ~n ~fault_bound:t ~inputs ~seed ~record_events ()
  in
  let outcome =
    Dsim.Runner.run_steps config
      ~strategy:(stepwise_adversary adversary seed)
      ~max_steps ~stop:`All_decided
  in
  if trace then print_trace config;
  export_trace config json;
  print_outcome protocol.Dsim.Protocol.name outcome

let sweep_spec ~n ~t ~inputs_spec ~budget =
  {
    Agreement.Ensemble.n;
    t;
    inputs = (fun _seed -> parse_inputs ~n inputs_spec);
    max_windows = budget;
    max_steps = budget * 1000;
    stop = `All_decided;
  }

let sweep_windowed protocol ~jobs ~adversary ~spec ~seeds =
  let result =
    Agreement.Ensemble.run_windowed ~jobs ~protocol
      ~strategy:(windowed_adversary adversary)
      ~spec ~seeds ()
  in
  Format.printf "@[<v>protocol: %s@,%a@]@." protocol.Dsim.Protocol.name
    Agreement.Ensemble.pp_result result

let sweep_stepwise protocol ~jobs ~adversary ~spec ~seeds =
  let result =
    Agreement.Ensemble.run_stepwise ~jobs ~protocol
      ~strategy:(stepwise_adversary adversary)
      ~spec ~seeds ()
  in
  Format.printf "@[<v>protocol: %s@,%a@]@." protocol.Dsim.Protocol.name
    Agreement.Ensemble.pp_result result

let run_sweep protocol_name ~jobs ~adversary ~n ~t ~inputs_spec ~seed ~count
    ~budget =
  let spec = sweep_spec ~n ~t ~inputs_spec ~budget in
  let seeds = List.init count (fun i -> seed + i) in
  match protocol_name with
  | Lewko ->
      sweep_windowed (Protocols.Lewko_variant.protocol ()) ~jobs ~adversary ~spec
        ~seeds
  | Lewko_det ->
      sweep_windowed
        (Protocols.Lewko_variant.protocol ~coin:(fun _ -> false) ())
        ~jobs ~adversary ~spec ~seeds
  | Ben_or ->
      sweep_stepwise (Protocols.Ben_or.protocol ()) ~jobs ~adversary ~spec ~seeds
  | Bracha ->
      sweep_stepwise (Protocols.Bracha.protocol ()) ~jobs ~adversary ~spec ~seeds
  | Bracha_validated ->
      sweep_stepwise
        (Protocols.Bracha.protocol ~validated:true ())
        ~jobs ~adversary ~spec ~seeds

let run_single protocol_name adversary n t inputs_spec seed budget trace json =
  let inputs = parse_inputs ~n inputs_spec in
  match protocol_name with
  | Lewko ->
      run_windowed (Protocols.Lewko_variant.protocol ()) ~n ~t ~inputs ~seed ~adversary
        ~max_windows:budget ~trace ~json
  | Lewko_det ->
      run_windowed
        (Protocols.Lewko_variant.protocol ~coin:(fun _ -> false) ())
        ~n ~t ~inputs ~seed ~adversary ~max_windows:budget ~trace ~json
  | Ben_or ->
      run_stepwise (Protocols.Ben_or.protocol ()) ~n ~t ~inputs ~seed ~adversary
        ~max_steps:(budget * 1000) ~trace ~json
  | Bracha ->
      run_stepwise (Protocols.Bracha.protocol ()) ~n ~t ~inputs ~seed ~adversary
        ~max_steps:(budget * 1000) ~trace ~json
  | Bracha_validated ->
      run_stepwise
        (Protocols.Bracha.protocol ~validated:true ())
        ~n ~t ~inputs ~seed ~adversary ~max_steps:(budget * 1000) ~trace ~json

open Cmdliner

let protocol =
  let parse = function
    | "lewko" | "variant" -> Ok Lewko
    | "lewko-det" | "deterministic" -> Ok Lewko_det
    | "ben-or" | "benor" -> Ok Ben_or
    | "bracha" -> Ok Bracha
    | "bracha-validated" -> Ok Bracha_validated
    | other -> Error (`Msg ("unknown protocol: " ^ other))
  in
  let print ppf = function
    | Lewko -> Format.pp_print_string ppf "lewko"
    | Lewko_det -> Format.pp_print_string ppf "lewko-det"
    | Ben_or -> Format.pp_print_string ppf "ben-or"
    | Bracha -> Format.pp_print_string ppf "bracha"
    | Bracha_validated -> Format.pp_print_string ppf "bracha-validated"
  in
  Arg.(
    value
    & opt (conv (parse, print)) Lewko
    & info [ "protocol"; "p" ] ~docv:"NAME"
        ~doc:
          "Protocol: lewko or lewko-det (windowed); ben-or, bracha or \
           bracha-validated (stepwise).")

let adversary =
  Arg.(
    value & opt string "benign"
    & info [ "adversary"; "a" ] ~docv:"NAME"
        ~doc:
          "Windowed: benign|silence|balancing|balance+reset|split-brain|reset-rotating|reset-random|reset-targeted|lookahead. \
           Stepwise: benign|random|balancing|echo-chamber|crash-start|crash-late|byz-flip|byz-equivocate.")

let n_arg = Arg.(value & opt int 13 & info [ "n" ] ~doc:"Number of processors.")
let t_arg = Arg.(value & opt int 2 & info [ "t" ] ~doc:"Fault bound.")

let inputs_arg =
  Arg.(
    value & opt string "split"
    & info [ "inputs"; "i" ] ~doc:"zeros|ones|split or an explicit bitstring.")

let seed_arg = Arg.(value & opt int 1 & info [ "seed"; "s" ] ~doc:"Root seed.")

let budget_arg =
  Arg.(
    value & opt int 10_000
    & info [ "budget"; "b" ] ~doc:"Max windows (stepwise runs use 1000x steps).")

let trace_arg =
  Arg.(
    value & flag
    & info [ "trace" ] ~doc:"Print the full event trace as JSON Lines.")

let json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE" ~doc:"Write the trace as JSON Lines to FILE.")

let sweep_arg =
  Arg.(
    value & opt int 0
    & info [ "sweep" ] ~docv:"COUNT"
        ~doc:
          "Instead of one run, sweep COUNT consecutive seeds (starting at \
           --seed) and print the aggregate result; --trace/--json are \
           ignored in this mode.")

let jobs_arg =
  Arg.(
    value
    & opt int (Par_sweep.default_jobs ())
    & info [ "jobs"; "j" ] ~docv:"JOBS"
        ~doc:
          "Domains used by --sweep.  The aggregate is bit-identical for \
           every value.")

(* Unknown adversaries, bad input specs and infeasible (n, t) surface
   as [Invalid_argument] from the lookups, the protocols and
   [Engine.init]; all of them are usage errors. *)
let run protocol_name adversary n t inputs_spec seed budget trace json sweep
    jobs =
  match
    if sweep > 0 then
      run_sweep protocol_name ~jobs ~adversary ~n ~t ~inputs_spec ~seed
        ~count:sweep ~budget
    else run_single protocol_name adversary n t inputs_spec seed budget trace json
  with
  | () -> 0
  | exception Invalid_argument msg ->
      Printf.eprintf "agreement_cli: %s\n" msg;
      2

let cmd =
  let doc = "Run one agreement execution under a chosen adversary" in
  Cmd.v
    (Cmd.info "agreement_cli" ~doc)
    Term.(
      const run $ protocol $ adversary $ n_arg $ t_arg $ inputs_arg $ seed_arg
      $ budget_arg $ trace_arg $ json_arg $ sweep_arg $ jobs_arg)

(* cmdliner reports a malformed argument as 124 and an uncaught
   exception as 125; the documented contract says 2 for every usage
   error. *)
let () =
  exit
    (match Cmd.eval_value cmd with
    | Ok (`Ok code) -> code
    | Ok (`Help | `Version) -> 0
    | Error (`Parse | `Term) -> 2
    | Error `Exn -> Cmd.Exit.internal_error)
