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

module Registry = Adversary.Registry

(* The protocols -p accepts; [windowed] picks the discipline, and with
   it the adversary list -a is looked up in. *)
type protocol = {
  name : string;
  aliases : string list;
  windowed : bool;
  packed : Mcheck.Model.packed;
}

let protocols =
  let entry ?(aliases = []) name ~windowed p =
    { name; aliases; windowed; packed = Mcheck.Model.Packed p }
  in
  let open Protocols in
  [
    entry "lewko" ~aliases:[ "variant" ] ~windowed:true (Lewko_variant.protocol ());
    entry "lewko-det" ~aliases:[ "deterministic" ] ~windowed:true
      (Lewko_variant.protocol ~coin:(fun _ -> false) ());
    entry "ben-or" ~aliases:[ "benor" ] ~windowed:false (Ben_or.protocol ());
    entry "bracha" ~windowed:false (Bracha.protocol ());
    entry "bracha-validated" ~windowed:false (Bracha.protocol ~validated:true ());
  ]

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

(* -a accepts a name of either discipline; one of the wrong discipline
   for the protocol is reported here, with the names that would fit. *)
let wrong_discipline protocol adversary =
  let runs, other, names =
    if protocol.windowed then ("windowed", "stepwise", Registry.Windowed.names)
    else ("stepwise", "windowed", Registry.Stepwise.names)
  in
  invalid_arg
    (Printf.sprintf "%s is a %s adversary, but %s runs %s; %s adversaries: %s" adversary
       other protocol.name runs runs (String.concat ", " names))

let windowed_entry protocol adversary =
  match Registry.Windowed.find adversary with
  | Some entry -> entry
  | None -> wrong_discipline protocol adversary

let stepwise_entry protocol adversary =
  match Registry.Stepwise.find adversary with
  | Some entry -> entry
  | None -> wrong_discipline protocol adversary

let print_trace config =
  List.iter
    (fun event -> print_endline (Dsim.Trace_export.event_to_json event))
    (Dsim.Trace.events (Dsim.Engine.trace config))

let export_trace config = function
  | None -> ()
  | Some path ->
      Dsim.Trace_export.write_file ~path (Dsim.Engine.trace config);
      Format.printf "trace written to %s@." path

let run_single protocol adversary ~n ~t ~inputs_spec ~seed ~budget ~trace ~json =
  let (Mcheck.Model.Packed p) = protocol.packed in
  let inputs = parse_inputs ~n inputs_spec in
  let record_events = trace || json <> None in
  let config = Dsim.Engine.init ~protocol:p ~n ~fault_bound:t ~inputs ~seed ~record_events () in
  let outcome =
    if protocol.windowed then
      Dsim.Runner.run_windows config
        ~strategy:((windowed_entry protocol adversary).make ~seed)
        ~max_windows:budget ~stop:`All_decided
    else
      Dsim.Runner.run_steps config
        ~strategy:((stepwise_entry protocol adversary).make ~seed)
        ~max_steps:(budget * 1000) ~stop:`All_decided
  in
  if trace then print_trace config;
  export_trace config json;
  Format.printf "@[<v>protocol: %s@,%a@]@." p.name Dsim.Runner.pp_outcome outcome

let run_sweep protocol adversary ~jobs ~n ~t ~inputs_spec ~seed ~count ~budget =
  let (Mcheck.Model.Packed p) = protocol.packed in
  let spec =
    {
      Agreement.Ensemble.n;
      t;
      inputs = (fun _seed -> parse_inputs ~n inputs_spec);
      max_windows = budget;
      max_steps = budget * 1000;
      stop = `All_decided;
    }
  in
  let seeds = List.init count (fun i -> seed + i) in
  let result =
    if protocol.windowed then
      let entry = windowed_entry protocol adversary in
      Agreement.Ensemble.run_windowed ~jobs ~protocol:p
        ~strategy:(fun seed -> entry.make ~seed)
        ~spec ~seeds ()
    else
      let entry = stepwise_entry protocol adversary in
      Agreement.Ensemble.run_stepwise ~jobs ~protocol:p
        ~strategy:(fun seed -> entry.make ~seed)
        ~spec ~seeds ()
  in
  Format.printf "@[<v>protocol: %s@,%a@]@." p.name Agreement.Ensemble.pp_result result

open Cmdliner

(* A conv accepting exactly the names [find] knows (no prefix
   matching); a miss lists the [expected] ones. *)
let one_of ~what ~find ~print ~expected =
  let parse s =
    match find s with
    | Some v -> Ok v
    | None -> Error (`Msg (Printf.sprintf "unknown %s: %s (%s)" what s expected))
  in
  Arg.conv (parse, fun ppf v -> Format.pp_print_string ppf (print v))

let protocol =
  let find s =
    List.find_opt (fun p -> String.equal p.name s || List.mem s p.aliases) protocols
  in
  let windowed, stepwise = List.partition (fun p -> p.windowed) protocols in
  let names ps = String.concat ", " (List.map (fun p -> p.name) ps) in
  let expected =
    Printf.sprintf "%s (windowed); %s (stepwise)" (names windowed) (names stepwise)
  in
  Arg.(
    value
    & opt (one_of ~what:"protocol" ~find ~print:(fun p -> p.name) ~expected) (List.hd protocols)
    & info [ "protocol"; "p" ] ~docv:"NAME" ~doc:("Protocol: " ^ expected ^ "."))

let adversary =
  let find s =
    if Option.is_some (Registry.Windowed.find s) || Option.is_some (Registry.Stepwise.find s)
    then Some s
    else None
  in
  let expected =
    Printf.sprintf "windowed: %s; stepwise: %s"
      (String.concat ", " Registry.Windowed.names)
      (String.concat ", " Registry.Stepwise.names)
  in
  Arg.(
    value
    & opt (one_of ~what:"adversary" ~find ~print:Fun.id ~expected) "benign"
    & info [ "adversary"; "a" ] ~docv:"NAME"
        ~doc:(String.capitalize_ascii expected ^ "."))

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

(* Counts the run would otherwise take silently: a negative budget runs
   zero windows, a negative sweep falls back to one run, and -j is
   meaningless below one domain. *)
let check_counts ~budget ~sweep ~jobs =
  let at_least name floor v =
    if v < floor then
      invalid_arg (Printf.sprintf "--%s must be >= %d, got %d" name floor v)
  in
  at_least "budget" 0 budget;
  at_least "sweep" 0 sweep;
  at_least "jobs" 1 jobs

(* Out-of-range counts, unknown adversaries, bad input specs and
   infeasible (n, t) surface as [Invalid_argument] from [check_counts],
   the lookups, the protocols and [Engine.init]; all of them are usage
   errors. *)
let run protocol adversary n t inputs_spec seed budget trace json sweep jobs =
  match
    check_counts ~budget ~sweep ~jobs;
    if sweep > 0 then
      run_sweep protocol adversary ~jobs ~n ~t ~inputs_spec ~seed ~count:sweep ~budget
    else run_single protocol adversary ~n ~t ~inputs_spec ~seed ~budget ~trace ~json
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
