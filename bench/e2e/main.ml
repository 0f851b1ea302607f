(* End-to-end agreement benchmark (see README.md in this directory).

     run.sh --workload W --seed S --seconds T --trace 0|1
         one workload; the last stdout line is the JSON result
     run.sh [--seed S] [--seconds T] [--traced] [--json OUT]
         every workload, printed as tables
     run.sh --smoke --benchmark-json FILE
         every workload shrunk to a fraction of a second, traced and
         untraced; checks outputs and that FILE declares exactly the
         workloads and metrics runs print
     run.sh --print-benchmark-json
         the BENCHMARK.json text for the declared workloads and metrics

   Exit codes: 0 clean, 1 an output check failed, 2 usage or
   infrastructure error.

   Each workload runs in fresh worker processes (this executable with
   --worker), so heap and memos never carry over between workloads.
   Set-up time is process start to the end of the warm-up block,
   measured from here around the spawn, in [setup_samples] separate
   processes; the median is reported. *)

module Q = E2e_quantiles.Quantiles

exception Usage of string
exception Infrastructure of string

let setup_samples = 3

type result = {
  workload : string;
  traced : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
  details : (string * string) list;
  problems : string list;
}

let correct r = r.failed = 0 && r.problems = []

(* ------------------------------------------------------------------ *)
(* Launching workers.                                                  *)

let spawn args =
  let exe = Sys.executable_name in
  let r, w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin w Unix.stderr in
  Unix.close w;
  (pid, Unix.in_channel_of_descr r)

let reap pid ic =
  close_in ic;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _, Unix.WEXITED code -> raise (Infrastructure (Printf.sprintf "worker exited with code %d" code))
  | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) ->
      raise (Infrastructure (Printf.sprintf "worker stopped by signal %d" s))

(* Set-up seconds (spawn to "ready") and every output line. *)
let run_worker args =
  let t0 = Layers.now_ns () in
  let pid, ic = spawn args in
  let rec until_ready acc =
    match input_line ic with
    | "ready" -> acc
    | line -> until_ready (line :: acc)
    | exception End_of_file ->
        reap pid ic;
        raise (Infrastructure "worker ended before its warm-up finished")
  in
  let before = until_ready [] in
  let setup = Worker.seconds (Layers.now_ns () - t0) in
  let rec rest acc =
    match input_line ic with line -> rest (line :: acc) | exception End_of_file -> acc
  in
  let lines = List.rev_append before (List.rev (rest [])) in
  reap pid ic;
  (setup, lines)

let parse ~workload ~traced lines =
  let empty = { workload; traced; attempted = -1; failed = 0; metrics = []; details = []; problems = [] } in
  let r =
    List.fold_left
      (fun r line ->
        match String.split_on_char ' ' line with
        | [ "metric"; name; value ] -> { r with metrics = (name, float_of_string value) :: r.metrics }
        | "detail" :: key :: json -> { r with details = (key, String.concat " " json) :: r.details }
        | "problem" :: text -> { r with problems = String.concat " " text :: r.problems }
        | [ "status"; attempted; failed ] ->
            { r with attempted = int_of_string attempted; failed = int_of_string failed }
        | _ -> raise (Infrastructure ("unexpected worker output: " ^ line)))
      empty lines
  in
  if r.attempted < 1 then raise (Infrastructure "worker reported no attempted executions");
  { r with metrics = List.rev r.metrics; details = List.rev r.details; problems = List.rev r.problems }

(* The run must print exactly the declared metrics for its pass. *)
let check_names r =
  let declared = List.map (fun m -> m.Metrics.name) (if r.traced then Metrics.per_layer else Metrics.end_to_end) in
  let printed = List.map fst r.metrics in
  let missing = List.filter (fun n -> not (List.mem n printed)) declared in
  let extra = List.filter (fun n -> not (List.mem n declared)) printed in
  if missing = [] && extra = [] then r
  else
    {
      r with
      problems =
        r.problems
        @ [ Printf.sprintf "metrics differ from the declaration: missing [%s], undeclared [%s]"
              (String.concat " " missing) (String.concat " " extra) ];
    }

let measure ~smoke ~spans_dir ~seed ~seconds ~traced workload =
  let args ~probe =
    [ "--worker"; workload; "--seed"; string_of_int seed; "--seconds"; Printf.sprintf "%g" seconds;
      "--trace"; (if traced then "1" else "0"); "--spans"; spans_dir ]
    @ (if smoke then [ "--smoke" ] else [])
    @ if probe then [ "--probe" ] else []
  in
  let probes =
    if traced then [] else List.init (setup_samples - 1) (fun _ -> fst (run_worker (args ~probe:true)))
  in
  let setup, lines = run_worker (args ~probe:false) in
  let r = parse ~workload ~traced lines in
  let r =
    if traced then r
    else
      let samples = Q.sorted (Array.of_list (setup :: probes)) in
      {
        r with
        metrics = r.metrics @ [ ("setup_s", Q.median samples) ];
        details =
          r.details
          @ [ ( "setup_s_samples",
                "[" ^ String.concat "," (List.map (Printf.sprintf "%.17g") (Array.to_list samples)) ^ "]" ) ];
      }
  in
  check_names r

(* ------------------------------------------------------------------ *)
(* Output.                                                             *)

let unit_of name = match Metrics.find name with Some m -> m.Metrics.unit_ | None -> "?"

let metrics_json r =
  String.concat ", "
    (List.map
       (fun (name, v) -> Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" name v (unit_of name))
       r.metrics)

let result_line r =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" (correct r)
    r.attempted r.failed (metrics_json r)

let print_table ~seed ~seconds r =
  Printf.printf "== %s (%s, seed %d, %g s): %s, %d executions, %d failed\n" r.workload
    (if r.traced then "traced" else "untraced")
    seed seconds
    (if correct r then "correct" else "INCORRECT")
    r.attempted r.failed;
  List.iter (fun (name, v) -> Printf.printf "  %-28s %16.6g  %s\n" name v (unit_of name)) r.metrics;
  List.iter (fun p -> Printf.printf "  problem: %s\n" p) r.problems

let report_json ~seed ~seconds results =
  let run r =
    Printf.sprintf
      "    {\"workload\": \"%s\", \"traced\": %b, \"correct\": %b, \"attempted\": %d, \"failed\": %d,\n\
      \     \"metrics\": {%s},\n\
      \     \"details\": {%s},\n\
      \     \"problems\": [%s]}"
      r.workload r.traced (correct r) r.attempted r.failed (metrics_json r)
      (String.concat ", " (List.map (fun (k, json) -> Printf.sprintf "\"%s\": %s" k json) r.details))
      (String.concat ", " (List.map (fun p -> "\"" ^ Metrics.escape p ^ "\"") r.problems))
  in
  Printf.sprintf "{\n  \"schema\": \"agreement-e2e/1\",\n  \"seed\": %d,\n  \"seconds\": %g,\n  \"runs\": [\n%s\n  ]\n}\n"
    seed seconds
    (String.concat ",\n" (List.map run results))

(* ------------------------------------------------------------------ *)
(* Modes.                                                              *)

type cli = {
  single : string option;
  worker : string option;
  seed : int;
  seconds : float;
  trace : bool;
  probe : bool;
  smoke : bool;
  json : string option;
  benchmark_json : string option;
  print_benchmark_json : bool;
  spans_dir : string;
}

let parse_cli argv =
  let int_arg flag v = match int_of_string_opt v with Some i -> i | None -> raise (Usage (flag ^ " needs an integer")) in
  let rec go c = function
    | [] -> c
    | "--workload" :: w :: rest -> go { c with single = Some w } rest
    | "--worker" :: w :: rest -> go { c with worker = Some w } rest
    | "--seed" :: s :: rest -> go { c with seed = int_arg "--seed" s } rest
    | "--seconds" :: s :: rest -> (
        match float_of_string_opt s with
        | Some x when x > 0.0 && x <= 60.0 -> go { c with seconds = x } rest
        | _ -> raise (Usage "--seconds needs a number in (0, 60]"))
    | "--trace" :: ("0" | "1" as b) :: rest -> go { c with trace = String.equal b "1" } rest
    | "--traced" :: rest -> go { c with trace = true } rest
    | "--probe" :: rest -> go { c with probe = true } rest
    | "--smoke" :: rest -> go { c with smoke = true } rest
    | "--json" :: out :: rest -> go { c with json = Some out } rest
    | "--benchmark-json" :: f :: rest -> go { c with benchmark_json = Some f } rest
    | "--print-benchmark-json" :: rest -> go { c with print_benchmark_json = true } rest
    | "--spans" :: d :: rest -> go { c with spans_dir = d } rest
    | arg :: _ -> raise (Usage ("unexpected argument " ^ arg))
  in
  go
    {
      single = None;
      worker = None;
      seed = 1;
      seconds = float_of_int Metrics.run_seconds;
      trace = false;
      probe = false;
      smoke = false;
      json = None;
      benchmark_json = None;
      print_benchmark_json = false;
      spans_dir = "bench/e2e/out";
    }
    (List.tl (Array.to_list argv))

let declared_workloads () =
  List.map (fun (w : Workloads.t) -> (w.name, w.why)) (Workloads.all ~smoke:false)

let known name =
  match Workloads.find ~smoke:false name with
  | Some _ -> name
  | None -> raise (Usage ("unknown workload " ^ name))

let exit_for results = if List.for_all correct results then 0 else 1

let single_mode c name =
  let r = measure ~smoke:false ~spans_dir:c.spans_dir ~seed:c.seed ~seconds:c.seconds ~traced:c.trace (known name) in
  List.iter (fun p -> prerr_endline ("e2e: " ^ p)) r.problems;
  print_endline (result_line r);
  exit_for [ r ]

let all_mode c =
  let names = List.map fst (declared_workloads ()) in
  let results =
    List.concat_map
      (fun name ->
        let run traced =
          let r = measure ~smoke:false ~spans_dir:c.spans_dir ~seed:c.seed ~seconds:c.seconds ~traced name in
          print_table ~seed:c.seed ~seconds:c.seconds r;
          r
        in
        let untraced = run false in
        if c.trace then [ untraced; run true ] else [ untraced ])
      names
  in
  Option.iter
    (fun path -> Out_channel.with_open_text path (fun oc -> output_string oc (report_json ~seed:c.seed ~seconds:c.seconds results)))
    c.json;
  exit_for results

let smoke_mode c =
  let path = match c.benchmark_json with Some p -> p | None -> raise (Usage "--smoke needs --benchmark-json FILE") in
  let declared = In_channel.with_open_text path In_channel.input_all in
  let drift = not (String.equal declared (Metrics.benchmark_json (declared_workloads ()))) in
  if drift then
    Printf.printf "smoke: %s differs from the declared workloads and metrics (regenerate it with --print-benchmark-json)\n" path;
  let results =
    List.concat_map
      (fun (w : Workloads.t) ->
        List.map
          (fun traced -> measure ~smoke:true ~spans_dir:c.spans_dir ~seed:c.seed ~seconds:0.05 ~traced w.name)
          [ false; true ])
      (Workloads.all ~smoke:true)
  in
  List.iter
    (fun r ->
      Printf.printf "smoke: %s %s: %s (%d executions)\n" r.workload
        (if r.traced then "traced" else "untraced")
        (if correct r then "ok" else "FAILED") r.attempted;
      List.iter (fun p -> Printf.printf "  problem: %s\n" p) r.problems)
    results;
  if drift then 1 else exit_for results

let main argv =
  let c = parse_cli argv in
  match c with
  | { worker = Some name; _ } -> (
      match Workloads.find ~smoke:c.smoke name with
      | None -> raise (Usage ("unknown workload " ^ name))
      | Some workload ->
          Worker.run ~workload ~seed:c.seed ~seconds:c.seconds ~trace:c.trace ~probe:c.probe
            ~spans_dir:c.spans_dir;
          0)
  | { print_benchmark_json = true; _ } ->
      print_string (Metrics.benchmark_json (declared_workloads ()));
      0
  | { smoke = true; _ } -> smoke_mode c
  | { single = Some name; _ } -> single_mode c name
  | _ -> all_mode c

let () =
  let code =
    try main Sys.argv with
    | Usage msg ->
        prerr_endline ("e2e: " ^ msg);
        2
    | Infrastructure msg ->
        prerr_endline ("e2e: " ^ msg);
        2
  in
  exit code
