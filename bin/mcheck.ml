(* Bounded exhaustive model checker over the dsim kernel.

     mcheck --protocol bracha --n 3 --t 1 --depth 5

   enumerates EVERY schedule over the chosen per-window adversary menu
   (window family x resets x corruption) up to the depth bound, runs
   each through the engine, and checks agreement, validity and the
   decision quorum on every reached configuration; --audit additionally
   replays the trace auditor on every candidate.

   Exit codes: 0 = explored clean, 1 = violations found, 2 = usage
   error (including any malformed argument) / infeasible parameters.
   JSON output carries no timings or job counts, so it is
   byte-identical across -j values — check.sh diffs -j 1 against
   -j 2. *)

let parse_inputs ~n = function
  | "all" -> Mcheck.Explore.All
  | "split" -> Mcheck.Explore.Split
  | "zeros" -> Mcheck.Explore.Unanimous false
  | "ones" -> Mcheck.Explore.Unanimous true
  | spec ->
      if String.length spec = n && String.for_all (fun c -> c = '0' || c = '1') spec
      then Mcheck.Explore.Vector (Array.init n (fun i -> spec.[i] = '1'))
      else
        invalid_arg
          (Printf.sprintf
             "inputs must be all|split|zeros|ones or a %d-char bitstring" n)

(* {2 Text report} *)

let pp_schedule_text model opts inputs ppf schedule =
  let menu =
    Mcheck.Menu.build ~n:opts.Mcheck.Explore.n ~t:opts.Mcheck.Explore.t
      ~family:opts.Mcheck.Explore.family ~corrupt:opts.Mcheck.Explore.corrupt
  in
  Array.iteri
    (fun w ci ->
      Format.fprintf ppf "    window %d: choice %d  %s@," (w + 1) ci
        (Mcheck.Menu.choice_to_string (Mcheck.Menu.choice menu ci)))
    schedule;
  let report = Mcheck.Model.replay model opts ~inputs schedule in
  List.iter
    (fun (p, v) ->
      Format.fprintf ppf "    decision: processor %d -> %d@," p
        (if v then 1 else 0))
    report.Mcheck.Explore.final_decisions;
  List.iter
    (fun line -> Format.fprintf ppf "    audit: %s@," line)
    report.Mcheck.Explore.audit_violations

let print_text model (opts : Mcheck.Explore.options)
    (r : Mcheck.Explore.result) =
  let open Format in
  printf "@[<v>model checker: %s  n=%d t=%d depth=%d@," r.protocol_name
    opts.n opts.t opts.depth;
  printf "menu: %s windows, %d corrupt source(s) -> %d choices/window@,"
    (match opts.family with `Uniform -> "uniform" | `Full -> "full")
    opts.corrupt r.menu_size;
  printf "symmetry: %s  dedup: %s@,"
    (if opts.symmetry then "on" else "off")
    (if opts.dedup then "on" else "off");
  List.iter (fun note -> printf "note: %s@," note)
    (model.Mcheck.Model.notes ~n:opts.n ~t:opts.t ~corrupt:opts.corrupt);
  printf "roots: %d explored" (List.length r.roots);
  if r.roots_collapsed > 0 then
    printf " (+%d input vectors collapsed by symmetry)" r.roots_collapsed;
  printf "@,";
  List.iter
    (fun (s : Mcheck.Explore.root_stats) ->
      printf
        "  root %s |G|=%d: %d states, %d candidates, %d dedup hits, %d \
         symmetry hits%s%s@,"
        (Mcheck.Explore.inputs_string s.inputs_bits)
        s.group_order s.states s.candidates s.dedup_hits s.symmetry_hits
        (match s.layers with
        | [] -> ""
        | ls ->
            "  layers " ^ String.concat "/" (List.map string_of_int ls))
        (if s.bounded then "  [budget hit]" else ""))
    r.roots;
  printf "total: %d states (%d candidates, %d deduplicated, %d \
          symmetry-collapsed)%s@,"
    r.total_states r.total_candidates r.total_dedup_hits
    r.total_symmetry_hits
    (if r.bounded then "  [state budget hit: exploration incomplete]" else "");
  (match r.violations with
  | [] ->
      printf "result: no violations — every reachable configuration within \
              the bounds satisfies agreement, validity and the %d-sender \
              decision quorum@,"
        opts.quorum
  | v :: _ ->
      printf "result: %d violation(s)%s@," r.violations_total
        (if r.violations_total > List.length r.violations then
           Printf.sprintf " (showing %d)" (List.length r.violations)
         else "");
      printf "minimal counterexample: %s at depth %d, root inputs %s@,"
        (Mcheck.Explore.kind_id v.kind) v.vdepth
        (Mcheck.Explore.inputs_string v.root_inputs);
      printf "  %s@," v.detail;
      printf "  schedule [%s]:@,"
        (String.concat ";"
           (List.map string_of_int (Array.to_list v.schedule)));
      pp_schedule_text model opts v.root_inputs std_formatter v.schedule);
  printf "@]@."

(* {2 JSON report (hand-rolled, deterministic, no timings)} *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let print_json model (opts : Mcheck.Explore.options)
    (r : Mcheck.Explore.result) =
  let b = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "{\"schema\":\"agreement-mcheck/1\",\"protocol\":\"%s\","
    (json_escape r.protocol_name);
  add "\"n\":%d,\"t\":%d,\"depth\":%d,\"corrupt\":%d," opts.n opts.t opts.depth
    opts.corrupt;
  add "\"windows\":\"%s\",\"symmetry\":%b,\"dedup\":%b,\"quorum\":%d,"
    (match opts.family with `Uniform -> "uniform" | `Full -> "full")
    opts.symmetry opts.dedup opts.quorum;
  add "\"menu_size\":%d,\"bounded\":%b," r.menu_size r.bounded;
  add "\"roots_collapsed\":%d,\"roots\":[" r.roots_collapsed;
  List.iteri
    (fun i (s : Mcheck.Explore.root_stats) ->
      if i > 0 then add ",";
      add
        "{\"inputs\":\"%s\",\"group_order\":%d,\"states\":%d,\
         \"candidates\":%d,\"dedup_hits\":%d,\"symmetry_hits\":%d,\
         \"layers\":[%s],\"bounded\":%b}"
        (Mcheck.Explore.inputs_string s.inputs_bits)
        s.group_order s.states s.candidates s.dedup_hits s.symmetry_hits
        (String.concat "," (List.map string_of_int s.layers))
        s.bounded)
    r.roots;
  add "],\"totals\":{\"states\":%d,\"candidates\":%d,\"dedup_hits\":%d,\
       \"symmetry_hits\":%d},"
    r.total_states r.total_candidates r.total_dedup_hits r.total_symmetry_hits;
  add "\"violations_total\":%d,\"violations\":[" r.violations_total;
  List.iteri
    (fun i (v : Mcheck.Explore.violation) ->
      if i > 0 then add ",";
      add
        "{\"kind\":\"%s\",\"depth\":%d,\"inputs\":\"%s\",\"schedule\":[%s],\
         \"detail\":\"%s\"}"
        (Mcheck.Explore.kind_id v.kind)
        v.vdepth
        (Mcheck.Explore.inputs_string v.root_inputs)
        (String.concat "," (List.map string_of_int (Array.to_list v.schedule)))
        (json_escape v.detail))
    r.violations;
  add "]}";
  ignore model;
  print_string (Buffer.contents b);
  print_newline ()

(* {2 Replay mode} *)

let parse_schedule spec =
  String.split_on_char ';' spec
  |> List.filter (fun s -> String.length s > 0)
  |> List.map int_of_string
  |> Array.of_list

(* Deterministically re-execute one schedule with full event recording
   and the trace auditor; exit 1 iff it exhibits a violation.  This is
   how pinned counterexamples are re-validated from the command line. *)
let run_replay model (opts : Mcheck.Explore.options) inputs schedule =
  let menu =
    Mcheck.Menu.build ~n:opts.n ~t:opts.t ~family:opts.family
      ~corrupt:opts.corrupt
  in
  let bad =
    Array.exists (fun ci -> ci < 0 || ci >= Mcheck.Menu.size menu) schedule
  in
  if bad then (
    Printf.eprintf "mcheck: schedule index out of menu range [0, %d)\n"
      (Mcheck.Menu.size menu);
    2)
  else begin
    let report = Mcheck.Model.replay model opts ~inputs schedule in
    let open Format in
    printf "@[<v>replay: %s  n=%d t=%d  inputs %s  schedule [%s]@,"
      model.Mcheck.Model.name opts.n opts.t
      (Mcheck.Explore.inputs_string inputs)
      (String.concat ";" (List.map string_of_int (Array.to_list schedule)));
    List.iter
      (fun (l : Mcheck.Explore.replay_line) ->
        printf "  window %d: choice %s%s@," l.window l.choice
          (match l.new_decisions with
          | [] -> ""
          | ds ->
              "  ->  "
              ^ String.concat ", "
                  (List.map
                     (fun (p, v) ->
                       Printf.sprintf "processor %d decides %d" p
                         (if v then 1 else 0))
                     ds)))
      report.Mcheck.Explore.lines;
    printf "final decisions: %s@,"
      (match report.final_decisions with
      | [] -> "none"
      | ds ->
          String.concat ", "
            (List.map
               (fun (p, v) -> Printf.sprintf "%d=%d" p (if v then 1 else 0))
               ds));
    List.iter (fun a -> printf "audit: %s@," a) report.audit_violations;
    printf "verdict: %s@]@."
      (if report.conflict then "AGREEMENT VIOLATION"
       else if report.audit_violations <> [] then "AUDIT VIOLATION"
       else "consistent");
    if report.conflict || report.audit_violations <> [] then 1 else 0
  end

(* {2 Command} *)

let run protocol n t depth windows corrupt inputs_spec seed symmetry no_dedup
    audit max_states jobs format replay =
  match Mcheck.Model.find protocol with
  | None ->
      Printf.eprintf "mcheck: unknown protocol %S; known: %s\n" protocol
        (String.concat ", " Mcheck.Model.names);
      2
  | Some model -> (
      match
        let family = windows in
        let inputs = parse_inputs ~n inputs_spec in
        let opts =
          {
            (Mcheck.Model.options model ~n ~t) with
            Mcheck.Explore.depth;
            family;
            corrupt;
            inputs;
            seed;
            symmetry;
            dedup = not no_dedup;
            audit;
            max_states;
            jobs;
          }
        in
        (match model.Mcheck.Model.feasible ~n ~t with
        | Ok () -> ()
        | Error e -> invalid_arg e);
        match replay with
        | Some spec ->
            let inputs_vec =
              match inputs with
              | Mcheck.Explore.Vector v -> v
              | Mcheck.Explore.Unanimous b -> Array.make n b
              | Mcheck.Explore.Split -> Array.init n (fun i -> i land 1 = 0)
              | Mcheck.Explore.All ->
                  invalid_arg
                    "--replay needs a concrete --inputs (bitstring, zeros, \
                     ones or split)"
            in
            `Replay (run_replay model opts inputs_vec (parse_schedule spec))
        | None -> `Explored (opts, Mcheck.Model.run model opts)
      with
      | `Replay code -> code
      | `Explored (opts, r) ->
          (match format with
          | `Json -> print_json model opts r
          | `Text -> print_text model opts r);
          if r.Mcheck.Explore.violations_total > 0 then 1 else 0
      | exception Invalid_argument msg ->
          Printf.eprintf "mcheck: %s\n" msg;
          2
      | exception Failure msg ->
          Printf.eprintf "mcheck: %s\n" msg;
          2)

open Cmdliner

let protocol_arg =
  Arg.(
    value
    & opt string "bracha"
    & info [ "protocol"; "p" ] ~docv:"NAME"
        ~doc:
          "Model to check: ben-or, bracha, lewko, rbc, or a mutant \
           (ben-or!quorum-1, bracha!quorum-t, rbc!quorum-t).")

let n_arg = Arg.(value & opt int 3 & info [ "n" ] ~doc:"Number of processors (<= 5 is tractable).")
let t_arg = Arg.(value & opt int 1 & info [ "t" ] ~doc:"Fault bound (silenced set / resets per window).")
let depth_arg = Arg.(value & opt int 5 & info [ "depth"; "d" ] ~doc:"Schedule length bound (windows).")

let windows_arg =
  let parse = function
    | "uniform" -> Ok `Uniform
    | "full" -> Ok `Full
    | other -> Error (`Msg ("unknown window family: " ^ other))
  in
  let print ppf f =
    Format.pp_print_string ppf
      (match f with `Uniform -> "uniform" | `Full -> "full")
  in
  Arg.(
    value
    & opt (conv (parse, print)) `Uniform
    & info [ "windows"; "w" ] ~docv:"FAMILY"
        ~doc:
          "Window family: uniform (shared receive set [n] minus at most t \
           silenced senders; exhaustive to depth 5+) or full (independent \
           Definition-1 receive sets per processor; exhaustive to depth \
           ~3).")

let corrupt_arg =
  Arg.(
    value & opt int 0
    & info [ "corrupt"; "c" ] ~docv:"COUNT"
        ~doc:
          "Byzantine sources (processors 0..COUNT-1): the menu then also \
           enumerates every per-destination payload rewrite of their fresh \
           messages, including equivocation.  Must be <= t.")

let inputs_arg =
  Arg.(
    value & opt string "all"
    & info [ "inputs"; "i" ]
        ~doc:"all|split|zeros|ones or an explicit bitstring.")

let seed_arg = Arg.(value & opt int 1 & info [ "seed"; "s" ] ~doc:"Root seed (shared coin stream).")

let symmetry_arg =
  Arg.(
    value
    & opt bool true
    & info [ "symmetry" ] ~docv:"BOOL"
        ~doc:"Canonicalize states up to pid permutations fixing the root.")

let no_dedup_arg =
  Arg.(
    value & flag
    & info [ "no-dedup" ]
        ~doc:
          "Disable configuration deduplication: enumerate the full schedule \
           tree (the brute-force reference mode the tests diff against).")

let audit_arg =
  Arg.(
    value & flag
    & info [ "audit" ]
        ~doc:
          "Additionally run the full trace auditor (FIFO, depth, \
           provenance, window, quorum invariants) on every candidate.")

let max_states_arg =
  Arg.(
    value
    & opt (some int) (Some 1_000_000)
    & info [ "max-states" ] ~docv:"N"
        ~doc:"Per-root state budget; exploration reports when it is hit.")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "jobs"; "j" ] ~docv:"JOBS"
        ~doc:
          "Domains used to expand BFS frontiers.  Results are \
           bit-identical for every value.")

let format_arg =
  Arg.(
    value
    & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
    & info [ "format"; "f" ] ~docv:"FMT" ~doc:"text or json.")

let replay_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "replay" ] ~docv:"SCHEDULE"
        ~doc:
          "Instead of exploring, deterministically replay one schedule \
           (semicolon-separated menu indices, e.g. \"3;3;0\") against the \
           --inputs vector, print the per-window timeline, and run the \
           full trace auditor.  Exit 1 iff the execution violates an \
           invariant.")

let cmd =
  let doc =
    "bounded exhaustive model checking of agreement protocols under the \
     Definition-1 adversary"
  in
  Cmd.v (Cmd.info "mcheck" ~doc)
    Term.(
      const run $ protocol_arg $ n_arg $ t_arg $ depth_arg $ windows_arg
      $ corrupt_arg $ inputs_arg $ seed_arg $ symmetry_arg $ no_dedup_arg
      $ audit_arg $ max_states_arg $ jobs_arg $ format_arg
      $ replay_arg)

(* Accept the spelled-out [--n 3 --t 1] used throughout the docs:
   cmdliner only knows one-char names as short options. *)
let argv =
  Array.map
    (function "--n" -> "-n" | "--t" -> "-t" | a -> a)
    Sys.argv

(* cmdliner reports a malformed argument as 124; the documented
   contract says 2 for every usage error. *)
let () =
  exit
    (match Cmd.eval_value ~argv cmd with
    | Ok (`Ok code) -> code
    | Ok (`Help | `Version) -> 0
    | Error (`Parse | `Term) -> 2
    | Error `Exn -> Cmd.Exit.internal_error)
