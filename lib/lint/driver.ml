type report = {
  diagnostics : Rules.diagnostic list;
  errors : string list;
  files_scanned : int;
}

let default_dirs = [ "lib"; "bin"; "bench"; "examples" ]

(* Every layer reads the same cmt trees; an unbuilt tree is an error,
   never a clean scan. *)
let scan ?(dirs = default_dirs) ~root analyze =
  match Cmt_loader.load ~dirs ~root () with
  | { Cmt_loader.units = []; load_errors = [] } ->
      {
        diagnostics = [];
        errors =
          [ Printf.sprintf
              "no .cmt files found under %S for %s; run `dune build @check` \
               first (the linter reads _build/default/**/*.cmt)"
              root
              (String.concat ", " dirs) ];
        files_scanned = 0;
      }
  | load ->
      {
        diagnostics = analyze load;
        errors = load.load_errors;
        files_scanned = List.length load.units;
      }

let ok report = report.diagnostics = [] && report.errors = []

(* ------------------------------------------------------------------ *)
(* Baselines: known findings accepted with a written justification.    *)

let baseline_key (d : Rules.diagnostic) =
  (Rules.id d.rule, d.path, d.message)

let read_baseline path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error e -> Error e
  | contents ->
      let entries = ref [] in
      let bad = ref None in
      String.split_on_char '\n' contents
      |> List.iteri (fun i line ->
             let line = String.trim line in
             if line = "" || line.[0] = '#' then ()
             else
               match String.split_on_char '\t' line with
               | [ rule; file; message ] ->
                   entries := (rule, file, message) :: !entries
               | _ ->
                   if !bad = None then
                     bad :=
                       Some
                         (Printf.sprintf
                            "%s:%d: malformed baseline line (expected \
                             RULE<TAB>PATH<TAB>MESSAGE)"
                            path (i + 1)));
      (match !bad with
      | Some e -> Error e
      | None -> Ok (List.rev !entries))

let apply_baseline entries report =
  let keep, waived =
    List.partition
      (fun d -> not (List.mem (baseline_key d) entries))
      report.diagnostics
  in
  ({ report with diagnostics = keep }, List.length waived)

let render_baseline ppf report =
  Format.fprintf ppf
    "# lint baseline: RULE<TAB>PATH<TAB>MESSAGE, one accepted finding per \
     line.@.# Keep a justification comment above every entry.@.";
  (* Baseline identity drops line numbers, so several diagnostics can
     collapse onto one entry (e.g. the same re-scan reported at two
     sites of a function).  Sort on the entry key and deduplicate so
     the file is stable under re-generation and trivially diffable. *)
  report.diagnostics
  |> List.map baseline_key
  |> List.sort_uniq compare
  |> List.iter (fun (rule, path, message) ->
         Format.fprintf ppf "%s\t%s\t%s@." rule path message)

let render_human ppf report =
  List.iter
    (fun d ->
      Format.fprintf ppf "%s:%d:%d: [%s] %s@."
        d.Rules.path d.Rules.line d.Rules.col
        (Rules.id d.Rules.rule) d.Rules.message)
    report.diagnostics;
  List.iter (fun e -> Format.fprintf ppf "error: %s@." e) report.errors;
  Format.fprintf ppf "%d file%s scanned, %d violation%s, %d error%s@."
    report.files_scanned
    (if report.files_scanned = 1 then "" else "s")
    (List.length report.diagnostics)
    (if List.length report.diagnostics = 1 then "" else "s")
    (List.length report.errors)
    (if List.length report.errors = 1 then "" else "s")

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let render_json ppf report =
  let violation d =
    Printf.sprintf
      {|{"path":"%s","line":%d,"col":%d,"rule":"%s","message":"%s"}|}
      (json_escape d.Rules.path)
      d.Rules.line d.Rules.col
      (Rules.id d.Rules.rule)
      (json_escape d.Rules.message)
  in
  Format.fprintf ppf
    {|{"files_scanned":%d,"violations":[%s],"errors":[%s]}|}
    report.files_scanned
    (String.concat "," (List.map violation report.diagnostics))
    (String.concat ","
       (List.map (fun e -> "\"" ^ json_escape e ^ "\"") report.errors));
  Format.pp_print_newline ppf ()

(* SARIF 2.1.0 (the GitHub code-scanning dialect): one run, rule
   metadata from the shared {!Rules} tables, results with physical
   locations, read/parse errors as tool execution notifications. *)
let render_sarif ppf report =
  let rule_entry rule =
    Printf.sprintf
      {|{"id":"%s","name":"%s","shortDescription":{"text":"%s"},"fullDescription":{"text":"%s"},"defaultConfiguration":{"level":"error"}}|}
      (Rules.id rule)
      (json_escape (Rules.title rule))
      (json_escape (Rules.title rule))
      (json_escape (Rules.describe rule))
  in
  let rule_index rule =
    let rec go i = function
      | [] -> 0
      | r :: rest -> if r = rule then i else go (i + 1) rest
    in
    go 0 Rules.all
  in
  let result (d : Rules.diagnostic) =
    Printf.sprintf
      {|{"ruleId":"%s","ruleIndex":%d,"level":"error","message":{"text":"%s"},"locations":[{"physicalLocation":{"artifactLocation":{"uri":"%s","uriBaseId":"SRCROOT"},"region":{"startLine":%d,"startColumn":%d}}}]}|}
      (Rules.id d.rule) (rule_index d.rule)
      (json_escape d.message)
      (json_escape d.path)
      d.line (d.col + 1)
  in
  let notification e =
    Printf.sprintf
      {|{"level":"error","message":{"text":"%s"}}|} (json_escape e)
  in
  Format.fprintf ppf
    {|{"$schema":"https://json.schemastore.org/sarif-2.1.0.json","version":"2.1.0","runs":[{"tool":{"driver":{"name":"dsim-lint","informationUri":"https://example.invalid/dsim-lint","rules":[%s]}},"results":[%s],"invocations":[{"executionSuccessful":%b,"toolExecutionNotifications":[%s]}],"columnKind":"utf16CodeUnits"}]}|}
    (String.concat "," (List.map rule_entry Rules.all))
    (String.concat "," (List.map result report.diagnostics))
    (report.errors = [])
    (String.concat "," (List.map notification report.errors));
  Format.pp_print_newline ppf ()
