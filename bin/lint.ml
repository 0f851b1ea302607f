(* Determinism lint driver.

     lint [--root DIR] [--dir lib --dir bin ...] [--format human|json|sarif]
     lint --cost [--root DIR] [--baseline FILE]
     lint --quorum [--root DIR] [--baseline FILE]
     lint --check FILE          # every layer on one standalone source
     lint --explain R8

   Every layer reads the *.cmt typed trees of the built project.  The
   default pass checks the determinism rules R1, R2 and R5-R10 over
   lib bin bench examples; --cost checks the hot-path cost rules
   R11-R15; --quorum proves the quorum-threshold arithmetic R16-R18
   symbolically for all n, t (both default to lib).  The main modules
   of executables only get a cmt from `dune build @check`, so run that
   first.  Exit codes: 0 clean, 1 rule violations, 2 read/parse/load
   errors — so any layer can gate CI via `dune build @lint` /
   `@lint-cost` / `@lint-quorum`. *)

open Cmdliner

let render format report =
  match format with
  | `Json -> Lintkit.Driver.render_json Format.std_formatter report
  | `Sarif -> Lintkit.Driver.render_sarif Format.std_formatter report
  | `Baseline -> Lintkit.Driver.render_baseline Format.std_formatter report
  | `Human -> Lintkit.Driver.render_human Format.std_formatter report

let exit_code (report : Lintkit.Driver.report) =
  if report.errors <> [] then 2
  else if report.diagnostics <> [] then 1
  else 0

let with_baseline baseline report =
  match baseline with
  | None -> Ok report
  | Some file -> (
      match Lintkit.Driver.read_baseline file with
      | Error e -> Error (Printf.sprintf "baseline %s: %s" file e)
      | Ok entries ->
          let report, waived = Lintkit.Driver.apply_baseline entries report in
          if waived > 0 then
            Format.eprintf "lint: %d finding%s waived by baseline %s@." waived
              (if waived = 1 then "" else "s")
              file;
          Ok report)

(* Every layer on a single standalone source file, typechecked in
   memory.  Used by fixtures and the check.sh exit-code matrix; no cmt
   files needed. *)
let check_file format file =
  match In_channel.with_open_text file In_channel.input_all with
  | exception Sys_error e ->
      Format.eprintf "lint: %s@." e;
      2
  | source ->
      let typed = Lintkit.Typed_lint.check_source ~path:file source in
      let cost = Lintkit.Cost_lint.check_source ~path:file source in
      let quorum = Lintkit.Quorum_lint.check_source ~path:file source in
      let diagnostics, errors =
        List.fold_left
          (fun (ds, es) -> function
            | Ok d -> (ds @ d, es)
            | Error e -> (ds, es @ [ e ]))
          ([], []) [ typed; cost; quorum ]
      in
      let report =
        {
          Lintkit.Driver.diagnostics =
            List.sort Lintkit.Rules.compare_diagnostic diagnostics;
          errors;
          files_scanned = 1;
        }
      in
      render format report;
      exit_code report

let run root dirs format explain cost quorum baseline check =
  match explain with
  | Some id -> (
      match Lintkit.Rules.of_id id with
      | Some rule ->
          Format.printf "@[<v>%s — %s (%s layer)@,@,%s@]@."
            (Lintkit.Rules.id rule)
            (Lintkit.Rules.title rule)
            (match Lintkit.Rules.layer rule with
            | `Typed -> "typed"
            | `Cost -> "cost"
            | `Quorum -> "quorum")
            (Lintkit.Rules.describe rule);
          0
      | None ->
          Format.eprintf "unknown rule %S (expected R1..R18)@." id;
          2)
  | None -> (
      match check with
      | Some file -> check_file format file
      | None ->
          let report =
            let scan default analyze =
              Lintkit.Driver.scan
                ~dirs:(if dirs = [] then default else dirs)
                ~root analyze
            in
            if quorum then scan [ "lib" ] Lintkit.Quorum_lint.analyze
            else if cost then scan [ "lib" ] Lintkit.Cost_lint.analyze
            else scan Lintkit.Driver.default_dirs Lintkit.Typed_lint.analyze
          in
          (match with_baseline baseline report with
          | Error e ->
              Format.eprintf "lint: %s@." e;
              2
          | Ok report ->
              render format report;
              exit_code report))

let root =
  Arg.(value & opt string "." & info [ "root" ] ~docv:"DIR"
         ~doc:"Repository root to scan (paths in the report are relative to it).")

let dirs =
  Arg.(value & opt_all string [] & info [ "dir" ] ~docv:"DIR"
         ~doc:"Subtree to scan (repeatable; defaults to lib bin bench examples, \
               or lib for --cost and --quorum).")

let format =
  Arg.(value
       & opt
           (enum
              [
                ("human", `Human);
                ("json", `Json);
                ("sarif", `Sarif);
                ("baseline", `Baseline);
              ])
           `Human
       & info [ "format" ] ~docv:"FMT"
           ~doc:"Output format: human, json, sarif (2.1.0), or baseline \
                 (RULE<TAB>PATH<TAB>MESSAGE lines suitable for --baseline).")

let explain =
  Arg.(value & opt (some string) None & info [ "explain" ] ~docv:"RULE"
         ~doc:"Print the rationale for one rule (R1..R18) and exit.")

let cost =
  Arg.(value & flag & info [ "cost" ]
         ~doc:"Run the hot-path cost layer (R11..R15) over the *.cmt trees \
               of the built project instead of the determinism rules. \
               Requires a prior $(b,dune build).")

let quorum =
  Arg.(value & flag & info [ "quorum" ]
         ~doc:"Run the symbolic quorum-safety layer (R16..R18) over the \
               *.cmt trees of the built project instead of the determinism \
               rules. Requires a prior $(b,dune build).")

let baseline =
  Arg.(value & opt (some string) None & info [ "baseline" ] ~docv:"FILE"
         ~doc:"Waive findings listed in FILE (RULE<TAB>PATH<TAB>MESSAGE \
               lines, '#' comments). Seed one by redirecting \
               $(b,--format baseline) output to FILE.")

let check =
  Arg.(value & opt (some string) None & info [ "check" ] ~docv:"FILE"
         ~doc:"Lint one standalone source file with every layer (via an \
               in-memory typecheck; no cmt files needed).")

let cmd =
  let doc =
    "determinism, hot-path & quorum-safety linter (typed + cost + \
     quorum) for the agreement reproduction"
  in
  Cmd.v (Cmd.info "lint" ~doc)
    Term.(const run $ root $ dirs $ format $ explain $ cost $ quorum
          $ baseline $ check)

let () =
  (* Every pass loads all its typed trees before analyzing them; major
     collections over that growing live set are wasted work in a
     short-lived batch run, so trade heap slack for fewer of them. *)
  Gc.set { (Gc.get ()) with space_overhead = 400 };
  exit (Cmd.eval' cmd)
