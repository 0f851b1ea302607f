(* Reproduction driver: regenerates every experiment table from
   DESIGN.md's matrix.  `experiments --list` shows the ids;
   `experiments -e E2 -e E4` runs a subset; `--quick` shrinks sweeps. *)

let known_ids = Agreement.Repro.experiment_ids

let run_selected ~quick ~jobs ~ids ~markdown ~csv_dir =
  let scale = if quick then `Quick else `Full in
  let selected = Agreement.Repro.selected ~jobs ~scale ~ids () in
  if selected = [] then begin
    prerr_endline "no matching experiment ids; use --list";
    exit 1
  end;
  (match csv_dir with
  | None -> ()
  | Some dir ->
      (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      List.iter
        (fun (id, table) ->
          let path = Filename.concat dir (id ^ ".csv") in
          let oc = open_out path in
          output_string oc (Stats.Table.to_csv table);
          close_out oc)
        selected);
  if markdown then print_string (Agreement.Repro.render_markdown selected)
  else
    List.iter
      (fun (id, table) ->
        Printf.printf "=== %s ===\n%s\n" id (Stats.Table.to_string table))
      selected

let list_ids () = List.iter print_endline known_ids

open Cmdliner

let quick =
  let doc = "Shrink seed counts and sweeps (for smoke runs)." in
  Arg.(value & flag & info [ "quick"; "q" ] ~doc)

let jobs =
  let doc =
    "Run seed sweeps on $(docv) domains.  Output is bit-identical for \
     every value; defaults to the recommended domain count."
  in
  Arg.(
    value
    & opt int (Par_sweep.default_jobs ())
    & info [ "jobs"; "j" ] ~docv:"JOBS" ~doc)

let ids =
  let doc = "Run only this experiment id (repeatable); default: all." in
  Arg.(value & opt_all string [] & info [ "experiment"; "e" ] ~docv:"ID" ~doc)

let markdown =
  let doc = "Emit EXPERIMENTS.md-style markdown instead of plain tables." in
  Arg.(value & flag & info [ "markdown"; "m" ] ~doc)

let list_flag =
  let doc = "List experiment ids and exit." in
  Arg.(value & flag & info [ "list"; "l" ] ~doc)

let csv_dir =
  let doc = "Additionally write one CSV per experiment into this directory." in
  Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"DIR" ~doc)

let main quick jobs ids markdown list_ csv_dir =
  if list_ then list_ids ()
  else run_selected ~quick ~jobs ~ids ~markdown ~csv_dir

let cmd =
  let doc =
    "Regenerate the evaluation of 'On the Complexity of Asynchronous Agreement \
     Against Powerful Adversaries' (Lewko & Lewko, PODC 2013)"
  in
  Cmd.v
    (Cmd.info "experiments" ~doc)
    Term.(const main $ quick $ jobs $ ids $ markdown $ list_flag $ csv_dir)

let () = exit (Cmd.eval cmd)
