(* The determinism lint's cmt-based typed analyzer (R7-R10 here; the
   ambient-source rules R1/R2/R5/R6 are pinned in test_lint.ml).
   Fixtures are self-contained sources typechecked in memory (they
   declare their own Stream/Protocol modules and message types), plus a
   run over the real tree's cmts, SARIF shape checks and the baseline
   round-trip. *)

open Lintkit

let typed_diags ?config ~path source =
  match Typed_lint.check_source ?config ~path source with
  | Ok ds -> ds
  | Error e -> Alcotest.failf "fixture failed to typecheck: %s" e

let rules_of ds = List.map (fun d -> Rules.id d.Rules.rule) ds

let check_rules what expected ds =
  Alcotest.(check (list string)) what expected (rules_of ds)

let contains haystack needle =
  Option.is_some (Rules.find_substring haystack needle 0)

(* ------------------------------------------------------------------ *)
(* R7: polymorphic compare / hash at non-immediate types.              *)

let test_r7_non_immediate () =
  check_rules "list equality flagged" [ "R7" ]
    (typed_diags ~path:"lib/dsim/fx.ml"
       "let f (a : int list) b = a = b");
  check_rules "tuple compare flagged" [ "R7" ]
    (typed_diags ~path:"lib/protocols/fx.ml"
       "let sort (xs : (int * bool) list) = List.sort compare xs");
  check_rules "string <> flagged" [ "R7" ]
    (typed_diags ~path:"lib/adversary/fx.ml"
       "let ne (a : string) b = a <> b");
  check_rules "Hashtbl.hash always flagged" [ "R2" ]
    (typed_diags ~path:"lib/dsim/fx.ml" "let h (x : int) = Hashtbl.hash x")

let test_r7_immediate_clean () =
  check_rules "int compare is fine" []
    (typed_diags ~path:"lib/dsim/fx.ml" "let c (a : int) b = compare a b");
  check_rules "bool equality is fine" []
    (typed_diags ~path:"lib/dsim/fx.ml" "let e (a : bool) b = a = b");
  check_rules "char equality is fine" []
    (typed_diags ~path:"lib/dsim/fx.ml" "let e (a : char) b = a <> b");
  check_rules "named comparators are fine" []
    (typed_diags ~path:"lib/dsim/fx.ml"
       "let s (xs : string list) = List.sort String.compare xs")

(* The typed view catches what syntax cannot: the operator hidden
   behind a let-binding (still the polymorphic [=], still dangerous). *)
let test_r7_aliased_operator () =
  check_rules "aliased = flagged" [ "R7" ]
    (typed_diags ~path:"lib/dsim/fx.ml"
       "let eq = ( = )\nlet test (a : int list) b = eq a b")

let test_r7_scope () =
  let src = "let z (x : float) = x = 0.0" in
  check_rules "lib/stats in R7 scope" [ "R7" ]
    (typed_diags ~path:"lib/stats/fx.ml" src);
  check_rules "lib/lowerbound in R7 scope" [ "R7" ]
    (typed_diags ~path:"lib/lowerbound/fx.ml" src);
  check_rules "lib/core out of R7 scope" []
    (typed_diags ~path:"lib/core/fx.ml" src)

(* Every hazard class of the retired syntactic compare and
   float-literal rules is caught by R7 when the instantiation is
   genuinely non-immediate (R7 is the more precise rule: it
   additionally *accepts* compare on ints, which a syntactic rule had
   to flag blindly). *)
let test_r7_covers_syntactic_fixtures () =
  check_rules "compare on non-immediate fields" [ "R7" ]
    (typed_diags ~path:"lib/dsim/fx.ml"
       "type r = { round : int list }\n\
        let sort l = List.sort (fun a b -> compare a.round b.round) l");
  check_rules "equality against Some payload" [ "R7" ]
    (typed_diags ~path:"lib/protocols/fx.ml"
       "let f (x : bool option) = x = Some true");
  check_rules "record literal equality" [ "R7" ]
    (typed_diags ~path:"lib/dsim/fx.ml"
       "type r = { id : int }\nlet f (x : r) = x = { id = 1 }");
  check_rules "float-literal equality" [ "R7" ]
    (typed_diags ~path:"lib/stats/fx.ml" "let zero (x : float) = x = 0.0");
  check_rules "float <>" [ "R7" ]
    (typed_diags ~path:"lib/lowerbound/fx.ml" "let f (x : float) = x <> 1.5");
  check_rules "Float.equal stays fine" []
    (typed_diags ~path:"lib/stats/fx.ml"
       "let zero (x : float) = Float.equal x 0.0")

(* ------------------------------------------------------------------ *)
(* R8: protocol transition purity.                                     *)

let protocol_prelude =
  "module Protocol = struct\n\
  \  type t = { name : string; init : int -> int; pp_message : int -> unit }\n\
   end\n"

(* A print in library code is also R5's finding; the R8 fixtures that
   print expect both rules. *)
let test_r8_effectful_transition () =
  check_rules "direct print in a transition" [ "R5"; "R8" ]
    (typed_diags ~path:"lib/protocols/fx.ml"
       (protocol_prelude
      ^ "let noisy n = print_int n; n\n\
         let p = { Protocol.name = \"fx\"; init = noisy; pp_message = ignore }"));
  let interproc =
    protocol_prelude
    ^ "let table : (int, int) Hashtbl.t = Hashtbl.create 8\n\
       let remember x = Hashtbl.replace table x x; x\n\
       let transition s = remember s\n\
       let p = { Protocol.name = \"fx\"; init = transition; pp_message = ignore }"
  in
  (match typed_diags ~path:"lib/protocols/fx.ml" interproc with
  | [ d ] ->
      Alcotest.(check string) "rule" "R8" (Rules.id d.Rules.rule);
      Alcotest.(check bool) "mutation named" true
        (contains d.Rules.message "Hashtbl.replace");
      Alcotest.(check bool) "call chain reported" true
        (contains d.Rules.message "via Fx.transition -> Fx.remember");
      Alcotest.(check bool) "protocol named" true
        (contains d.Rules.message "\"fx\"")
  | ds -> Alcotest.failf "expected 1 diagnostic, got [%s]"
            (String.concat "; " (rules_of ds)));
  check_rules "failwith in a transition" [ "R8" ]
    (typed_diags ~path:"lib/protocols/fx.ml"
       (protocol_prelude
      ^ "let bad n = if n < 0 then failwith \"neg\" else n\n\
         let p = { Protocol.name = \"fx\"; init = bad; pp_message = ignore }"))

let test_r8_clean () =
  check_rules "locally-allocated mutation is pure" []
    (typed_diags ~path:"lib/protocols/fx.ml"
       (protocol_prelude
      ^ "let count n =\n\
        \  let t = Hashtbl.create 8 in\n\
        \  for i = 0 to n do Hashtbl.replace t i i done;\n\
        \  Hashtbl.length t\n\
         let p = { Protocol.name = \"fx\"; init = count; pp_message = ignore }"));
  check_rules "allowlisted raises are guard rails, not effects" []
    (typed_diags ~path:"lib/protocols/fx.ml"
       (protocol_prelude
      ^ "let guarded n = if n < 0 then invalid_arg \"neg\" else (assert (n >= 0); n)\n\
         let p = { Protocol.name = \"fx\"; init = guarded; pp_message = ignore }"));
  check_rules "pretty-printer fields are exempt from R8" [ "R5" ]
    (typed_diags ~path:"lib/protocols/fx.ml"
       (protocol_prelude
      ^ "let show n = print_int n\n\
         let p = { Protocol.name = \"fx\"; init = (fun n -> n); pp_message = show }"))

(* ------------------------------------------------------------------ *)
(* R9: stream role linearity.                                          *)

let stream_prelude =
  "module Stream = struct\n\
  \  type t = T\n\
  \  let derive t _i = ignore t; T\n\
  \  let copy t = ignore t; T\n\
  \  let bits t = ignore t; 7\n\
   end\n"

let test_r9_both_roles () =
  check_rules "derive + draw on one stream" [ "R9" ]
    (typed_diags ~path:"lib/dsim/fx.ml"
       (stream_prelude ^ "let bad rng = Stream.derive rng (Stream.bits rng)"));
  check_rules "alias does not hide the draw" [ "R9" ]
    (typed_diags ~path:"lib/dsim/fx.ml"
       (stream_prelude
      ^ "let bad rng =\n\
        \  let r2 = rng in\n\
        \  Stream.derive rng (Stream.bits r2)"))

let test_r9_clean () =
  check_rules "explicit draw fork is the sanctioned idiom" []
    (typed_diags ~path:"lib/dsim/fx.ml"
       (stream_prelude
      ^ "let good rng =\n\
        \  let draw = Stream.copy rng in\n\
        \  Stream.derive rng (Stream.bits draw)"));
  check_rules "derive-only fan-out is fine" []
    (typed_diags ~path:"lib/dsim/fx.ml"
       (stream_prelude
      ^ "let fan rng = (Stream.derive rng 0, Stream.derive rng 1)"));
  check_rules "R9 does not apply inside lib/prng" []
    (typed_diags ~path:"lib/prng/fx.ml"
       (stream_prelude ^ "let bad rng = Stream.derive rng (Stream.bits rng)"))

(* ------------------------------------------------------------------ *)
(* R10: no catch-all over message types.                               *)

let test_r10_catch_all () =
  check_rules "wildcard in a message match" [ "R10" ]
    (typed_diags ~path:"lib/protocols/fx.ml"
       "type message = Ping of int | Pong of int\n\
        let handle (m : message) = match m with Ping n -> n | _ -> 0");
  check_rules "function-sugar dispatch too" [ "R10" ]
    (typed_diags ~path:"lib/protocols/fx.ml"
       "type vote = Val of bool | Dec of bool\n\
        let bit = function Val b -> b | _ -> false");
  check_rules "suffixed type names count" [ "R10" ]
    (typed_diags ~path:"lib/adversary/fx.ml"
       "type coin_msg = Flip | Reveal of bool\n\
        let f (m : coin_msg) = match m with Flip -> 0 | _ -> 1")

let test_r10_clean () =
  check_rules "exhaustive match is the fix" []
    (typed_diags ~path:"lib/protocols/fx.ml"
       "type message = Ping of int | Pong of int\n\
        let handle (m : message) = match m with Ping n -> n | Pong n -> n");
  check_rules "catch-all over non-message types is fine" []
    (typed_diags ~path:"lib/protocols/fx.ml"
       "let f (o : bool option) = match o with Some true -> 1 | _ -> 0");
  check_rules "guarded wildcards are deliberate filters" []
    (typed_diags ~path:"lib/protocols/fx.ml"
       "type message = Ping of int | Pong of int\n\
        let f (m : message) even =\n\
        \  match m with Ping n -> n | m when even (match m with Ping k | Pong k -> k) -> 1 | Pong _ -> 2")

(* ------------------------------------------------------------------ *)
(* Shared machinery: suppressions, the real tree, SARIF, baselines.    *)

let test_typed_suppression () =
  check_rules "same-line suppression" []
    (typed_diags ~path:"lib/dsim/fx.ml"
       "let f (a : int list) b = a = b (* lint: allow R7 *)");
  check_rules "previous-line suppression" []
    (typed_diags ~path:"lib/dsim/fx.ml"
       "(* lint: allow R7 *)\nlet f (a : int list) b = a = b");
  check_rules "wrong rule does not suppress" [ "R7" ]
    (typed_diags ~path:"lib/dsim/fx.ml"
       "let f (a : int list) b = a = b (* lint: allow R1 *)")

let find_root () =
  let looks_like_root dir =
    Sys.file_exists (Filename.concat dir "dune-project")
    && Sys.file_exists (Filename.concat dir "lib")
  in
  let rec find dir depth =
    if looks_like_root dir then Some dir
    else if depth = 0 then None
    else find (Filename.concat dir Filename.parent_dir_name) (depth - 1)
  in
  find Filename.current_dir_name 5

(* The repo itself must be typed-clean; the four-tree coverage of the
   scan is pinned by "lint repo is lint-clean". *)
let test_repo_is_typed_clean () =
  match find_root () with
  | None -> Alcotest.fail "could not locate the project root"
  | Some root ->
      let report = Driver.scan ~root Typed_lint.analyze in
      List.iter
        (fun d ->
          Printf.eprintf "unexpected: %s:%d [%s] %s\n" d.Rules.path
            d.Rules.line (Rules.id d.Rules.rule)
            d.Rules.message)
        report.Driver.diagnostics;
      Alcotest.(check int) "no violations" 0
        (List.length report.Driver.diagnostics);
      Alcotest.(check (list string)) "no errors" [] report.Driver.errors;
      Alcotest.(check bool) "loaded a plausible number of units" true
        (report.Driver.files_scanned > 30)

let test_unbuilt_tree_errors () =
  let report =
    Driver.scan ~root:"/nonexistent-root" Typed_lint.analyze
  in
  Alcotest.(check int) "no units" 0 report.Driver.files_scanned;
  match report.Driver.errors with
  | [ e ] ->
      Alcotest.(check bool) "tells the user to build" true
        (contains e "dune build")
  | es -> Alcotest.failf "expected 1 error, got %d" (List.length es)

let sample_report =
  {
    Driver.diagnostics =
      [
        {
          Rules.path = "lib/dsim/engine.ml";
          line = 3;
          col = 4;
          rule = Rules.R7;
          message = "polymorphic `=` at type `bool \"option\"`";
        };
      ];
    errors = [ "boom \"quoted\"" ];
    files_scanned = 1;
  }

let test_sarif_shape () =
  let sarif = Format.asprintf "%a" Driver.render_sarif sample_report in
  List.iter
    (fun fragment ->
      Alcotest.(check bool) (Printf.sprintf "contains %s" fragment) true
        (contains sarif fragment))
    [
      {|"$schema":"https://json.schemastore.org/sarif-2.1.0.json"|};
      {|"version":"2.1.0"|};
      {|"name":"dsim-lint"|};
      {|"id":"R1"|};
      {|"id":"R10"|};
      {|"ruleId":"R7"|};
      {|"uri":"lib/dsim/engine.ml"|};
      {|"startLine":3|};
      {|"startColumn":5|};
      (* 0-based col 4 -> 1-based 5 *)
      {|"executionSuccessful":false|};
      {|boom \"quoted\"|};
      {|bool \"option\"|};
    ];
  (* And a clean report claims success with no results. *)
  let clean =
    Format.asprintf "%a" Driver.render_sarif
      { Driver.diagnostics = []; errors = []; files_scanned = 70 }
  in
  Alcotest.(check bool) "clean run succeeds" true
    (contains clean {|"executionSuccessful":true|});
  Alcotest.(check bool) "no results" true (contains clean {|"results":[]|})

let test_baseline_round_trip () =
  let file = Filename.temp_file "lint_baseline" ".tsv" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      let rendered = Format.asprintf "%a" Driver.render_baseline sample_report in
      Out_channel.with_open_text file (fun oc ->
          Out_channel.output_string oc rendered);
      match Driver.read_baseline file with
      | Error e -> Alcotest.failf "read_baseline: %s" e
      | Ok entries ->
          Alcotest.(check int) "one entry" 1 (List.length entries);
          let filtered, waived = Driver.apply_baseline entries sample_report in
          Alcotest.(check int) "finding waived" 1 waived;
          Alcotest.(check int) "report emptied" 0
            (List.length filtered.Driver.diagnostics);
          (* A different finding is not waived. *)
          let other =
            { sample_report with
              Driver.diagnostics =
                [
                  { Rules.path = "lib/dsim/other.ml"; line = 1; col = 0;
                    rule = Rules.R7; message = "different" };
                ] }
          in
          let kept, waived = Driver.apply_baseline entries other in
          Alcotest.(check int) "nothing waived" 0 waived;
          Alcotest.(check int) "finding kept" 1
            (List.length kept.Driver.diagnostics))

let test_baseline_malformed () =
  let file = Filename.temp_file "lint_baseline" ".tsv" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      Out_channel.with_open_text file (fun oc ->
          Out_channel.output_string oc "# comment is fine\nR7 no tabs here\n");
      match Driver.read_baseline file with
      | Error e ->
          Alcotest.(check bool) "names the line" true (contains e ":2:")
      | Ok _ -> Alcotest.fail "expected a malformed-line error")

let suite =
  [
    Alcotest.test_case "r7 non-immediate" `Quick test_r7_non_immediate;
    Alcotest.test_case "r7 immediate clean" `Quick test_r7_immediate_clean;
    Alcotest.test_case "r7 aliased operator" `Quick test_r7_aliased_operator;
    Alcotest.test_case "r7 scope" `Quick test_r7_scope;
    Alcotest.test_case "r7 subsumes syntactic fixtures" `Quick
      test_r7_covers_syntactic_fixtures;
    Alcotest.test_case "r8 effectful transitions" `Quick
      test_r8_effectful_transition;
    Alcotest.test_case "r8 clean" `Quick test_r8_clean;
    Alcotest.test_case "r9 both roles" `Quick test_r9_both_roles;
    Alcotest.test_case "r9 clean" `Quick test_r9_clean;
    Alcotest.test_case "r10 catch-all" `Quick test_r10_catch_all;
    Alcotest.test_case "r10 clean" `Quick test_r10_clean;
    Alcotest.test_case "typed suppression" `Quick test_typed_suppression;
    Alcotest.test_case "repo is typed-clean" `Quick test_repo_is_typed_clean;
    Alcotest.test_case "unbuilt tree errors" `Quick test_unbuilt_tree_errors;
    Alcotest.test_case "sarif shape" `Quick test_sarif_shape;
    Alcotest.test_case "baseline round trip" `Quick test_baseline_round_trip;
    Alcotest.test_case "baseline malformed" `Quick test_baseline_malformed;
  ]
