(* The determinism lint's rule tables and the ambient-source rules
   (R1, R2, R5, R6) on typed fixtures — positive and negative cases per
   rule, scoping, suppression — plus the runtime trace invariant
   checker (clean real executions, and hand-built traces violating each
   invariant). *)

open Lintkit

(* ------------------------------------------------------------------ *)
(* Ambient sources, checked by the typed linter.  Fixtures typecheck
   against the stdlib only, so those naming [Unix] declare their own.   *)

let diags ~path source =
  match Typed_lint.check_source ~path source with
  | Ok ds -> ds
  | Error message -> Alcotest.failf "fixture failed to typecheck: %s" message

let rules_of ds = List.map (fun d -> Rules.id d.Rules.rule) ds

let check_rules what expected ds =
  Alcotest.(check (list string)) what expected (rules_of ds)

let unix_prelude = "module Unix = struct let gettimeofday () = 0. end\n"

let test_r1_ambient_randomness () =
  let src = "let roll () = Random.int 6\nlet now () = Sys.time ()" in
  check_rules "flagged in lib" [ "R1"; "R1" ] (diags ~path:"lib/dsim/foo.ml" src);
  check_rules "gettimeofday flagged" [ "R1" ]
    (diags ~path:"lib/stats/foo.ml"
       (unix_prelude ^ "let t () = Unix.gettimeofday ()"));
  check_rules "bin may use ambient randomness" []
    (diags ~path:"bin/foo.ml" src);
  check_rules "examples may too" [] (diags ~path:"examples/foo.ml" src)

let test_r1_position () =
  let src = "let a = 1\nlet roll () = Random.bool ()" in
  match diags ~path:"lib/prng/foo.ml" src with
  | [ d ] ->
      Alcotest.(check int) "line" 2 d.Rules.line;
      Alcotest.(check string) "path echoed" "lib/prng/foo.ml" d.Rules.path
  | ds -> Alcotest.failf "expected 1 diagnostic, got %d" (List.length ds)

(* A renamed module is still the module: the typed walker expands
   module aliases before naming a path. *)
let test_r1_module_alias () =
  check_rules "module alias flagged" [ "R1" ]
    (diags ~path:"lib/dsim/foo.ml" "module R = Random\nlet f () = R.bool ()");
  check_rules "local module alias flagged" [ "R1" ]
    (diags ~path:"lib/dsim/foo.ml"
       "let f () = let module R = Random in R.bool ()")

let test_r2_hashtbl_hash () =
  let src = "let h name = Hashtbl.hash name" in
  check_rules "flagged in lib" [ "R2" ] (diags ~path:"lib/prng/stream.ml" src);
  check_rules "flagged in bin too (R2 is global)" [ "R2" ]
    (diags ~path:"bin/foo.ml" src);
  (* Resolved paths, not text: naming the function in a string (as the
     linter's own tables do) is not a use. *)
  check_rules "a string naming it is fine" []
    (diags ~path:"lib/lint/foo.ml" "let banned = \"Hashtbl.hash\"");
  check_rules "seeded variant flagged" [ "R2" ]
    (diags ~path:"lib/dsim/foo.ml" "let h x = Hashtbl.seeded_hash 7 x")

let test_r5_printing () =
  let src = "let shout () = print_endline \"hi\"" in
  check_rules "printing flagged in lib" [ "R5" ]
    (diags ~path:"lib/dsim/foo.ml" src);
  check_rules "Printf.printf flagged" [ "R5" ]
    (diags ~path:"lib/stats/foo.ml" "let f n = Printf.printf \"%d\" n");
  check_rules "examples may print" [] (diags ~path:"examples/foo.ml" src);
  check_rules "bin may print" [] (diags ~path:"bin/foo.ml" src);
  check_rules "formatter-directed output is fine" []
    (diags ~path:"lib/dsim/foo.ml"
       "let pp ppf n = Format.fprintf ppf \"%d\" n")

(* An opened module hides the qualifier from the text, not from the
   typed tree. *)
let test_r5_let_open () =
  check_rules "let open Printf flagged" [ "R5" ]
    (diags ~path:"lib/dsim/foo.ml" "let f () = let open Printf in printf \"x\"")

(* The std_formatter print helpers, and fprintf aimed at an ambient
   channel. *)
let test_r5_ambient_channels () =
  check_rules "Format.print_string flagged" [ "R5" ]
    (diags ~path:"lib/dsim/foo.ml"
       "let f s = Format.print_string s");
  check_rules "Format.print_newline flagged" [ "R5" ]
    (diags ~path:"lib/stats/foo.ml" "let f () = Format.print_newline ()");
  check_rules "Printf.fprintf stdout flagged" [ "R5" ]
    (diags ~path:"lib/dsim/foo.ml"
       "let f n = Printf.fprintf stdout \"%d\" n");
  check_rules "Printf.fprintf stderr flagged" [ "R5" ]
    (diags ~path:"lib/dsim/foo.ml"
       "let f n = Printf.fprintf stderr \"%d\" n");
  check_rules "Format.fprintf std_formatter flagged" [ "R5" ]
    (diags ~path:"lib/dsim/foo.ml"
       "let f n = Format.fprintf Format.std_formatter \"%d\" n");
  check_rules "Stdlib-qualified spelling flagged" [ "R5" ]
    (diags ~path:"lib/dsim/foo.ml"
       "let f n = Stdlib.Printf.fprintf Stdlib.stdout \"%d\" n");
  check_rules "fprintf to a parameter channel is fine" []
    (diags ~path:"lib/dsim/foo.ml"
       "let f oc n = Printf.fprintf oc \"%d\" n");
  check_rules "fprintf to a parameter formatter is fine" []
    (diags ~path:"lib/dsim/foo.ml"
       "let pp ppf n = Format.fprintf ppf \"%d\" n");
  check_rules "bin may aim at stdout" []
    (diags ~path:"bin/foo.ml" "let f n = Printf.fprintf stdout \"%d\" n")

let test_find_substring () =
  let find = Rules.find_substring in
  Alcotest.(check (option int)) "basic" (Some 2) (find "ababc" "abc" 0);
  Alcotest.(check (option int)) "at start" (Some 0) (find "abc" "abc" 0);
  Alcotest.(check (option int)) "from skips the first hit" (Some 1)
    (find "aaa" "aa" 1);
  Alcotest.(check (option int)) "overlapping" (Some 0) (find "aaa" "aa" 0);
  Alcotest.(check (option int)) "periodic needle" (Some 2)
    (find "abababc" "ababc" 0);
  Alcotest.(check (option int)) "missing" None (find "abcdef" "xyz" 0);
  Alcotest.(check (option int)) "needle longer than haystack" None
    (find "ab" "abc" 0);
  Alcotest.(check (option int)) "empty needle at from" (Some 3)
    (find "abc" "" 3);
  Alcotest.(check (option int)) "empty needle past end" None
    (find "abc" "" 4);
  Alcotest.(check (option int)) "negative from clamps" (Some 0)
    (find "abc" "a" (-2));
  Alcotest.(check (option int)) "at end" (Some 3) (find "xyzab" "ab" 0)

(* KMP against the obvious quadratic reference on random inputs. *)
let naive_find haystack needle from =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i =
    if i > hl - nl then None
    else if String.sub haystack i nl = needle then Some i
    else go (i + 1)
  in
  go (Int.max from 0)

let qcheck_find_substring =
  let ab_string n =
    QCheck.(string_gen_of_size (Gen.int_bound n) (Gen.oneofl [ 'a'; 'b' ]))
  in
  QCheck.Test.make ~count:500 ~name:"find_substring matches naive search"
    QCheck.(triple (ab_string 40) (ab_string 4) (int_bound 45))
    (fun (haystack, needle, from) ->
      Rules.find_substring haystack needle from
      = naive_find haystack needle from)

(* ------------------------------------------------------------------ *)
(* Suppression parser round-trip (qcheck).                             *)

let rule_subset_gen =
  QCheck.Gen.(
    let* n = int_range 1 (List.length Rules.all) in
    let* shuffled = shuffle_l Rules.all in
    return (List.filteri (fun i _ -> i < n) shuffled))

let sep_gen = QCheck.Gen.oneofl [ ", "; ","; " "; " , " ]

let suppression_line_gen =
  QCheck.Gen.(
    let* rules = rule_subset_gen in
    let* sep = sep_gen in
    let* trailer = oneofl [ ""; " let x = 1"; " R1 R2" ] in
    let spec = String.concat sep (List.map Rules.id rules) in
    return (rules, Printf.sprintf "(* lint: allow %s *)%s" spec trailer))

let qcheck_suppression_roundtrip =
  QCheck.Test.make ~count:300 ~name:"suppression spec round-trips"
    (QCheck.make suppression_line_gen
       ~print:(fun (_, line) -> line))
    (fun (rules, line) ->
      match Rules.parse_suppression_line line with
      | Some (Rules.Only parsed) -> parsed = rules
      | Some Rules.All | None -> false)

let test_suppression_parser_edges () =
  let parse = Rules.parse_suppression_line in
  (match parse "(* lint: allow all *)" with
  | Some Rules.All -> ()
  | _ -> Alcotest.fail "allow all");
  (match parse "(* lint: allow ALL, R7 *)" with
  | Some Rules.All -> ()
  | _ -> Alcotest.fail "all wins case-insensitively");
  (* Rule ids after the comment terminator must not count. *)
  (match parse "(* lint: allow R7 *) let x = R10" with
  | Some (Rules.Only [ Rules.R7 ]) -> ()
  | _ -> Alcotest.fail "ids after *) must be ignored");
  (match parse "let x = 1 (* no marker here *)" with
  | None -> ()
  | Some _ -> Alcotest.fail "unmarked line");
  (* Unknown ids alone do not create a suppression. *)
  (match parse "(* lint: allow R42 *)" with
  | None -> ()
  | Some _ -> Alcotest.fail "unknown ids rejected");
  (* Mixed known and unknown keeps the known ones. *)
  (match parse "(* lint: allow R42, R9 *)" with
  | Some (Rules.Only [ Rules.R9 ]) -> ()
  | _ -> Alcotest.fail "known ids survive unknown neighbours")

let test_r6_multicore_primitives () =
  let src = "let go f = Domain.join (Domain.spawn f)" in
  check_rules "Domain flagged in lib" [ "R6"; "R6" ]
    (diags ~path:"lib/dsim/foo.ml" src);
  check_rules "flagged in bin too (R6 is global)" [ "R6"; "R6" ]
    (diags ~path:"bin/foo.ml" src);
  check_rules "Atomic flagged" [ "R6" ]
    (diags ~path:"lib/core/foo.ml" "let c = Atomic.make 0");
  check_rules "Mutex flagged" [ "R6" ]
    (diags ~path:"lib/stats/foo.ml" "let m = Mutex.create ()");
  check_rules "the sweep engine is exempt" []
    (diags ~path:"lib/par_sweep/par_sweep.ml" src);
  check_rules "the exemption is path-specific" [ "R6"; "R6" ]
    (diags ~path:"lib/core/ensemble.ml" src);
  (* A module merely named like a primitive must not trip the prefix
     match. *)
  check_rules "Domainlike module is fine" []
    (diags ~path:"lib/dsim/foo.ml"
       "module Domains = struct let f x = x end\nlet x = Domains.f 1")

let test_suppression () =
  check_rules "same-line suppression" []
    (diags ~path:"lib/dsim/foo.ml"
       "let f (x : bool option) = x = Some true (* lint: allow R7 *)");
  check_rules "previous-line suppression" []
    (diags ~path:"lib/dsim/foo.ml"
       "(* lint: allow R7 *)\nlet f (x : bool option) = x = Some true");
  check_rules "allow all" []
    (diags ~path:"lib/dsim/foo.ml"
       "(* lint: allow all *)\nlet f () = Random.bool ()");
  check_rules "wrong rule does not suppress" [ "R7" ]
    (diags ~path:"lib/dsim/foo.ml"
       "let f (x : bool option) = x = Some true (* lint: allow R1 *)");
  check_rules "suppression does not leak two lines down" [ "R1" ]
    (diags ~path:"lib/dsim/foo.ml"
       "(* lint: allow R1 *)\nlet a = 1\nlet f () = Random.bool ()")

let test_parse_error () =
  match Typed_lint.check_source ~path:"lib/dsim/bad.ml" "let let let" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected a parse error"

let test_scopes () =
  let scope path = Rules.scope_of_path path in
  Alcotest.(check bool) "R1 applies under lib" true
    (Rules.applies Rules.R1 (scope "lib/dsim/engine.ml"));
  Alcotest.(check bool) "R1 not under examples" false
    (Rules.applies Rules.R1 (scope "examples/quickstart.ml"));
  Alcotest.(check bool) "absolute prefixes ignored" true
    (Rules.applies Rules.R7 (scope "/src/checkout/lib/adversary/crash.ml"));
  Alcotest.(check bool) "R7 covers the numeric trees" true
    (Rules.applies Rules.R7 (scope "lib/lowerbound/hamming.ml"));
  Alcotest.(check bool) "R7 not in lib/core" false
    (Rules.applies Rules.R7 (scope "lib/core/ensemble.ml"));
  Alcotest.(check bool) "R2 everywhere" true
    (Rules.applies Rules.R2 (scope "bench/foo.ml"))

let test_rule_ids () =
  List.iter
    (fun r ->
      match Rules.of_id (Rules.id r) with
      | Some r' -> Alcotest.(check string) "roundtrip" (Rules.id r) (Rules.id r')
      | None -> Alcotest.fail "of_id failed on own id")
    Rules.all;
  Alcotest.(check bool) "case-insensitive" true (Rules.of_id "r7" = Some Rules.R7);
  Alcotest.(check bool) "unknown rejected" true (Rules.of_id "R42" = None)

(* The repo itself must be clean: the same scan the @lint alias runs,
   over lib, bin, bench and examples.  dune runs tests from
   _build/default/test; walk upwards to the first directory that looks
   like the project root.  The executables' main modules only have a
   cmt after @check (test/dune depends on it); a tree that lost them
   would scan clean with less coverage, so their presence is pinned. *)
let test_repo_is_clean () =
  let looks_like_root dir =
    Sys.file_exists (Filename.concat dir "dune-project")
    && Sys.file_exists (Filename.concat dir "lib")
  in
  let rec find dir depth =
    if looks_like_root dir then Some dir
    else if depth = 0 then None
    else find (Filename.concat dir Filename.parent_dir_name) (depth - 1)
  in
  match find Filename.current_dir_name 5 with
  | None -> Alcotest.fail "could not locate the project root"
  | Some root ->
      let scanned = ref [] in
      let report =
        Driver.scan ~root (fun load ->
            scanned :=
              List.map (fun (u : Cmt_loader.unit_info) -> u.path) load.units;
            Typed_lint.analyze load)
      in
      Alcotest.(check int) "no violations" 0
        (List.length report.Driver.diagnostics);
      Alcotest.(check (list string)) "no errors" [] report.Driver.errors;
      Alcotest.(check bool) "scanned a plausible number of files" true
        (report.Driver.files_scanned > 40);
      List.iter
        (fun path ->
          Alcotest.(check bool) (path ^ " scanned") true
            (List.mem path !scanned))
        [ "lib/dsim/engine.ml"; "bin/lint.ml"; "bench/e2e/main.ml";
          "examples/quickstart.ml" ]

(* ------------------------------------------------------------------ *)
(* Trace linter.                                                      *)

let config ?(n = 2) ?(t = 1) ?(windowed = false) ?(fifo = true) ?quorum () =
  { Trace_lint.n; t; windowed; fifo; decision_quorum = quorum }

let invariants vs = List.map (fun v -> Trace_lint.invariant_id v.Trace_lint.invariant) vs

let sent ~src ~dst ~msg_id ~depth = Dsim.Trace.Sent { src; dst; msg_id; depth }

let delivered ~src ~dst ~msg_id ~depth =
  Dsim.Trace.Delivered { src; dst; msg_id; depth }

let test_trace_fifo_violation () =
  (* Two messages on the 0 -> 1 channel delivered out of id order. *)
  let events =
    [
      sent ~src:0 ~dst:1 ~msg_id:1 ~depth:1;
      sent ~src:0 ~dst:1 ~msg_id:2 ~depth:1;
      delivered ~src:0 ~dst:1 ~msg_id:2 ~depth:1;
      delivered ~src:0 ~dst:1 ~msg_id:1 ~depth:1;
    ]
  in
  Alcotest.(check (list string)) "fifo flagged" [ "fifo" ]
    (invariants (Trace_lint.check (config ()) events));
  Alcotest.(check (list string)) "waived when fifo is off" []
    (invariants (Trace_lint.check (config ~fifo:false ()) events));
  (* Distinct channels may interleave freely. *)
  let interleaved =
    [
      sent ~src:0 ~dst:1 ~msg_id:1 ~depth:1;
      sent ~src:1 ~dst:0 ~msg_id:2 ~depth:1;
      delivered ~src:1 ~dst:0 ~msg_id:2 ~depth:1;
      delivered ~src:0 ~dst:1 ~msg_id:1 ~depth:1;
    ]
  in
  Alcotest.(check (list string)) "cross-channel order is free" []
    (invariants (Trace_lint.check (config ()) interleaved))

let test_trace_depth_violation () =
  (* First send must have depth 1 (nothing delivered yet). *)
  Alcotest.(check (list string)) "inflated depth flagged" [ "depth" ]
    (invariants
       (Trace_lint.check (config ()) [ sent ~src:0 ~dst:1 ~msg_id:1 ~depth:3 ]));
  (* Depth grows by exactly one over the maximum delivered depth. *)
  let chained =
    [
      sent ~src:0 ~dst:1 ~msg_id:1 ~depth:1;
      delivered ~src:0 ~dst:1 ~msg_id:1 ~depth:1;
      sent ~src:1 ~dst:0 ~msg_id:2 ~depth:2;
    ]
  in
  Alcotest.(check (list string)) "exact chain accepted" []
    (invariants (Trace_lint.check (config ()) chained));
  let stale =
    [
      sent ~src:0 ~dst:1 ~msg_id:1 ~depth:1;
      delivered ~src:0 ~dst:1 ~msg_id:1 ~depth:1;
      sent ~src:1 ~dst:0 ~msg_id:2 ~depth:1;
    ]
  in
  Alcotest.(check (list string)) "stale depth flagged" [ "depth" ]
    (invariants (Trace_lint.check (config ()) stale))

let test_trace_provenance () =
  Alcotest.(check (list string)) "unsent delivery flagged" [ "provenance" ]
    (invariants
       (Trace_lint.check (config ())
          [ delivered ~src:0 ~dst:1 ~msg_id:9 ~depth:1 ]));
  let double =
    [
      sent ~src:0 ~dst:1 ~msg_id:1 ~depth:1;
      delivered ~src:0 ~dst:1 ~msg_id:1 ~depth:1;
      delivered ~src:0 ~dst:1 ~msg_id:1 ~depth:1;
    ]
  in
  (* The duplicate delivery is both a provenance and a FIFO violation. *)
  Alcotest.(check bool) "double delivery flagged" true
    (List.mem "provenance"
       (invariants (Trace_lint.check (config ()) double)));
  let mismatched =
    [
      sent ~src:0 ~dst:1 ~msg_id:1 ~depth:1;
      delivered ~src:1 ~dst:0 ~msg_id:1 ~depth:1;
    ]
  in
  Alcotest.(check (list string)) "endpoint rewrite flagged" [ "provenance" ]
    (invariants (Trace_lint.check (config ()) mismatched))

let test_trace_window_discipline () =
  let cfg = config ~n:3 ~t:1 ~windowed:true () in
  let resets_over_budget =
    [
      Dsim.Trace.Reset_done { pid = 0 };
      Dsim.Trace.Reset_done { pid = 1 };
      Dsim.Trace.Window_closed { index = 1 };
    ]
  in
  Alcotest.(check (list string)) "t+1 resets in one window flagged" [ "window" ]
    (invariants (Trace_lint.check cfg resets_over_budget));
  let across_windows =
    [
      sent ~src:0 ~dst:1 ~msg_id:1 ~depth:1;
      Dsim.Trace.Window_closed { index = 1 };
      delivered ~src:0 ~dst:1 ~msg_id:1 ~depth:1;
    ]
  in
  Alcotest.(check (list string)) "stale delivery flagged" [ "window" ]
    (invariants (Trace_lint.check cfg across_windows));
  let in_window =
    [
      sent ~src:0 ~dst:1 ~msg_id:1 ~depth:1;
      delivered ~src:0 ~dst:1 ~msg_id:1 ~depth:1;
      Dsim.Trace.Reset_done { pid = 0 };
      Dsim.Trace.Window_closed { index = 1 };
    ]
  in
  Alcotest.(check (list string)) "legal window accepted" []
    (invariants (Trace_lint.check cfg in_window))

(* Window_closed indices must arrive 1, 2, 3, ...: a skipped, repeated
   or out-of-order index means the engine's window counter and the
   trace disagree. *)
let test_trace_window_indices () =
  let cfg = config ~n:3 ~t:1 ~windowed:true () in
  Alcotest.(check (list string)) "skipped index flagged" [ "window" ]
    (invariants
       (Trace_lint.check cfg [ Dsim.Trace.Window_closed { index = 2 } ]));
  Alcotest.(check (list string)) "repeated index flagged" [ "window" ]
    (invariants
       (Trace_lint.check cfg
          [
            Dsim.Trace.Window_closed { index = 1 };
            Dsim.Trace.Window_closed { index = 1 };
          ]));
  Alcotest.(check (list string)) "sequential indices accepted" []
    (invariants
       (Trace_lint.check cfg
          [
            Dsim.Trace.Window_closed { index = 1 };
            Dsim.Trace.Window_closed { index = 2 };
            Dsim.Trace.Window_closed { index = 3 };
          ]));
  (* A message that skips a whole window is just as stale as one
     crossing a single boundary. *)
  Alcotest.(check (list string)) "delivery two windows late flagged"
    [ "window" ]
    (invariants
       (Trace_lint.check cfg
          [
            sent ~src:0 ~dst:1 ~msg_id:1 ~depth:1;
            Dsim.Trace.Window_closed { index = 1 };
            Dsim.Trace.Window_closed { index = 2 };
            delivered ~src:0 ~dst:1 ~msg_id:1 ~depth:1;
          ]))

(* Every message a window sends is delivered or dropped before the
   window closes: one left open is flagged at the close, whether or not
   it is consumed later, and only in windowed audits. *)
let test_trace_window_consumption () =
  let cfg = config ~n:3 ~t:1 ~windowed:true () in
  let left_open =
    [
      sent ~src:0 ~dst:1 ~msg_id:0 ~depth:1;
      sent ~src:0 ~dst:2 ~msg_id:1 ~depth:1;
      delivered ~src:0 ~dst:1 ~msg_id:0 ~depth:1;
      Dsim.Trace.Window_closed { index = 1 };
    ]
  in
  Alcotest.(check (list string)) "open message flagged at the close" [ "window" ]
    (invariants (Trace_lint.check cfg left_open));
  Alcotest.(check (list string)) "not flagged without windows" []
    (invariants (Trace_lint.check (config ~n:3 ~t:1 ()) left_open));
  let consumed =
    [
      sent ~src:0 ~dst:1 ~msg_id:0 ~depth:1;
      sent ~src:0 ~dst:2 ~msg_id:1 ~depth:1;
      delivered ~src:0 ~dst:1 ~msg_id:0 ~depth:1;
      Dsim.Trace.Dropped { msg_id = 1 };
      Dsim.Trace.Window_closed { index = 1 };
      sent ~src:1 ~dst:0 ~msg_id:2 ~depth:2;
      Dsim.Trace.Dropped { msg_id = 2 };
      Dsim.Trace.Window_closed { index = 2 };
    ]
  in
  Alcotest.(check (list string)) "consumed windows accepted" []
    (invariants (Trace_lint.check cfg consumed));
  (* Only the closing window's own messages count: the one left open in
     window 0 is not charged to window 1 again. *)
  let carried = left_open @ [ Dsim.Trace.Window_closed { index = 2 } ] in
  Alcotest.(check (list string)) "flagged once" [ "window" ]
    (invariants (Trace_lint.check cfg carried));
  Alcotest.(check bool) "same as the oracle" true
    (Trace_lint_oracle.check cfg carried = Trace_lint.check cfg carried)

let test_trace_quorum () =
  let cfg = config ~n:3 ~t:1 ~quorum:2 () in
  let premature =
    [ Dsim.Trace.Decided { pid = 0; value = true; step = 1; window = 0; chain_depth = 0 } ]
  in
  Alcotest.(check (list string)) "decision without a quorum flagged" [ "quorum" ]
    (invariants (Trace_lint.check cfg premature));
  let conflict =
    [
      sent ~src:1 ~dst:0 ~msg_id:1 ~depth:1;
      sent ~src:2 ~dst:0 ~msg_id:2 ~depth:1;
      sent ~src:1 ~dst:2 ~msg_id:3 ~depth:1;
      sent ~src:0 ~dst:2 ~msg_id:4 ~depth:1;
      delivered ~src:1 ~dst:0 ~msg_id:1 ~depth:1;
      delivered ~src:2 ~dst:0 ~msg_id:2 ~depth:1;
      delivered ~src:1 ~dst:2 ~msg_id:3 ~depth:1;
      delivered ~src:0 ~dst:2 ~msg_id:4 ~depth:1;
      Dsim.Trace.Decided { pid = 0; value = true; step = 5; window = 0; chain_depth = 1 };
      Dsim.Trace.Decided { pid = 2; value = false; step = 6; window = 0; chain_depth = 1 };
    ]
  in
  Alcotest.(check (list string)) "opposite decisions flagged" [ "quorum" ]
    (invariants (Trace_lint.check cfg conflict))

let test_audit_real_windowed_run () =
  let n = 13 and t = 2 in
  let inputs = Array.init n (fun i -> i mod 2 = 0) in
  let config =
    Dsim.Engine.init
      ~protocol:(Protocols.Lewko_variant.protocol ())
      ~n ~fault_bound:t ~inputs ~seed:11 ~record_events:true ()
  in
  ignore
    (Dsim.Runner.run_windows config
       ~strategy:(Adversary.Split_vote.windowed_with_resets ())
       ~max_windows:50_000 ~stop:`All_decided);
  Alcotest.(check (list string)) "real execution audits clean" []
    (invariants (Trace_lint.audit ~decision_quorum:(n - (2 * t)) config))

let test_audit_real_stepwise_run () =
  let n = 7 and t = 3 in
  let inputs = Array.init n (fun i -> i mod 2 = 0) in
  let config =
    Dsim.Engine.init
      ~protocol:(Protocols.Ben_or.protocol ())
      ~n ~fault_bound:t ~inputs ~seed:4 ~record_events:true ()
  in
  ignore
    (Dsim.Runner.run_steps config
       ~strategy:(Adversary.Crash.before_decision ())
       ~max_steps:200_000 ~stop:`First_decision);
  Alcotest.(check (list string)) "crash execution audits clean" []
    (invariants (Trace_lint.audit ~decision_quorum:(n - t) config))

let test_audit_without_events () =
  let n = 7 and t = 1 in
  let inputs = Array.init n (fun i -> i mod 2 = 0) in
  let config =
    Dsim.Engine.init
      ~protocol:(Protocols.Lewko_variant.protocol ())
      ~n ~fault_bound:t ~inputs ~seed:2 ()
  in
  ignore
    (Dsim.Runner.run_windows config
       ~strategy:(Adversary.Benign.windowed ())
       ~max_windows:10_000 ~stop:`All_decided);
  Alcotest.(check (list string)) "nothing to audit, no violations" []
    (invariants (Trace_lint.audit config))

let test_ensemble_lint_wiring () =
  let n = 13 and t = 2 in
  let spec =
    {
      Agreement.Ensemble.n;
      t;
      inputs = Agreement.Ensemble.split_inputs ~n;
      max_windows = 50_000;
      max_steps = 0;
      stop = `All_decided;
    }
  in
  let result =
    Agreement.Ensemble.run_windowed ~lint:true ~lint_quorum:(n - (2 * t))
      ~protocol:(Protocols.Lewko_variant.protocol ())
      ~strategy:(fun _ -> Adversary.Reset_storm.rotating ())
      ~spec ~seeds:[ 1; 2; 3 ] ()
  in
  Alcotest.(check int) "three audited runs" 3 result.Agreement.Ensemble.runs;
  Alcotest.(check int) "no violations" 0 result.Agreement.Ensemble.lint_violations

(* ------------------------------------------------------------------ *)
(* The dense-array checker against its hash-table predecessor
   ([Trace_lint_oracle]): whole violation lists, detail strings and
   order included, must agree.                                         *)

type recorded = { label : string; rn : int; rt : int; events : Dsim.Trace.event array }

(* The three executions test_trace.ml pins by the MD5 of their events
   ("recorded events pinned"): Lewko under a reset storm, Bracha under
   benign windows, Ben-Or under the stepwise split vote (with drops). *)
let recorded_runs =
  lazy
    (let record label engine n t =
       { label; rn = n; rt = t;
         events = Array.of_list (Dsim.Trace.events (Dsim.Engine.trace engine)) }
     in
     let windows label ~protocol ~n ~t ~strategy =
       let engine =
         Dsim.Engine.init ~protocol ~n ~fault_bound:t
           ~inputs:(Agreement.Ensemble.split_inputs ~n 1) ~seed:1 ~record_events:true ()
       in
       ignore (Dsim.Runner.run_windows engine ~strategy ~max_windows:20_000 ~stop:`All_decided);
       record label engine n t
     in
     let benor =
       Dsim.Engine.init ~protocol:(Protocols.Ben_or.protocol ()) ~n:9 ~fault_bound:4
         ~inputs:(Agreement.Ensemble.split_inputs ~n:9 1) ~seed:1 ~record_events:true ()
     in
     ignore
       (Dsim.Runner.run_steps benor ~strategy:(Adversary.Split_vote.stepwise ())
          ~max_steps:6_000_000 ~stop:`First_decision);
     [| windows "lewko reset storm n=12" ~protocol:(Protocols.Lewko_variant.protocol ())
          ~n:12 ~t:1 ~strategy:(Adversary.Reset_storm.with_silence ~seed:1 ());
        windows "bracha benign windows n=7" ~protocol:(Protocols.Bracha.protocol ()) ~n:7
          ~t:2 ~strategy:(Adversary.Benign.windowed ());
        record "ben-or stepwise n=9" benor 9 4 |])

let same_violations cfg events =
  Trace_lint_oracle.check cfg events = Trace_lint.check cfg events

let test_trace_differential_full_runs () =
  Array.iter
    (fun r ->
      let events = Array.to_list r.events in
      List.iter
        (fun (fifo, windowed, quorum) ->
          let cfg = config ~n:r.rn ~t:r.rt ~fifo ~windowed ?quorum () in
          Alcotest.(check bool)
            (Printf.sprintf "%s fifo=%b windowed=%b" r.label fifo windowed)
            true (same_violations cfg events))
        [ (true, true, Some (r.rn - (2 * r.rt))); (true, false, None);
          (false, true, Some (r.rn - r.rt)); (false, false, None) ])
    (Lazy.force recorded_runs)

(* Mutations of a recorded event list, each what no engine produces. *)
let with_id (e : Dsim.Trace.event) id : Dsim.Trace.event =
  match e with
  | Sent r -> Sent { r with msg_id = id }
  | Delivered r -> Delivered { r with msg_id = id }
  | Dropped _ -> Dropped { msg_id = id }
  | e -> e

let id_of : Dsim.Trace.event -> int option = function
  | Sent { msg_id; _ } | Delivered { msg_id; _ } | Dropped { msg_id } -> Some msg_id
  | _ -> None

let pick_index rs a keep =
  let hits = List.filter (fun i -> keep a.(i)) (List.init (Array.length a) Fun.id) in
  match hits with [] -> None | _ -> Some (QCheck.Gen.oneofl hits rs)

let insert_at a i e =
  Array.concat [ Array.sub a 0 i; [| e |]; Array.sub a i (Array.length a - i) ]

let is_message e = Option.is_some (id_of e)
let is_delivered = function Dsim.Trace.Delivered _ -> true | _ -> false
let is_sent = function Dsim.Trace.Sent _ -> true | _ -> false

(* An id no engine would issue for this trace. *)
let odd_id rs len =
  QCheck.Gen.oneofl
    [ max_int; min_int; -1; -1 - Random.State.int rs 1000; max_int - Random.State.int rs 1000;
      len + 64 + Random.State.int rs 100; (4 * len) + 1000 + Random.State.int rs 100_000 ]
    rs

let odd_pid rs n = QCheck.Gen.oneofl [ -1; n; n + 3; min_int; max_int ] rs

let mutate rs ~n a =
  let len = Array.length a in
  match Random.State.int rs 11 with
  | 0 -> (
      (* Repeat one event later on, its id first retagged everywhere
         to an odd one half the time. *)
      match pick_index rs a is_message with
      | Some i ->
          let a, name =
            if Random.State.bool rs then (a, "duplicate")
            else
              let old_id = Option.get (id_of a.(i)) and fresh = odd_id rs len in
              ( Array.map (fun e -> if id_of e = Some old_id then with_id e fresh else e) a,
                Printf.sprintf "duplicate id %d" fresh )
          in
          (name, insert_at a (i + Random.State.int rs (len - i + 1)) a.(i))
      | None -> ("duplicate (none)", a))
  | 1 -> (
      match pick_index rs a is_delivered with
      | Some i -> (
          let same_channel j =
            match (a.(i), a.(j)) with
            | Delivered x, Delivered y -> x.src = y.src && x.dst = y.dst
            | _ -> false
          in
          let later = List.filter same_channel (List.init (len - i - 1) (fun k -> i + 1 + k)) in
          match later with
          | [] -> ("swap (none)", a)
          | _ ->
              let j = QCheck.Gen.oneofl later rs in
              let b = Array.copy a in
              b.(i) <- a.(j);
              b.(j) <- a.(i);
              ("swap channel deliveries", b))
      | None -> ("swap (none)", a))
  | 2 ->
      let at = Random.State.int rs (len + 1) in
      let resets =
        Array.init (1 + Random.State.int rs 3) (fun _ ->
            Dsim.Trace.Reset_done { pid = Random.State.int rs (max n 1) })
      in
      ("extra resets", Array.concat [ Array.sub a 0 at; resets; Array.sub a at (len - at) ])
  | 3 -> (
      match pick_index rs a (fun e -> is_sent e || is_delivered e) with
      | Some i ->
          let d = if Random.State.bool rs then 1 else -1 in
          let b = Array.copy a in
          (b.(i) <-
             match a.(i) with
             | Sent r -> Sent { r with depth = r.depth + d }
             | Delivered r -> Delivered { r with depth = r.depth + d }
             | e -> e);
          ("wrong depth", b)
      | None -> ("wrong depth (none)", a))
  | 4 | 5 -> (
      (* Retag one id: everywhere it occurs, or in one event only. *)
      match pick_index rs a is_message with
      | Some i ->
          let old_id = Option.get (id_of a.(i)) and fresh = odd_id rs len in
          if Random.State.bool rs then begin
            let b = Array.copy a in
            b.(i) <- with_id a.(i) fresh;
            (Printf.sprintf "retag one event %d" fresh, b)
          end
          else
            ( Printf.sprintf "retag id %d -> %d" old_id fresh,
              Array.map (fun e -> if id_of e = Some old_id then with_id e fresh else e) a )
      | None -> ("retag (none)", a))
  | 6 -> (
      (* Move one message's endpoints outside 0..n-1, consistently or not. *)
      match pick_index rs a (fun e -> is_sent e || is_delivered e) with
      | Some i ->
          let id = Option.get (id_of a.(i)) and pid = odd_pid rs n in
          let on_src = Random.State.bool rs and everywhere = Random.State.bool rs in
          let move (e : Dsim.Trace.event) : Dsim.Trace.event =
            match e with
            | Sent r when on_src -> Sent { r with src = pid }
            | Sent r -> Sent { r with dst = pid }
            | Delivered r when on_src -> Delivered { r with src = pid }
            | Delivered r -> Delivered { r with dst = pid }
            | e -> e
          in
          let b =
            if everywhere then Array.map (fun e -> if id_of e = Some id then move e else e) a
            else Array.mapi (fun j e -> if j = i then move e else e) a
          in
          (Printf.sprintf "endpoint %d (src=%b everywhere=%b)" pid on_src everywhere, b)
      | None -> ("endpoint (none)", a))
  | 7 when len > 0 ->
      let i = Random.State.int rs len in
      ("remove event", Array.append (Array.sub a 0 i) (Array.sub a (i + 1) (len - i - 1)))
  | 8 ->
      let at = Random.State.int rs (len + 1) in
      let pid = if Random.State.int rs 4 = 0 then odd_pid rs n else Random.State.int rs (max n 1) in
      ( "insert decision",
        insert_at a at
          (Dsim.Trace.Decided
             { pid; value = Random.State.bool rs; step = 0; window = 0; chain_depth = 0 }) )
  | 9 ->
      let at = Random.State.int rs (len + 1) in
      ("insert window close", insert_at a at (Dsim.Trace.Window_closed { index = Random.State.int rs 5 }))
  | _ ->
      let at = Random.State.int rs (len + 1) in
      ( "deliver unsent",
        insert_at a at
          (if Random.State.bool rs then Dsim.Trace.Dropped { msg_id = odd_id rs len }
           else
             Dsim.Trace.Delivered
               { src = Random.State.int rs (max n 1); dst = Random.State.int rs (max n 1);
                 msg_id = odd_id rs len; depth = 1 }) )

type differential_case = {
  describe : string;
  cfg : Trace_lint.config;
  case_events : Dsim.Trace.event list;
}

(* A slice of a recorded run (a prefix, so ids start dense, or a window
   from the middle), zero to four mutations, and a random config: both
   fifo settings, windowed or not, n as recorded or one less (so
   recorded endpoints fall outside 0..n-1). *)
let differential_case_gen rs =
  let runs = Lazy.force recorded_runs in
  let r = runs.(Random.State.int rs (Array.length runs)) in
  let total = Array.length r.events in
  let len = min total (1 + Random.State.int rs 2_500) in
  let from = if Random.State.bool rs then 0 else Random.State.int rs (total - len + 1) in
  let slice = Array.sub r.events from len in
  let n = if Random.State.int rs 4 = 0 then r.rn - 1 else r.rn in
  let rec apply k (names, a) =
    if k = 0 then (List.rev names, a)
    else
      let name, a = mutate rs ~n a in
      apply (k - 1) (name :: names, a)
  in
  let names, events = apply (Random.State.int rs 5) ([], slice) in
  let quorum = if Random.State.bool rs then Some (Random.State.int rs (n + 1)) else None in
  let cfg =
    config ~n ~t:(Random.State.int rs 4) ~fifo:(Random.State.bool rs)
      ~windowed:(Random.State.bool rs) ?quorum ()
  in
  {
    describe =
      Printf.sprintf "%s [%d, %d) n=%d t=%d fifo=%b windowed=%b quorum=%s mutations=[%s]"
        r.label from (from + len) cfg.n cfg.t cfg.fifo cfg.windowed
        (match quorum with Some q -> string_of_int q | None -> "none")
        (String.concat "; " names);
    cfg;
    case_events = Array.to_list events;
  }

let qcheck_trace_differential =
  QCheck.Test.make ~count:400 ~name:"dense-array check agrees with the hash-table oracle"
    (QCheck.make ~print:(fun c -> c.describe) differential_case_gen)
    (fun c -> same_violations c.cfg c.case_events)

(* Ids and endpoints no engine issues go to the overflow table: nothing
   is sized by the largest id. *)
let test_trace_huge_ids () =
  let events =
    [
      sent ~src:(-1) ~dst:0 ~msg_id:max_int ~depth:1;
      sent ~src:(-1) ~dst:0 ~msg_id:max_int ~depth:1;
      delivered ~src:(-1) ~dst:0 ~msg_id:max_int ~depth:1;
      Dsim.Trace.Dropped { msg_id = max_int };
    ]
  in
  let cfg = config () in
  let before = Gc.allocated_bytes () in
  let found = Trace_lint.check cfg events in
  let allocated = Gc.allocated_bytes () -. before in
  Alcotest.(check (list string)) "provenance violations"
    [ "provenance"; "provenance"; "provenance"; "provenance" ]
    (invariants found);
  Alcotest.(check bool) "same as the oracle" true (found = Trace_lint_oracle.check cfg events);
  Alcotest.(check bool)
    (Printf.sprintf "allocates under 1 MB (%.0f bytes)" allocated)
    true (allocated < 1e6)

let suite =
  [
    Alcotest.test_case "R1 ambient randomness" `Quick test_r1_ambient_randomness;
    Alcotest.test_case "R1 position" `Quick test_r1_position;
    Alcotest.test_case "R1 module alias" `Quick test_r1_module_alias;
    Alcotest.test_case "R2 Hashtbl.hash" `Quick test_r2_hashtbl_hash;
    Alcotest.test_case "R5 printing" `Quick test_r5_printing;
    Alcotest.test_case "R5 let-open printf" `Quick test_r5_let_open;
    Alcotest.test_case "R5 ambient channels" `Quick test_r5_ambient_channels;
    Alcotest.test_case "find_substring" `Quick test_find_substring;
    Test_seed.to_alcotest qcheck_find_substring;
    Test_seed.to_alcotest qcheck_suppression_roundtrip;
    Alcotest.test_case "suppression parser edges" `Quick
      test_suppression_parser_edges;
    Alcotest.test_case "R6 multicore primitives" `Quick test_r6_multicore_primitives;
    Alcotest.test_case "suppression comments" `Quick test_suppression;
    Alcotest.test_case "parse errors reported" `Quick test_parse_error;
    Alcotest.test_case "rule scoping" `Quick test_scopes;
    Alcotest.test_case "rule ids" `Quick test_rule_ids;
    Alcotest.test_case "repo is lint-clean" `Quick test_repo_is_clean;
    Alcotest.test_case "trace: fifo" `Quick test_trace_fifo_violation;
    Alcotest.test_case "trace: causal depth" `Quick test_trace_depth_violation;
    Alcotest.test_case "trace: provenance" `Quick test_trace_provenance;
    Alcotest.test_case "trace: window discipline" `Quick test_trace_window_discipline;
    Alcotest.test_case "trace: window indices" `Quick test_trace_window_indices;
    Alcotest.test_case "trace: window consumption" `Quick test_trace_window_consumption;
    Alcotest.test_case "trace: quorum" `Quick test_trace_quorum;
    Alcotest.test_case "audit: windowed run" `Quick test_audit_real_windowed_run;
    Alcotest.test_case "audit: stepwise run" `Quick test_audit_real_stepwise_run;
    Alcotest.test_case "audit: no events" `Quick test_audit_without_events;
    Alcotest.test_case "ensemble wiring" `Quick test_ensemble_lint_wiring;
    Alcotest.test_case "trace: differential on recorded runs" `Quick
      test_trace_differential_full_runs;
    Test_seed.to_alcotest qcheck_trace_differential;
    Alcotest.test_case "trace: huge and negative ids" `Quick test_trace_huge_ids;
  ]
