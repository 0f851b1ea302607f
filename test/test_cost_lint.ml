(* The determinism lint's cmt-based cost & allocation analyzer
   (R11-R15).  Fixtures are self-contained sources typechecked
   in memory, each rule pinned by a flagged/clean twin; qcheck laws
   over the {!Costs} lattice; per-function summaries; the baseline
   renderer's sort/dedup contract; and a run over the real tree that
   must come back clean modulo the checked-in baseline. *)

open Lintkit

let to_alcotest = QCheck_alcotest.to_alcotest

let cfg ?(roots = [ "Fx.hot" ]) ?(overrides = []) () =
  { Cost_lint.default_config with hot_roots = roots; overrides }

let cost_diags ?config ~path source =
  let config =
    match config with Some c -> c | None -> cfg ()
  in
  match Cost_lint.check_source ~config ~path source with
  | Ok ds -> ds
  | Error e -> Alcotest.failf "fixture failed to typecheck: %s" e

let rules_of ds = List.map (fun d -> Rules.id d.Rules.rule) ds

let check_rules what expected ds =
  Alcotest.(check (list string)) what expected (rules_of ds)

let contains haystack needle =
  Option.is_some (Rules.find_substring haystack needle 0)

let messages ds = String.concat "\n" (List.map (fun d -> d.Rules.message) ds)

(* ------------------------------------------------------------------ *)
(* R11: super-constant per-call cost in the hot set.                   *)

let test_r11_linear_prim () =
  let ds = cost_diags ~path:"lib/protocols/fx.ml" "let hot xs = List.length xs" in
  check_rules "List.length in a hot root flagged" [ "R11" ] ds;
  Alcotest.(check bool)
    "message names the hot path" true
    (contains (messages ds) "hot path Fx.hot")

let test_r11_clean_twins () =
  check_rules "pattern matching costs nothing" []
    (cost_diags ~path:"lib/protocols/fx.ml"
       "let hot = function [] -> 0 | _ :: _ -> 1");
  (* O(log n) persistent-map access is the tolerated threshold. *)
  check_rules "map lookup tolerated at O(log n)" []
    (cost_diags ~path:"lib/protocols/fx.ml"
       "module Int_map = Map.Make (Int)\n\
        let hot m = Int_map.find_opt 3 m");
  check_rules "cold functions are not reported" []
    (cost_diags ~path:"lib/protocols/fx.ml" "let cold xs = List.length xs")

let test_r11_data_dependent_loop () =
  check_rules "data-dependent for loop flagged" [ "R11" ]
    (cost_diags ~path:"lib/protocols/fx.ml"
       "let hot n = let s = ref 0 in for i = 1 to n do s := !s + i done; !s");
  check_rules "constant-bound loop is fine" []
    (cost_diags ~path:"lib/protocols/fx.ml"
       "let hot () = let s = ref 0 in for i = 1 to 8 do s := !s + i done; !s")

(* Findings land at the introducing site, with the discovery chain from
   the hot root in the message — that is what makes inline suppression
   local and baseline entries position-free. *)
let test_r11_via_chain () =
  let ds =
    cost_diags ~path:"lib/protocols/fx.ml"
      "let helper xs = List.length xs\nlet hot xs = helper xs"
  in
  check_rules "cost inside a callee still flagged" [ "R11" ] ds;
  Alcotest.(check bool)
    "chain walks root -> callee" true
    (contains (messages ds) "Fx.hot -> Fx.helper")

(* ------------------------------------------------------------------ *)
(* R12: allocation that scales with the event.                         *)

let test_r12_materializer () =
  let ds =
    cost_diags ~path:"lib/protocols/fx.ml"
      "let hot xs = List.map (fun x -> x + 1) xs"
  in
  check_rules "List.map materializes" [ "R12" ] ds;
  Alcotest.(check bool)
    "message says allocation scales with the event" true
    (contains (messages ds) "allocation scales with the event")

let test_r12_alloc_under_iteration () =
  (* A tuple built once per element is per-element garbage; the iterator
     itself additionally costs O(n) (R11). *)
  check_rules "tuple inside a data-dependent iteration" [ "R11"; "R12" ]
    (cost_diags ~path:"lib/protocols/fx.ml"
       "let hot xs = List.iter (fun x -> ignore (x, x)) xs")

let test_r12_clean_twins () =
  check_rules "per-event constant allocation is fine" []
    (cost_diags ~path:"lib/protocols/fx.ml" "let hot x = (x, x)");
  check_rules "amortized growth (Hashtbl.replace) exempt" []
    (cost_diags ~path:"lib/protocols/fx.ml"
       "let hot tbl x = Hashtbl.replace tbl x x");
  check_rules "map add's O(log n) path copy exempt" []
    (cost_diags ~path:"lib/protocols/fx.ml"
       "module Int_map = Map.Make (Int)\n\
        let hot m x = Int_map.add x x m")

(* ------------------------------------------------------------------ *)
(* R13: quorum/receive-set re-scans in Protocol.t transition code.     *)

let protocol_prelude =
  "module Int_map = Map.Make (Int)\n\
   module Protocol = struct\n\
  \  type t = { on_deliver : bool Int_map.t -> int }\n\
   end\n"

let test_r13_rescan () =
  let ds =
    cost_diags
      ~config:(cfg ~roots:[] ())
      ~path:"lib/protocols/fx.ml"
      (protocol_prelude
      ^ "let handle tallies = Int_map.fold (fun _ v acc -> if v then acc + 1 else acc) tallies 0\n\
         let _p = { Protocol.on_deliver = handle }")
  in
  check_rules "fold over a delivered map flagged" [ "R13" ] ds;
  Alcotest.(check bool)
    "seeded from the Protocol.t field" true
    (contains (messages ds) "Fx.Protocol.on_deliver -> Fx.handle");
  Alcotest.(check bool)
    "message prescribes the incremental-counter fix" true
    (contains (messages ds) "incremental")

let test_r13_clean_twin () =
  check_rules "incremental lookup in a transition is fine" []
    (cost_diags
       ~config:(cfg ~roots:[] ())
       ~path:"lib/protocols/fx.ml"
       (protocol_prelude
       ^ "let handle tallies = match Int_map.find_opt 0 tallies with Some true -> 1 | _ -> 0\n\
          let _p = { Protocol.on_deliver = handle }"))

(* The same scan outside transition code is an R11/R12 matter, not a
   quorum re-scan: R13 is about Protocol.t reachability. *)
let test_r13_needs_transition_seed () =
  let ds =
    cost_diags ~path:"lib/protocols/fx.ml"
      "module Int_map = Map.Make (Int)\n\
       let hot tallies = Int_map.fold (fun _ v acc -> if v then acc + 1 else acc) tallies 0"
  in
  Alcotest.(check bool) "no R13 outside transitions" true
    (not (List.mem "R13" (rules_of ds)))

(* ------------------------------------------------------------------ *)
(* R14: eager uniform fan-out.                                         *)

let test_r14_fanout () =
  let ds =
    cost_diags ~path:"lib/protocols/fx.ml"
      "let hot n msg = List.init n (fun dst -> (dst, msg))"
  in
  Alcotest.(check bool) "envelope fan-out flagged R14" true
    (List.mem "R14" (rules_of ds))

let test_r14_clean_twins () =
  check_rules "constant-width fan-out is fine" []
    (cost_diags ~path:"lib/protocols/fx.ml"
       "let hot msg = List.init 4 (fun dst -> (dst, msg))");
  (* Non-envelope List.init is a plain materializer (R12), not fan-out. *)
  let ds =
    cost_diags ~path:"lib/protocols/fx.ml"
      "let hot n = List.init n (fun dst -> dst)"
  in
  Alcotest.(check bool) "no tuple body, no R14" true
    (not (List.mem "R14" (rules_of ds)));
  Alcotest.(check bool) "still a size-dependent allocation" true
    (List.mem "R12" (rules_of ds))

(* ------------------------------------------------------------------ *)
(* R15: hot recursion under R11's per-site radar.                      *)

let r15_fixture ~suppressed =
  Printf.sprintf
    {|module Protocol = struct
  type t = { on_deliver : int list -> int }
end

%slet rec drain = function [] -> 0 | _ :: rest -> 1 + drain rest
let _p = { Protocol.on_deliver = drain }
|}
    (if suppressed then "(* lint: allow R15 *)\n" else "")

let test_r15_hot_recursion () =
  let ds =
    cost_diags ~path:"lib/protocols/fx.ml" (r15_fixture ~suppressed:false)
  in
  check_rules "hot recursion with O(1) sites flagged" [ "R15" ] ds;
  Alcotest.(check bool)
    "message explains the R11 blind spot" true
    (contains (messages ds) "R11 stays silent")

let test_r15_clean_twins () =
  check_rules "inline suppression honoured" []
    (cost_diags ~path:"lib/protocols/fx.ml" (r15_fixture ~suppressed:true));
  (* The same recursion off the hot path is not a finding. *)
  check_rules "cold recursion is fine" []
    (cost_diags ~path:"lib/protocols/fx.ml"
       "let rec drain = function [] -> 0 | _ :: rest -> 1 + drain rest\n\
        let _use = drain");
  (* A hot recursive function whose body already exceeds the threshold
     is R11's finding, not R15's. *)
  let ds =
    cost_diags ~path:"lib/protocols/fx.ml"
      "module Protocol = struct\n\
      \  type t = { on_deliver : int list -> int }\n\
       end\n\n\
       let rec drain xs =\n\
      \  match xs with [] -> 0 | _ :: rest -> List.length xs + drain rest\n\
       let _p = { Protocol.on_deliver = drain }"
  in
  Alcotest.(check bool)
    "no R15 when a site already exceeds the threshold" true
    (not (List.mem "R15" (rules_of ds)))

(* ------------------------------------------------------------------ *)
(* Suppressions and overrides.                                         *)

let test_suppression () =
  check_rules "allow comment on the preceding line" []
    (cost_diags ~path:"lib/protocols/fx.ml"
       "let hot xs =\n  (* lint: allow R11 *)\n  List.length xs");
  check_rules "allow for a different rule does not apply" [ "R11" ]
    (cost_diags ~path:"lib/protocols/fx.ml"
       "let hot xs =\n  (* lint: allow R12 *)\n  List.length xs")

let test_overrides () =
  let src = "let helper xs = List.length xs\nlet hot xs = helper xs" in
  (* Declared O(1): the body is centrally justified, callers pay Const. *)
  check_rules "Const override exempts body and call" []
    (cost_diags
       ~config:(cfg ~overrides:[ ("Fx.helper", Costs.Const) ] ())
       ~path:"lib/protocols/fx.ml" src);
  (* Declared O(n): the body stays exempt but every hot call site pays. *)
  let ds =
    cost_diags
      ~config:(cfg ~overrides:[ ("Fx.helper", Costs.Linear) ] ())
      ~path:"lib/protocols/fx.ml" src
  in
  check_rules "Linear override flags the call site" [ "R11" ] ds;
  Alcotest.(check bool) "message cites the declaration" true
    (contains (messages ds) "declared O(n)")

(* ------------------------------------------------------------------ *)
(* Per-function summaries: the fixpoint the rules are judged against.  *)

let summary_of source id =
  let path = "lib/protocols/fx.ml" in
  match Typed_lint.typecheck_source ~path source with
  | Error e -> Alcotest.failf "fixture failed to typecheck: %s" e
  | Ok structure -> (
      let unit_info =
        { Cmt_loader.modname = "Fx"; path; structure; source = Some source }
      in
      match List.assoc_opt id (Cost_lint.summarize [ unit_info ]) with
      | Some c -> c
      | None -> Alcotest.failf "no summary for %s" id)

let cost = Alcotest.testable Costs.pp Costs.equal

let test_summaries () =
  Alcotest.check cost "constant body" Costs.Const
    (summary_of "let c () = 42" "Fx.c");
  Alcotest.check cost "linear primitive" Costs.Linear
    (summary_of "let lin xs = List.length xs" "Fx.lin");
  Alcotest.check cost "map access is logarithmic" Costs.Log
    (summary_of
       "module Int_map = Map.Make (Int)\nlet get m = Int_map.find_opt 3 m"
       "Fx.get");
  Alcotest.check cost "recursion counts as one data-dependent loop"
    Costs.Linear
    (summary_of "let rec len = function [] -> 0 | _ :: t -> 1 + len t" "Fx.len");
  Alcotest.check cost "nested iteration multiplies" Costs.Quadratic
    (summary_of
       "let quad xss = List.iter (fun xs -> List.iter (fun x -> ignore x) xs) xss"
       "Fx.quad")

(* ------------------------------------------------------------------ *)
(* Costs lattice laws (qcheck).                                        *)

let arb_cost =
  QCheck.make ~print:Costs.to_string (QCheck.Gen.oneofl Costs.all)

let law name count law =
  QCheck.Test.make ~count ~name law

let qcheck_laws =
  [
    law "join commutative" 200
      QCheck.(pair arb_cost arb_cost)
      (fun (a, b) -> Costs.equal (Costs.join a b) (Costs.join b a));
    law "join associative" 200
      QCheck.(triple arb_cost arb_cost arb_cost)
      (fun (a, b, c) ->
        Costs.equal
          (Costs.join (Costs.join a b) c)
          (Costs.join a (Costs.join b c)));
    law "join idempotent" 100 arb_cost (fun a ->
        Costs.equal (Costs.join a a) a);
    law "Const is join identity" 100 arb_cost (fun a ->
        Costs.equal (Costs.join Costs.bottom a) a);
    law "Unknown absorbs join" 100 arb_cost (fun a ->
        Costs.equal (Costs.join Costs.top a) Costs.top);
    law "leq agrees with join" 200
      QCheck.(pair arb_cost arb_cost)
      (fun (a, b) -> Costs.leq a b = Costs.equal (Costs.join a b) b);
    law "nest commutative" 200
      QCheck.(pair arb_cost arb_cost)
      (fun (a, b) -> Costs.equal (Costs.nest a b) (Costs.nest b a));
    law "Const is nest identity" 100 arb_cost (fun a ->
        Costs.equal (Costs.nest Costs.Const a) a);
    law "nest dominates join" 200
      QCheck.(pair arb_cost arb_cost)
      (fun (a, b) -> Costs.leq (Costs.join a b) (Costs.nest a b));
    (* Monotonicity in each argument is what makes the summary fixpoint
       converge: widening an input can only widen the product. *)
    law "nest monotone" 200
      QCheck.(triple arb_cost arb_cost arb_cost)
      (fun (a, b, c) ->
        (not (Costs.leq a b))
        || Costs.leq (Costs.nest a c) (Costs.nest b c));
  ]

(* [nest] is deliberately NOT associative: it rounds products that
   leave the five-point lattice up to Unknown, and where the rounding
   happens depends on grouping.  Pin the counterexample so nobody
   "fixes" it into a law. *)
let test_nest_not_associative () =
  Alcotest.check cost "(Log*Log)*Linear rounds late" Costs.Quadratic
    (Costs.nest (Costs.nest Costs.Log Costs.Log) Costs.Linear);
  Alcotest.check cost "Log*(Log*Linear) rounds early" Costs.Unknown
    (Costs.nest Costs.Log (Costs.nest Costs.Log Costs.Linear))

let test_nest_depth () =
  Alcotest.check cost "depth 0 is identity" Costs.Log
    (Costs.nest_depth 0 Costs.Log);
  Alcotest.check cost "one loop over a constant body" Costs.Linear
    (Costs.nest_depth 1 Costs.Const);
  Alcotest.check cost "two loops over a constant body" Costs.Quadratic
    (Costs.nest_depth 2 Costs.Const);
  Alcotest.check cost "one loop over a linear body" Costs.Quadratic
    (Costs.nest_depth 1 Costs.Linear)

(* ------------------------------------------------------------------ *)
(* Baseline rendering: sorted and deduplicated.                        *)

let rule_exn id =
  match Rules.of_id id with
  | Some r -> r
  | None -> Alcotest.failf "unknown rule %s" id

let diag ~rule ~path ~line ~message =
  { Rules.rule; path; line; col = 0; message }

let test_baseline_render_stable () =
  let r11 = rule_exn "R11" and r12 = rule_exn "R12" in
  let report =
    {
      Driver.diagnostics =
        [
          diag ~rule:r12 ~path:"lib/b.ml" ~line:9 ~message:"beta";
          diag ~rule:r11 ~path:"lib/b.ml" ~line:3 ~message:"alpha";
          (* Same finding at two positions: one baseline entry. *)
          diag ~rule:r11 ~path:"lib/a.ml" ~line:40 ~message:"alpha";
          diag ~rule:r11 ~path:"lib/a.ml" ~line:7 ~message:"alpha";
        ];
      errors = [];
      files_scanned = 2;
    }
  in
  let rendered = Format.asprintf "%a" Driver.render_baseline report in
  Alcotest.(check string)
    "sorted by (rule, path, message), duplicates collapsed"
    ("# lint baseline: RULE<TAB>PATH<TAB>MESSAGE, one accepted finding per line.\n\
      # Keep a justification comment above every entry.\n\
      R11\tlib/a.ml\talpha\nR11\tlib/b.ml\talpha\nR12\tlib/b.ml\tbeta\n")
    rendered

(* ------------------------------------------------------------------ *)
(* The real tree: clean modulo the checked-in baseline.                *)

let find_root () =
  let rec up dir n =
    if n = 0 then None
    else if
      Sys.file_exists (Filename.concat dir "dune-project")
      && Sys.file_exists (Filename.concat dir "lib")
    then Some dir
    else up (Filename.dirname dir) (n - 1)
  in
  up (Sys.getcwd ()) 5

let test_repo_is_cost_clean () =
  match find_root () with
  | None -> ()
  | Some root ->
      let report = Driver.scan ~dirs:[ "lib" ] ~root Cost_lint.analyze in
      Alcotest.(check (list string)) "cmt load errors" [] report.errors;
      let baseline =
        match
          Driver.read_baseline
            (Filename.concat root (Filename.concat "lint" "cost-baseline.tsv"))
        with
        | Ok b -> b
        | Error e -> Alcotest.failf "baseline unreadable: %s" e
      in
      let report, _waived = Driver.apply_baseline baseline report in
      Alcotest.(check int)
        "hot-path findings beyond the baseline" 0
        (List.length report.diagnostics)

let suite =
  [
    Alcotest.test_case "r11 linear prim" `Quick test_r11_linear_prim;
    Alcotest.test_case "r11 clean twins" `Quick test_r11_clean_twins;
    Alcotest.test_case "r11 data-dependent loop" `Quick
      test_r11_data_dependent_loop;
    Alcotest.test_case "r11 via chain" `Quick test_r11_via_chain;
    Alcotest.test_case "r12 materializer" `Quick test_r12_materializer;
    Alcotest.test_case "r12 alloc under iteration" `Quick
      test_r12_alloc_under_iteration;
    Alcotest.test_case "r12 clean twins" `Quick test_r12_clean_twins;
    Alcotest.test_case "r13 rescan" `Quick test_r13_rescan;
    Alcotest.test_case "r13 clean twin" `Quick test_r13_clean_twin;
    Alcotest.test_case "r13 needs transition seed" `Quick
      test_r13_needs_transition_seed;
    Alcotest.test_case "r14 fanout" `Quick test_r14_fanout;
    Alcotest.test_case "r14 clean twins" `Quick test_r14_clean_twins;
    Alcotest.test_case "r15 hot recursion flagged" `Quick test_r15_hot_recursion;
    Alcotest.test_case "r15 clean twins" `Quick test_r15_clean_twins;
    Alcotest.test_case "suppression" `Quick test_suppression;
    Alcotest.test_case "overrides" `Quick test_overrides;
    Alcotest.test_case "summaries" `Quick test_summaries;
    Alcotest.test_case "nest not associative" `Quick
      test_nest_not_associative;
    Alcotest.test_case "nest_depth" `Quick test_nest_depth;
    Alcotest.test_case "baseline render stable" `Quick
      test_baseline_render_stable;
    Alcotest.test_case "repo cost-clean mod baseline" `Quick
      test_repo_is_cost_clean;
  ]
  @ List.map to_alcotest qcheck_laws
