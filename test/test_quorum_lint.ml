(* The symbolic quorum-safety analyzer (R16-R18) over threshold
   declarations.  Declaration twins per rule (flagged / clean) built
   with [Quorums.override]; structural R17 fixture twins typechecked in
   memory; every default declaration pinned to its closed-form
   arithmetic (qcheck over n <= 200); agreement of the declared region
   with [Thresholds.feasible] at the t = n/6 boundary; a run over the
   real tree and the mcheck registry that must flag exactly the three
   !quorum mutants (each by R16, R17 and R18) and nothing else; the
   declared thresholds of every family in affine form; and the
   static/dynamic cross-check — each statically flagged mutant replays
   its pinned mcheck counterexample to a real agreement violation, and
   the sound protocol survives the identical schedule. *)

open Lintkit
module Quorums = Protocols.Quorums
module Symexpr = Protocols.Symexpr

let rules_of ds = List.map (fun d -> Rules.id d.Rules.rule) ds

let check_rules what expected ds =
  Alcotest.(check (list string)) what expected (rules_of ds)

let lint decls =
  Quorum_lint.check_declarations
    (List.map (fun decl -> { Quorum_lint.decl; claim = None }) decls)

let quorum_diags ~path source =
  match Quorum_lint.check_source ~path source with
  | Ok ds -> ds
  | Error e -> Alcotest.failf "fixture failed to typecheck: %s" e

let messages ds = String.concat "\n" (List.map (fun d -> d.Rules.message) ds)

let contains haystack needle =
  Option.is_some (Rules.find_substring haystack needle 0)

(* ------------------------------------------------------------------ *)
(* R16/R17 declaration twins: Ben-Or's declaration, sound and with the
   decide quorum lowered.                                              *)

let ben_or_with changes =
  Quorums.override Protocols.Ben_or.quorums ~name:"ben-or!fixture"
    ~pos:__POS__ changes

let test_r16_r17_mutant_site () =
  let ds = lint [ ben_or_with [ ("decide_at", Symexpr.int_ 1) ] ] in
  check_rules "decide quorum of 1 breaks intersection and the decide gate"
    [ "R16"; "R17" ] ds;
  Alcotest.(check bool)
    "R16 names the failed obligation" true
    (contains (messages ds) "decide quorum above the fault bound");
  Alcotest.(check bool)
    "R17 exhibits a fault-set witness" true
    (contains (messages ds) "met by the fault set alone")

let test_r16_r17_sound_twins () =
  check_rules "sound site is clean" [] (lint [ Protocols.Ben_or.quorums ]);
  check_rules "strengthened hook is clean" []
    (lint
       [
         ben_or_with
           [ ("decide_at", Symexpr.(add (scale 2 t_) (int_ 1))) ];
       ])

let test_r16_bad_default () =
  (* Lowering the declared default itself is also a finding. *)
  let ds = lint [ ben_or_with [ ("decide_at", Symexpr.t_) ] ] in
  Alcotest.(check bool) "default of t fails decide >= t+1" true
    (List.mem "R16" (rules_of ds))

(* ------------------------------------------------------------------ *)
(* R17 structural twins: a gate comparing against inline arithmetic on
   the instance parameters is flagged; reading the declared value is
   clean.                                                              *)

let gate_fixture bound =
  Printf.sprintf
    {|type thresholds = { decide_at : int }
type state = { n : int; fault_bound : int; thresholds : thresholds }

let finish_propose_phase state tally =
  if tally >= %s then Some true else None
|}
    bound

let test_r17_inline_gate_twins () =
  let ds =
    quorum_diags ~path:"lib/protocols/ben_or.ml"
      (gate_fixture "state.n - state.fault_bound")
  in
  check_rules "inline bound: ungated decide and inline arithmetic"
    [ "R17"; "R17" ] ds;
  Alcotest.(check bool)
    "R17 names the inline bound" true
    (contains (messages ds) "computed inline from n, t or fault_bound");
  check_rules "declared bound is clean" []
    (quorum_diags ~path:"lib/protocols/ben_or.ml"
       (gate_fixture "state.thresholds.decide_at"))

(* ------------------------------------------------------------------ *)
(* Every default declaration evaluates to today's closed forms, and the
   values read from it agree.                                          *)

let closed_forms =
  let rbc =
    [
      ("rbc_echo_quorum", fun ~n ~t -> ((n + t) / 2) + 1);
      ("rbc_ready_resend", fun ~n:_ ~t -> t + 1);
      ("rbc_accept_quorum", fun ~n:_ ~t -> (2 * t) + 1);
    ]
  in
  [
    ( Protocols.Ben_or.quorums,
      (fun n -> (n - 1) / 5),
      [
        ("decide_at", fun ~n:_ ~t -> t + 1); ("wait_quorum", fun ~n ~t -> n - t);
      ] );
    ( Protocols.Bracha.quorums,
      (fun n -> (n - 1) / 3),
      [
        ("decide_at", fun ~n:_ ~t -> (2 * t) + 1);
        ("adopt_at", fun ~n:_ ~t -> t + 1);
        ("quorum", fun ~n ~t -> n - t);
      ]
      @ rbc );
    (Protocols.Reliable_broadcast.quorums, (fun n -> (n - 1) / 3), rbc);
    ( Protocols.Thresholds.quorums,
      (fun n -> (n - 1) / 6),
      [
        ("t1", fun ~n ~t -> n - (2 * t));
        ("t2", fun ~n ~t -> n - (2 * t));
        ("t3", fun ~n ~t -> n - (3 * t));
      ] );
  ]

let byzantine_resilience protocol n =
  protocol.Dsim.Protocol.props.Dsim.Protocol.byzantine_resilience n

let prop_closed_forms =
  QCheck.Test.make ~count:200 ~name:"declarations evaluate to their closed forms"
    QCheck.(int_range 1 200)
    (fun n ->
      List.for_all
        (fun (decl, bound, keys) ->
          let b = bound n in
          Quorums.resilience decl ~n = b
          && List.for_all
               (fun t ->
                 List.for_all
                   (fun (key, f) -> Quorums.value decl ~n ~t key = f ~n ~t)
                   keys)
               (List.init (b + 1) Fun.id))
        closed_forms
      && byzantine_resilience (Protocols.Ben_or.protocol ()) n = (n - 1) / 5
      && byzantine_resilience (Protocols.Bracha.protocol ()) n = (n - 1) / 3
      && byzantine_resilience (Protocols.Rbc_once.protocol ()) n = (n - 1) / 3
      &&
      let b = Protocols.Thresholds.max_fault_bound ~n in
      b = Quorums.resilience Protocols.Thresholds.quorums ~n
      && List.for_all
           (fun t ->
             let value = Quorums.value Protocols.Thresholds.quorums ~n ~t in
             Protocols.Thresholds.feasible ~n ~t
             && Protocols.Thresholds.default ~n ~t
                = { Protocols.Thresholds.t1 = value "t1"; t2 = value "t2";
                    t3 = value "t3" })
           (List.init (b + 1) Fun.id)
      && not (Protocols.Thresholds.feasible ~n ~t:(b + 1)))

(* ------------------------------------------------------------------ *)
(* Region agreement with Theorem 4's calculus at t = n/6 +- 1.         *)

let lewko_region =
  (* max_fault_bound's (n - 1) / 6 >= t, plus the ambient bounds. *)
  Symexpr.[ ge (div (sub n_ (int_ 1)) 6) t_; t_; ge n_ (int_ 1) ]

let admits region ~n ~t =
  List.for_all (fun c -> Symexpr.eval ~n ~t c >= 0) region

let test_region_matches_feasible () =
  (* At every n, the symbolic Theorem 4 region admits (n, t) exactly
     when [Thresholds.feasible] accepts it — probed at the boundary
     t = max_fault_bound(n) and one to either side. *)
  for n = 7 to 80 do
    let tb = Protocols.Thresholds.max_fault_bound ~n in
    List.iter
      (fun t ->
        if t >= 0 then
          Alcotest.(check bool)
            (Printf.sprintf "n=%d t=%d" n t)
            (Protocols.Thresholds.feasible ~n ~t)
            (admits lewko_region ~n ~t))
      [ tb - 1; tb; tb + 1 ]
  done

let test_region_verdicts () =
  (* The decision procedure agrees with the calculus on the same
     region: 2*T3 > n holds over 6t < n, and weakening the region to
     t <= n/6 produces a witness the calculus also rejects. *)
  let t3 = Symexpr.(sub n_ (scale 3 t_)) in
  let goal = Symexpr.(gt (scale 2 t3) n_) in
  (match Symexpr.implies ~region:lewko_region goal with
  | Symexpr.Holds -> ()
  | _ -> Alcotest.fail "2*T3 > n must hold for 6t < n");
  let weak = Symexpr.[ ge (div n_ 6) t_; t_; ge n_ (int_ 1) ] in
  match Symexpr.implies ~region:weak goal with
  | Symexpr.Fails { n; t } ->
      Alcotest.(check bool) "witness infeasible for the calculus" false
        (Protocols.Thresholds.feasible ~n ~t)
  | _ -> Alcotest.fail "t <= n/6 admits the 2*T3 = n degeneracy"

(* ------------------------------------------------------------------ *)
(* The real tree: exactly the three !quorum mutants, each R16+R17+R18. *)

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

let real_load =
  lazy
    (match find_root () with
    | None -> None
    | Some root ->
        let load = Cmt_loader.load ~dirs:[ "lib" ] ~root () in
        if load.Cmt_loader.load_errors <> [] then
          Alcotest.failf "cmt load errors: %s"
            (String.concat "; " load.Cmt_loader.load_errors);
        Some load)

let registry = Mcheck.Model.lint_entries

let real_findings () =
  Option.map (Quorum_lint.analyze registry) (Lazy.force real_load)

let mutants = [ "ben-or!quorum-1"; "bracha!quorum-t"; "rbc!quorum-t" ]

let test_real_tree_mutants_flagged () =
  match real_findings () with
  | None -> ()
  | Some ds ->
      List.iter
        (fun d ->
          Alcotest.(check string)
            "every finding lands in the mutant registry" "lib/mcheck/model.ml"
            d.Rules.path)
        ds;
      List.iter
        (fun mutant ->
          let flagged =
            List.filter (fun d -> contains d.Rules.message (mutant ^ ":")) ds
            |> rules_of |> List.sort_uniq compare
          in
          Alcotest.(check (list string))
            (mutant ^ " flagged by all three rules")
            [ "R16"; "R17"; "R18" ] flagged)
        mutants;
      Alcotest.(check int) "three mutants x three rules, nothing else" 9
        (List.length ds)

let test_real_tree_sound_families_clean () =
  match real_findings () with
  | None -> ()
  | Some ds ->
      List.iter
        (fun sound ->
          Alcotest.(check bool) (sound ^ " has no findings") false
            (List.exists
               (fun d -> contains d.Rules.message sound)
               ds))
        [ "ben-or:"; "bracha:"; "rbc:"; "lewko:" ]

let test_real_tree_extractions () =
  let family key =
    match List.find_opt (fun e -> e.Quorum_lint.decl.name = key) registry with
    | Some e -> e.Quorum_lint.decl
    | None -> Alcotest.failf "family %s not registered" key
  in
  let affine decl key =
    match Symexpr.as_affine (Quorums.threshold decl key) with
    | Some a -> a
    | None -> Alcotest.failf "%s not affine" key
  in
  (* Ben-Or: decide_at = t + 1, wait_quorum = n - t. *)
  Alcotest.(check (triple int int int))
    "ben-or decide_at" (0, 1, 1)
    (affine (family "ben-or") "decide_at");
  Alcotest.(check (triple int int int))
    "ben-or wait_quorum" (1, -1, 0)
    (affine (family "ben-or") "wait_quorum");
  (* RBC accept quorum: 2t + 1. *)
  Alcotest.(check (triple int int int))
    "rbc accept quorum" (0, 2, 1)
    (affine (family "rbc") "rbc_accept_quorum");
  (* Lewko: Theorem 4's T3 = n - 3t, over the 6t < n region that must
     agree with [Thresholds.feasible] at the boundary. *)
  Alcotest.(check (triple int int int))
    "lewko t3" (1, -3, 0)
    (affine (family "lewko") "t3");
  let lewko =
    Symexpr.[ ge (family "lewko").resilience t_; t_; ge n_ (int_ 1) ]
  in
  for n = 7 to 40 do
    let tb = Protocols.Thresholds.max_fault_bound ~n in
    List.iter
      (fun t ->
        if t >= 0 then
          Alcotest.(check bool)
            (Printf.sprintf "lewko region n=%d t=%d" n t)
            (Protocols.Thresholds.feasible ~n ~t)
            (admits lewko ~n ~t))
      [ tb; tb + 1 ]
  done

(* ------------------------------------------------------------------ *)
(* Static/dynamic cross-check: each statically flagged mutant replays
   its pinned mcheck counterexample to a real violation; sound Bracha
   survives the identical schedule.                                    *)

let replay name ~inputs ~schedule f =
  match Mcheck.Model.find name with
  | None -> Alcotest.failf "model %s not registered" name
  | Some m ->
      let opts =
        let o = Mcheck.Model.options m ~n:3 ~t:1 in
        { o with Mcheck.Explore.corrupt = 1 }
      in
      f (Mcheck.Model.replay m opts ~inputs schedule)

let test_static_verdicts_match_dynamic () =
  (match real_findings () with
  | None -> ()
  | Some ds ->
      List.iter
        (fun mutant ->
          Alcotest.(check bool) (mutant ^ " statically flagged") true
            (List.exists
               (fun d -> contains d.Rules.message (mutant ^ ":"))
               ds))
        mutants);
  (* ben-or!quorum-1: schedule 0;2 on all-zero inputs decides 1. *)
  replay "ben-or!quorum-1" ~inputs:[| false; false; false |]
    ~schedule:[| 0; 2 |] (fun report ->
      Alcotest.(check bool) "ben-or mutant decides invalid value" true
        (List.exists (fun (_, d) -> d) report.Mcheck.Explore.final_decisions));
  (* rbc!quorum-t: three benign windows plus a rewrite conflict. *)
  replay "rbc!quorum-t" ~inputs:[| false; false; false |]
    ~schedule:[| 0; 0; 2 |] (fun report ->
      Alcotest.(check bool) "rbc mutant conflicts" true
        report.Mcheck.Explore.conflict);
  (* bracha!quorum-t: the 9-window constant equivocation replay. *)
  let schedule = Array.make 9 3 in
  let inputs = [| false; true; false |] in
  replay "bracha!quorum-t" ~inputs ~schedule (fun report ->
      Alcotest.(check bool) "bracha mutant conflicts" true
        report.Mcheck.Explore.conflict);
  replay "bracha" ~inputs ~schedule (fun report ->
      Alcotest.(check bool) "sound bracha survives" false
        report.Mcheck.Explore.conflict)

let suite =
  [
    Alcotest.test_case "R16/R17 mutant site" `Quick test_r16_r17_mutant_site;
    Alcotest.test_case "R16/R17 sound twins" `Quick test_r16_r17_sound_twins;
    Alcotest.test_case "R16 bad default" `Quick test_r16_bad_default;
    Alcotest.test_case "R17 inline gate bound twins" `Quick
      test_r17_inline_gate_twins;
    Test_seed.to_alcotest prop_closed_forms;
    Alcotest.test_case "region matches Thresholds.feasible" `Quick
      test_region_matches_feasible;
    Alcotest.test_case "region verdicts vs calculus" `Quick test_region_verdicts;
    Alcotest.test_case "real tree: mutants flagged" `Quick
      test_real_tree_mutants_flagged;
    Alcotest.test_case "real tree: sound families clean" `Quick
      test_real_tree_sound_families_clean;
    Alcotest.test_case "real tree: extraction view" `Quick
      test_real_tree_extractions;
    Alcotest.test_case "static verdicts match pinned dynamic replays" `Quick
      test_static_verdicts_match_dynamic;
  ]
