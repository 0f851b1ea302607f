(* The bounded exhaustive model checker: menu correctness, brute-force
   differentials, symmetry-reduction soundness, mutant falsification
   (with pinned minimal counterexamples), replay determinism, and the
   pid-naming Window.validate diagnostics. *)

let to_alcotest = Test_seed.to_alcotest

module Menu = Mcheck.Menu
module Explore = Mcheck.Explore
module Model = Mcheck.Model

let model name = Option.get (Model.find name)

let opts_of name ~n ~t f =
  let m = model name in
  (m, f (Model.options m ~n ~t))

let schedule_key s = String.concat ";" (List.map string_of_int (Array.to_list s))

let sorted_keys schedules =
  List.sort String.compare (List.map schedule_key schedules)

(* --- menu construction --- *)

let test_menu_sizes () =
  let check ~family ~corrupt expected =
    let menu = Menu.build ~n:3 ~t:1 ~family ~corrupt in
    Alcotest.(check int)
      (Printf.sprintf "menu size (%s, corrupt=%d)"
         (match family with `Uniform -> "uniform" | `Full -> "full")
         corrupt)
      expected (Menu.size menu);
    Alcotest.(check bool) "all windows acceptable" true (Menu.validate_all menu)
  in
  (* Uniform: 4 silenced sets (popcount <= 1) x 4 reset sets; full: 4
     receive masks per processor (popcount >= 2) ^ 3 x 4 reset sets.
     One corrupt source multiplies by 1 + 2^3 tamper choices. *)
  check ~family:`Uniform ~corrupt:0 16;
  check ~family:`Full ~corrupt:0 256;
  check ~family:`Uniform ~corrupt:1 144;
  check ~family:`Full ~corrupt:1 2304

let all_perms_3 =
  [ [| 0; 1; 2 |]; [| 0; 2; 1 |]; [| 1; 0; 2 |]; [| 1; 2; 0 |];
    [| 2; 0; 1 |]; [| 2; 1; 0 |] ]

let choice_signature (c : Menu.choice) =
  Printf.sprintf "%s|%s|%s"
    (String.concat ","
       (List.map string_of_int (Array.to_list c.Menu.recv_masks)))
    (String.concat "," (List.map string_of_int c.Menu.resets))
    (match c.Menu.tamper with
    | None -> "-"
    | Some { Menu.src; mask } -> Printf.sprintf "%d/%d" src mask)

(* Soundness precondition of the symmetry reduction: the image of the
   menu under any pid permutation (that fixes the corrupt prefix) is the
   menu itself. *)
let test_menu_permutation_closure () =
  List.iter
    (fun family ->
      let menu = Menu.build ~n:3 ~t:1 ~family ~corrupt:1 in
      let signatures =
        Array.to_list (Array.map choice_signature menu.Menu.choices)
        |> List.sort String.compare
      in
      List.iter
        (fun pi ->
          if pi.(0) = 0 (* corrupt source set {0} must be preserved *) then
            let image =
              Array.to_list menu.Menu.choices
              |> List.map (fun c ->
                     choice_signature (Menu.permute_choice ~n:3 pi c))
              |> List.sort String.compare
            in
            Alcotest.(check (list string))
              "permuted menu equals menu" signatures image)
        all_perms_3)
    [ `Uniform; `Full ]

(* --- brute-force differential (satellite): with deduplication off the
   explorer enumerates exactly the naive schedule tree --- *)

let naive_tree ~menu_size ~depth =
  let rec layer d acc =
    if d > depth then acc
    else
      let rec seqs d =
        if d = 0 then [ [] ]
        else
          List.concat_map
            (fun rest -> List.init menu_size (fun c -> c :: rest))
            (seqs (d - 1))
      in
      layer (d + 1) (List.rev_append (List.map Array.of_list (seqs d)) acc)
  in
  layer 0 []

let test_brute_force_differential () =
  List.iter
    (fun (family, depth, menu_size) ->
      let m, opts =
        opts_of "rbc" ~n:3 ~t:1 (fun o ->
            {
              o with
              Explore.depth;
              family;
              (* asymmetric inputs: trivial symmetry group, so the tree
                 is the plain menu tree *)
              inputs = Explore.Vector [| true; false; false |];
              symmetry = false;
              dedup = false;
              collect = true;
              max_states = None;
            })
      in
      let r = Model.run m opts in
      let expected = naive_tree ~menu_size ~depth in
      Alcotest.(check int)
        "node count" (List.length expected)
        (List.length r.Explore.schedules);
      Alcotest.(check (list string))
        "schedule set equals naive enumeration" (sorted_keys expected)
        (sorted_keys r.Explore.schedules))
    [ (`Uniform, 3, 16); (`Full, 2, 256) ]

(* Every acceptable schedule lands on a canonical state the deduplicated
   exploration has seen (exhaustiveness of the pruned search).  The
   symmetric root is explored twice: with symmetry on (the orbit minimum
   is the dedup key) and off (it is only collected), so the probe must
   canonicalize under the same rule as the run in both. *)
let prop_sampled_schedule_contained =
  let explored symmetry =
    let m, opts =
      opts_of "rbc" ~n:3 ~t:1 (fun o ->
          {
            o with
            Explore.depth = 3;
            inputs = Explore.Unanimous false;
            symmetry;
            collect = true;
          })
    in
    let r = Model.run m opts in
    (m, opts, List.sort_uniq String.compare r.Explore.canonical, r.Explore.menu_size)
  in
  let runs = [ explored true; explored false ] in
  let _, _, _, menu_size = List.hd runs in
  QCheck.Test.make ~count:60
    ~name:"random acceptable schedule reaches an explored canonical state"
    QCheck.(list_of_size (Gen.int_range 0 3) (int_bound (menu_size - 1)))
    (fun schedule ->
      List.for_all
        (fun (m, opts, canonical, _) ->
          let key =
            Model.schedule_state m opts ~inputs:(Array.make 3 false)
              (Array.of_list schedule)
          in
          List.exists (String.equal key) canonical)
        runs)

(* --- symmetry reduction (satellite) --- *)

let run_ben_or ~symmetry ~inputs ~depth ~collect =
  let m, opts =
    opts_of "ben-or" ~n:3 ~t:1 (fun o ->
        { o with Explore.depth; inputs; symmetry; collect })
  in
  Model.run m opts

let test_symmetry_same_canonical_states () =
  (* Single symmetric root (|G| = 6): with symmetry on the dedup key is
     the canonical form, with it off the raw key — either way the set of
     canonical states swept must be identical, or pruning lost states. *)
  let on =
    run_ben_or ~symmetry:true ~inputs:(Explore.Unanimous true) ~depth:2
      ~collect:true
  in
  let off =
    run_ben_or ~symmetry:false ~inputs:(Explore.Unanimous true) ~depth:2
      ~collect:true
  in
  Alcotest.(check (list string))
    "canonical state sets agree" on.Explore.canonical off.Explore.canonical;
  Alcotest.(check int)
    "both verdicts clean" on.Explore.violations_total
    off.Explore.violations_total

let test_symmetry_same_verdict_on_mutant () =
  let run symmetry =
    let m, opts =
      opts_of "rbc!quorum-t" ~n:3 ~t:1 (fun o ->
          { o with Explore.depth = 3; corrupt = 1; symmetry })
    in
    Model.run m opts
  in
  let on = run true and off = run false in
  Alcotest.(check bool) "both falsify" true
    (on.Explore.violations_total > 0 && off.Explore.violations_total > 0);
  match (on.Explore.violations, off.Explore.violations) with
  | von :: _, voff :: _ ->
      Alcotest.(check int)
        "same minimal depth" von.Explore.vdepth voff.Explore.vdepth
  | _ -> Alcotest.fail "missing violations"

let prop_symmetry_shrinks =
  QCheck.Test.make ~count:4 ~name:"symmetric roots shrink by more than 1x"
    QCheck.bool
    (fun b ->
      let on =
        run_ben_or ~symmetry:true ~inputs:(Explore.Unanimous b) ~depth:3
          ~collect:false
      in
      let off =
        run_ben_or ~symmetry:false ~inputs:(Explore.Unanimous b) ~depth:3
          ~collect:false
      in
      on.Explore.total_states < off.Explore.total_states
      && on.Explore.total_symmetry_hits > 0)

(* --- mutant falsification with pinned minimal schedules (satellite) --- *)

let test_ben_or_mutant_minimal () =
  let m, opts =
    opts_of "ben-or!quorum-1" ~n:3 ~t:1 (fun o ->
        { o with Explore.depth = 2; corrupt = 1 })
  in
  let r = Model.run m opts in
  Alcotest.(check bool) "falsified" true (r.Explore.violations_total > 0);
  match r.Explore.violations with
  | [] -> Alcotest.fail "no violation"
  | v :: _ ->
      (* A single corrupted proposal flips processor 0 in window 2. *)
      Alcotest.(check int) "minimal depth" 2 v.Explore.vdepth;
      Alcotest.(check string) "minimal schedule" "0;2"
        (schedule_key v.Explore.schedule);
      Alcotest.(check string) "root inputs" "000"
        (Explore.inputs_string v.Explore.root_inputs);
      (* The minimal schedule replays deterministically to the invalid
         decision: someone outputs 1 with every non-corrupt input 0. *)
      let report =
        Model.replay m opts ~inputs:v.Explore.root_inputs v.Explore.schedule
      in
      Alcotest.(check bool) "replay reproduces the invalid decision" true
        (List.exists (fun (_, d) -> d) report.Explore.final_decisions)

let test_rbc_mutant_minimal () =
  let m, opts =
    opts_of "rbc!quorum-t" ~n:3 ~t:1 (fun o ->
        { o with Explore.depth = 3; corrupt = 1 })
  in
  let r = Model.run m opts in
  match r.Explore.violations with
  | [] -> Alcotest.fail "no violation"
  | v :: _ ->
      (* init -> echo -> ready: the broken thresholds accept the split
         payload after exactly three benign windows plus one rewrite. *)
      Alcotest.(check int) "minimal depth" 3 v.Explore.vdepth;
      Alcotest.(check string) "minimal schedule" "0;0;2"
        (schedule_key v.Explore.schedule);
      let report =
        Model.replay m opts ~inputs:v.Explore.root_inputs v.Explore.schedule
      in
      Alcotest.(check bool) "replay conflicts" true report.Explore.conflict

(* The Bracha all-quorums-at-t mutant needs 9 windows (3 phases x 3 RBC
   hops), past the exhaustive horizon; its pinned counterexample is the
   constant equivocation schedule, re-validated by deterministic
   replay.  The sound protocol survives the identical schedule. *)
let test_bracha_mutant_replay () =
  let schedule = Array.make 9 3 in
  let inputs = [| false; true; false |] in
  let run name =
    let m, opts = opts_of name ~n:3 ~t:1 (fun o -> { o with Explore.corrupt = 1 }) in
    Model.replay m opts ~inputs schedule
  in
  let mutant = run "bracha!quorum-t" in
  Alcotest.(check bool) "mutant conflicts" true mutant.Explore.conflict;
  let sound = run "bracha" in
  Alcotest.(check bool) "sound bracha survives equivocation" false
    sound.Explore.conflict;
  Alcotest.(check (list string)) "sound bracha audits clean" []
    sound.Explore.audit_violations

(* --- exhaustive clean runs (the tentpole's positive claims) --- *)

let test_sound_models_clean () =
  List.iter
    (fun (name, t, depth) ->
      let m, opts =
        opts_of name ~n:3 ~t (fun o -> { o with Explore.depth })
      in
      let r = Model.run m opts in
      Alcotest.(check int)
        (name ^ " explores clean")
        0 r.Explore.violations_total;
      Alcotest.(check bool) (name ^ " within budget") false r.Explore.bounded)
    [ ("bracha", 1, 3); ("ben-or", 1, 3); ("rbc", 1, 3); ("lewko", 0, 5) ]

(* The checker's windows now go straight from int masks to the bitset
   ground truth ([Menu.window_of_masks] / [Window.of_masks]) with no
   intermediate pid lists.  Pinning the depth-4 bracha sweep to the
   counts in docs/MODELCHECK.md proves the enumeration — menu order,
   window identity, symmetry orbits — came through the representation
   change untouched. *)
let test_enumeration_pinned_d4 () =
  let m, opts = opts_of "bracha" ~n:3 ~t:1 (fun o -> { o with Explore.depth = 4 }) in
  let r = Model.run m opts in
  Alcotest.(check int) "states" 17_845 r.Explore.total_states;
  Alcotest.(check int) "candidates" 40_224 r.Explore.total_candidates;
  Alcotest.(check int) "symmetry-collapsed" 27_045 r.Explore.total_symmetry_hits;
  Alcotest.(check int) "clean" 0 r.Explore.violations_total

(* --- key bytes pinned --- *)

(* The dedup key is rendered text, and its bytes are load-bearing:
   symmetry hits compare keys under [String.compare], and canonical
   ids are their digests.  These MD5s pin the bytes of every rendering
   layer — message text, state cores, PRNG hex, pending sends — so a
   change to how a key is written must leave them unchanged. *)
let md5 s = Digest.to_hex (Digest.string s)

let config_key e =
  let b = Buffer.create 256 in
  Dsim.Engine.config_fingerprint b e;
  Buffer.contents b

let test_canonical_ids_pinned () =
  List.iter
    (fun (name, n, t, f, expected) ->
      let m, opts =
        opts_of name ~n ~t (fun o -> f { o with Explore.collect = true })
      in
      let r = Model.run m opts in
      Alcotest.(check string)
        (name ^ " canonical ids")
        expected
        (md5 (String.concat "\n" r.Explore.canonical)))
    [
      ("bracha", 3, 1, (fun o -> { o with Explore.depth = 3 }),
       "5a7ec3aa287e0ddde6394c7c77685d98");
      ("ben-or", 3, 1, (fun o -> { o with Explore.depth = 3 }),
       "a91d1ba43dbcd840197ef75998677331");
      ("rbc", 3, 1, (fun o -> { o with Explore.depth = 2; corrupt = 1 }),
       "595c6d7dbcfaca361b1fdaeb3dce7f93");
      ("lewko", 3, 0, (fun o -> { o with Explore.depth = 4 }),
       "e96450a484e04005b5296c2e0a23baad");
    ]

(* The state cores after a fixed three-window schedule, and the
   configuration key at every step of it.  The root is also keyed after
   one sending step on a copy: a window always empties the mailbox, so
   only a bare send leaves envelopes there to render. *)
let test_state_cores_pinned () =
  let run (Model.Packed protocol) ~t expected_cores expected_keys =
    let n = 4 in
    let e =
      Dsim.Engine.init ~protocol ~n ~fault_bound:t
        ~inputs:[| true; false; false; true |] ~seed:11 ()
    in
    let sent = Dsim.Engine.copy e in
    Dsim.Engine.apply sent (Dsim.Step.Send 0);
    let keys = ref [ config_key sent ] in
    List.iter
      (fun w ->
        Dsim.Engine.apply_window e w;
        keys := config_key e :: !keys)
      [
        Dsim.Window.uniform ~n ();
        Dsim.Window.uniform ~n ~silenced:[ 3 ] ();
        Dsim.Window.uniform ~n ~resets:(if t > 0 then [ 1 ] else []) ();
      ];
    let name = protocol.Dsim.Protocol.name in
    Alcotest.(check string)
      (name ^ " state cores")
      expected_cores
      (md5 (Test_cores.joined e));
    Alcotest.(check string)
      (name ^ " configuration keys")
      expected_keys
      (md5 (String.concat "\n" (List.rev !keys)))
  in
  run (model "bracha").Model.packed ~t:1 "b3d10f17f9c66f77270a60416644fba7"
    "628c009ace138f40a4abf6f19dd30f04";
  run (model "ben-or").Model.packed ~t:1 "fe11729df8f48557554ab08ec3fc9467"
    "cf5318248051f645d46825a945c82abb";
  run (model "rbc").Model.packed ~t:1 "7fb2e96f8680e68149fb09f6b5be72de"
    "ccbc8b4924ea41140f46ba2747ef3851";
  run (model "lewko").Model.packed ~t:0 "255f2c5ea74b1e33546f826490ea68a2"
    "c485dbd8d9bdb209588e721824d80797"

(* --- determinism across jobs --- *)

let test_jobs_bit_identical () =
  let run ~jobs =
    let m, opts =
      opts_of "rbc!quorum-t" ~n:3 ~t:1 (fun o ->
          {
            o with
            Explore.depth = 3;
            corrupt = 1;
            collect = true;
            jobs;
          })
    in
    Model.run m opts
  in
  let sequential = run ~jobs:1 in
  let parallel = run ~jobs:2 in
  Alcotest.(check int) "states" sequential.Explore.total_states
    parallel.Explore.total_states;
  Alcotest.(check int) "violations" sequential.Explore.violations_total
    parallel.Explore.violations_total;
  Alcotest.(check (list string))
    "canonical states" sequential.Explore.canonical parallel.Explore.canonical;
  Alcotest.(check (list string))
    "minimal schedules"
    (List.map (fun v -> schedule_key v.Explore.schedule) sequential.Explore.violations)
    (List.map (fun v -> schedule_key v.Explore.schedule) parallel.Explore.violations)

(* --- engine hooks the checker relies on --- *)

let test_shared_reseed_fingerprints () =
  let protocol = Protocols.Ben_or.protocol () in
  let mk () =
    let e =
      Dsim.Engine.init ~protocol ~n:3 ~fault_bound:1
        ~inputs:[| true; false; true |] ~seed:7 ()
    in
    Dsim.Engine.reseed_shared e (Prng.Stream.root 7);
    e
  in
  let a = mk () and b = mk () in
  Alcotest.(check string) "identical configurations" (config_key a)
    (config_key b);
  Dsim.Engine.apply_window a (Dsim.Window.uniform ~n:3 ());
  Alcotest.(check bool) "fingerprint moves with the configuration" false
    (String.equal (config_key a) (config_key b))

(* --- Window.validate names the offender (satellite fix) --- *)

let test_validate_messages () =
  let full3 = [ 0; 1; 2 ] in
  (match
     Dsim.Window.validate ~n:3 ~t:1
       (Dsim.Window.make ~receive_sets:[| full3; full3 |] ~resets:[])
   with
  | Error msg ->
      Alcotest.(check string) "arity message" "window has 2 receive sets; need 3"
        msg
  | Ok () -> Alcotest.fail "expected arity error");
  (match
     Dsim.Window.validate ~n:3 ~t:1
       (Dsim.Window.make ~receive_sets:[| full3; full3; full3 |] ~resets:[ 0; 1 ])
   with
  | Error msg ->
      Alcotest.(check string) "reset-budget message"
        "window resets 2 processors; at most t = 1 allowed" msg
  | Ok () -> Alcotest.fail "expected reset-budget error");
  (match
     Dsim.Window.validate ~n:3 ~t:1
       (Dsim.Window.make ~receive_sets:[| [ 1 ]; full3; full3 |] ~resets:[])
   with
  | Error msg ->
      Alcotest.(check string) "size message" "S_0 has 1 senders; need >= n - t = 2"
        msg
  | Ok () -> Alcotest.fail "expected size error");
  let w_bad_set =
    Dsim.Window.make
      ~receive_sets:[| [ 0; 1; 2 ]; [ 0; 1; 2 ]; [ 0; 2; 5 ] |]
      ~resets:[]
  in
  (match Dsim.Window.validate ~n:3 ~t:1 w_bad_set with
  | Error msg ->
      Alcotest.(check string) "receive-set message"
        "S_2 contains out-of-range pid 5 (n = 3)" msg
  | Ok () -> Alcotest.fail "expected receive-set error");
  let w_bad_reset =
    Dsim.Window.make
      ~receive_sets:[| [ 0; 1; 2 ]; [ 0; 1; 2 ]; [ 0; 1; 2 ] |]
      ~resets:[ 3 ]
  in
  (match Dsim.Window.validate ~n:3 ~t:1 w_bad_reset with
  | Error msg ->
      Alcotest.(check string) "reset message"
        "reset set contains out-of-range pid 3 (n = 3)" msg
  | Ok () -> Alcotest.fail "expected reset error");
  let w_negative =
    Dsim.Window.make
      ~receive_sets:[| [ -1; 1; 2 ]; [ 0; 1; 2 ]; [ 0; 1; 2 ] |]
      ~resets:[]
  in
  match Dsim.Window.validate ~n:3 ~t:1 w_negative with
  | Error msg ->
      Alcotest.(check string) "negative pid named"
        "S_0 contains out-of-range pid -1 (n = 3)" msg
  | Ok () -> Alcotest.fail "expected negative-pid error"

let suite =
  [
    Alcotest.test_case "menu sizes and acceptability" `Quick test_menu_sizes;
    Alcotest.test_case "menu closed under pid permutation" `Quick
      test_menu_permutation_closure;
    Alcotest.test_case "dedup-off equals naive enumeration" `Slow
      test_brute_force_differential;
    to_alcotest prop_sampled_schedule_contained;
    Alcotest.test_case "symmetry on/off: same canonical states" `Quick
      test_symmetry_same_canonical_states;
    Alcotest.test_case "symmetry on/off: same mutant verdict" `Quick
      test_symmetry_same_verdict_on_mutant;
    to_alcotest prop_symmetry_shrinks;
    Alcotest.test_case "ben-or!quorum-1 minimal counterexample" `Quick
      test_ben_or_mutant_minimal;
    Alcotest.test_case "rbc!quorum-t minimal counterexample" `Quick
      test_rbc_mutant_minimal;
    Alcotest.test_case "bracha!quorum-t pinned replay" `Quick
      test_bracha_mutant_replay;
    Alcotest.test_case "sound models explore clean" `Quick
      test_sound_models_clean;
    Alcotest.test_case "enumeration pinned at bracha n3t1 d4" `Slow
      test_enumeration_pinned_d4;
    Alcotest.test_case "canonical ids pinned" `Quick test_canonical_ids_pinned;
    Alcotest.test_case "state cores and key pinned" `Quick
      test_state_cores_pinned;
    Alcotest.test_case "results bit-identical across jobs" `Quick
      test_jobs_bit_identical;
    Alcotest.test_case "shared reseed makes configurations comparable" `Quick
      test_shared_reseed_fingerprints;
    Alcotest.test_case "Window.validate names the offending pid" `Quick
      test_validate_messages;
  ]
