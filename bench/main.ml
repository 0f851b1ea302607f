(* Benchmark harness.

   Default (no arguments), both parts printed to stdout:

   1. The reproduction tables for every experiment in DESIGN.md's
      matrix (quick scale — the full-scale numbers live in
      EXPERIMENTS.md and are regenerated by `dune exec
      bin/experiments.exe`).  The paper has no numbered tables/figures;
      these are the quantitative claims mapped in DESIGN.md.

   2. Bechamel micro-benchmarks of the kernel each experiment spends
      its time in — one group per experiment id — so regressions in the
      simulator itself are visible independently of the statistics.

   Machine mode (see docs/BENCHMARKS.md and scripts/bench.sh):

     main.exe --json OUT [--quick] [--only GROUP ...]
              [--against BASELINE.json] [--threshold PCT]

   runs only the micro-benchmarks, measures both the monotonic clock
   and minor-heap allocations, writes a bench report (schema
   "agreement-bench/1") to OUT, and — when --against is given — gates
   on regressions versus the baseline: exit 0 clean, 1 regression
   above threshold, 2 infrastructure error.  --quick shrinks the
   measurement quota for a CI smoke run; since tiny quotas make wall
   times noisy, quick mode gates only on allocations (which are
   deterministic per run). *)

open Bechamel
open Toolkit

let fresh_lewko ~n ~t ~seed =
  let inputs = Array.init n (fun i -> i mod 2 = 0) in
  Dsim.Engine.init ~protocol:(Protocols.Lewko_variant.protocol ()) ~n ~fault_bound:t
    ~inputs ~seed ()

(* A configuration that has already run a few windows, so window
   application is measured on a warm state. *)
let warm_lewko ~n ~t ~seed =
  let config = fresh_lewko ~n ~t ~seed in
  for _ = 1 to 3 do
    Dsim.Engine.apply_window config (Dsim.Window.uniform ~n ())
  done;
  config

let bench_window_apply ~n ~t ~resets =
  let base = warm_lewko ~n ~t ~seed:1 in
  let window =
    Dsim.Window.uniform ~n ~resets:(List.init resets (fun i -> i)) ()
  in
  Staged.stage (fun () ->
      let config = Dsim.Engine.copy base in
      Dsim.Engine.apply_window config window)

let bench_balancing_window ~n ~t =
  let base = warm_lewko ~n ~t ~seed:2 in
  Staged.stage (fun () ->
      let config = Dsim.Engine.copy base in
      let strategy = Adversary.Split_vote.windowed () in
      match strategy config with
      | Some window -> Dsim.Engine.apply_window config window
      | None -> ())

let bench_full_e2_run ~n =
  Staged.stage (fun () ->
      let config = fresh_lewko ~n ~t:1 ~seed:3 in
      ignore
        (Dsim.Runner.run_windows config
           ~strategy:(Adversary.Split_vote.windowed ())
           ~max_windows:100_000 ~stop:`First_decision))

let bench_ben_or_cycle ~n ~t =
  let inputs = Array.init n (fun i -> i mod 2 = 0) in
  let base =
    Dsim.Engine.init ~protocol:(Protocols.Ben_or.protocol ()) ~n ~fault_bound:t
      ~inputs ~seed:4 ()
  in
  Staged.stage (fun () ->
      let config = Dsim.Engine.copy base in
      let strategy = Adversary.Split_vote.stepwise () in
      (* One full send+deliver cycle: 2 n + n^2-ish steps. *)
      for _ = 1 to (2 * n) + (n * n) do
        match strategy config with
        | Some step -> Dsim.Engine.apply config step
        | None -> ()
      done)

let bench_bracha_echo_chamber ~n ~t =
  let inputs = Array.init n (fun i -> i mod 2 = 0) in
  let base =
    Dsim.Engine.init ~protocol:(Protocols.Bracha.protocol ()) ~n ~fault_bound:t
      ~inputs ~seed:5 ()
  in
  Staged.stage (fun () ->
      let config = Dsim.Engine.copy base in
      let strategy = Adversary.Echo_chamber.stepwise () in
      for _ = 1 to (2 * n) + (n * n) do
        match strategy config with
        | Some step -> Dsim.Engine.apply config step
        | None -> ()
      done)

let bench_talagrand_exact ~n =
  let space = Lowerbound.Product.uniform_bits ~n in
  let set = Lowerbound.Talagrand.Weight_ge ((n / 2) + (n / 8)) in
  Staged.stage (fun () ->
      ignore (Lowerbound.Talagrand.check space set ~d:(n / 4)))

let bench_talagrand_mc ~n ~samples =
  let space = Lowerbound.Product.uniform_bits ~n in
  let set = Lowerbound.Talagrand.Weight_ge ((n / 2) + (n / 8)) in
  Staged.stage (fun () ->
      ignore (Lowerbound.Talagrand.check ~samples ~seed:7 space set ~d:(n / 4)))

let bench_hybrid_mass ~n ~samples =
  let pi0 = Lowerbound.Product.bernoulli (Array.make n 0.2) in
  let pi_n = Lowerbound.Product.bernoulli (Array.make n 0.8) in
  let hybrid = Lowerbound.Product.hybrid pi_n pi0 ~j:(n / 2) in
  let z0 = Lowerbound.Talagrand.Weight_le ((n / 2) - (n / 6)) in
  Staged.stage (fun () ->
      ignore
        (Lowerbound.Product.prob_mc hybrid ~samples ~seed:8
           (Lowerbound.Talagrand.mem z0)))

let bench_zk_member () =
  let n = 7 and t = 1 in
  let base = fresh_lewko ~n ~t ~seed:9 in
  let tau = Stats.Tail.tau ~n ~t in
  Staged.stage (fun () ->
      let rng = Prng.Stream.root 10 in
      ignore
        (Lowerbound.Zk_sets.member base ~k:1 ~value:false ~samples:4 ~tau ~rng))

let bench_theory_derive () =
  Staged.stage (fun () ->
      let k = Lowerbound.Theory.derive ~c:(1.0 /. 6.0) in
      ignore (Lowerbound.Theory.log_windows k ~n:1024))

let bench_classifier () =
  Staged.stage (fun () ->
      ignore
        (Protocols.Classifier.check (Protocols.Lewko_variant.protocol ()) ~n:13 ~t:2
           ~seeds:[ 1 ] ~windows_per_run:6))

let bench_committee ~n =
  Staged.stage (fun () ->
      let params = Protocols.Committee.default_params ~n ~seed:11 in
      let inputs = Array.init n (fun i -> i mod 2 = 0) in
      ignore (Protocols.Committee.run params ~n ~corrupt:[ 0; 1; 2 ] ~inputs))

let bench_rbc_delivery ~n ~t =
  let inputs = Array.make n true in
  let base =
    Dsim.Engine.init ~protocol:(Protocols.Bracha.protocol ()) ~n ~fault_bound:t
      ~inputs ~seed:12 ()
  in
  Staged.stage (fun () ->
      let config = Dsim.Engine.copy base in
      (* Flush initial broadcasts and deliver everything once: one full
         RBC fan-out. *)
      for p = 0 to n - 1 do
        Dsim.Engine.apply config (Dsim.Step.Send p)
      done;
      for p = 0 to n - 1 do
        Dsim.Engine.deliver_all_pending config ~dst:p
      done)

let bench_relaxed_thresholds () =
  let n = 13 and t = 1 in
  let inputs = Array.init n (fun i -> i mod 2 = 0) in
  Staged.stage (fun () ->
      let config =
        Dsim.Engine.init
          ~protocol:
            (Protocols.Lewko_variant.protocol
               ~thresholds:(Protocols.Thresholds.relaxed ~n ~t) ())
          ~n ~fault_bound:t ~inputs ~seed:13 ()
      in
      ignore
        (Dsim.Runner.run_windows config
           ~strategy:(Adversary.Split_vote.windowed ())
           ~max_windows:100_000 ~stop:`First_decision))

let bench_sync_round ~n ~t =
  Staged.stage (fun () ->
      let inputs = Array.init n (fun i -> i mod 2 = 0) in
      ignore
        (Syncsim.Sync_engine.run ~protocol:Syncsim.Sync_consensus.protocol ~n ~t
           ~inputs ~seed:14
           ~adversary:(Syncsim.Sync_adversary.balancing ())
           ~max_rounds:10_000))

let bench_shared_coin ~n =
  Staged.stage (fun () ->
      ignore
        (Shmem.Shared_coin.run ~n ~threshold_factor:1.0 ~seed:15
           ~scheduler:Shmem.Shared_coin.Round_robin
           ~max_steps:(5_000 * n * n) ()))

let bench_sm_consensus ~n =
  Staged.stage (fun () ->
      let inputs = Array.init n (fun i -> i mod 2 = 0) in
      ignore
        (Shmem.Sm_consensus.run ~n ~inputs ~seed:16
           ~scheduler:Shmem.Shared_coin.Round_robin
           ~max_steps:(50_000 * n * n) ()))

let bench_reset_fragility_window ~n ~t =
  let inputs = Array.init n (fun i -> i mod 2 = 0) in
  let base =
    Dsim.Engine.init ~protocol:(Protocols.Ben_or.protocol ()) ~n ~fault_bound:t
      ~inputs ~seed:17 ()
  in
  Staged.stage (fun () ->
      let config = Dsim.Engine.copy base in
      let resets = List.init t (fun i -> i) in
      Dsim.Engine.apply_window config (Dsim.Window.uniform ~n ~resets ()))

(* The n=1000 scaling story (the R13 incremental-tally fix): Bracha's
   full agreement costs O(n^3) messages and is infeasible end to end at
   n=1000, so this group pairs true-n=1000 microbenches of the RBC
   quorum path — where incremental payload tallies replaced the
   per-delivery re-scan of the echo/ready maps — with a feasible-n
   engine run of the whole protocol.  [preload] senders are delivered
   during setup; the staged closure delivers one more message to the
   (persistent) state, which is exactly the per-event work the cost
   linter's R13 flags. *)
let bench_rbc_quorum_scan ~n ~t ~preload ~mk =
  let state =
    ref
      (Protocols.Reliable_broadcast.create ~quorums:Protocols.Reliable_broadcast.quorums ~n
         ~t ~self:0 ~code:Bool.to_int ())
  in
  for src = 2 to preload + 1 do
    let next, _, _ = Protocols.Reliable_broadcast.receive !state ~src (mk ()) in
    state := next
  done;
  let base = !state in
  let probe = mk () in
  Staged.stage (fun () ->
      ignore (Protocols.Reliable_broadcast.receive base ~src:(preload + 2) probe))

(* One more Echo while the echo count sits just below the
   ((n + t) / 2) + 1 quorum: the receive must (re)decide whether to
   send Ready.  Preloading quorum - 2 echoes keeps the probe below the
   threshold at every n (the old fixed "quorum - 60" offset went
   negative for n < ~90 and blocked small-n sweeps). *)
let bench_rbc_echo_admit ~n =
  let t = (n - 1) / 3 in
  let quorum = ((n + t) / 2) + 1 in
  bench_rbc_quorum_scan ~n ~t
    ~preload:(max 0 (quorum - 2))
    ~mk:(fun () ->
      Protocols.Reliable_broadcast.Echo { origin = 1; tag = 0; payload = true })

(* One more Ready past the t+1 resend threshold but just below the
   2t+1 acceptance quorum: the receive must (re)decide acceptance.
   2t - 1 preloaded readies leave the probe one short of acceptance at
   every n >= 4 (the old "2t - 5" went negative for n < 10). *)
let bench_rbc_ready_accept ~n =
  let t = (n - 1) / 3 in
  bench_rbc_quorum_scan ~n ~t
    ~preload:(max 0 ((2 * t) - 1))
    ~mk:(fun () ->
      Protocols.Reliable_broadcast.Ready { origin = 1; tag = 0; payload = true })

(* ------------------------------------------------------------------ *)
(* The n-sweep scaling groups (docs/BENCHMARKS.md "Scaling curves").

   A full uniform window under an all-send protocol costs Theta(n^2)
   deliveries — inherently infeasible at n = 10000 — so the
   window-apply sweep uses a steady-state single-broadcaster protocol:
   processor 0 broadcasts one message per window (re-armed by its own
   delivery), everyone else stays silent.  One window is then n
   sending steps, n deliveries of the shared envelope and a near-empty
   drop sweep: Theta(n) events total, so per-window cost directly
   exposes the per-event constants of the lazy-broadcast mailbox. *)

type bcast_state = { bid : int; bn : int; armed : bool; got : int }

let bcast_protocol ~all : (bcast_state, int) Dsim.Protocol.t =
  {
    Dsim.Protocol.name = (if all then "bench-allsend" else "bench-1bcast");
    init = (fun ~n ~t:_ ~id ~input:_ -> { bid = id; bn = n; armed = all || id = 0; got = 0 });
    outgoing =
      (fun s ->
        if s.armed then ({ s with armed = false }, [ Dsim.Step.Broadcast s.got ])
        else (s, []));
    on_deliver =
      (fun s ~src:_ _m _rng ->
        (* any delivery re-arms the broadcaster(s): steady state *)
        { s with armed = all || s.bid = 0; got = s.got + 1 });
    on_reset = (fun s -> { s with armed = all || s.bid = 0; got = 0 });
    output = (fun _ -> None);
    observe =
      (fun s ->
        Dsim.Obs.make ~id:s.bid ~round:1 ~estimate:None ~output:None ~input:false
          ~resets:0 ~phase:0);
    message_bit = (fun _ -> None);
    message_round = (fun _ -> None);
    message_origin = (fun _ -> None);
    rewrite_bit = (fun _ _ -> None);
    state_core = (fun s -> Printf.sprintf "b:%d:%d:%b" s.bid s.got s.armed);
    props = Dsim.Protocol.default_props;
    add_message = (fun b m -> Buffer.add_string b (string_of_int m));
  }

let bench_window_apply_1bcast ~n =
  let config =
    Dsim.Engine.init ~protocol:(bcast_protocol ~all:false) ~n ~fault_bound:0
      ~inputs:(Array.make n false) ~seed:18 ()
  in
  let window = Dsim.Window.uniform ~n () in
  (* warm to steady state: the broadcast/re-arm cycle is stationary *)
  for _ = 1 to 2 do
    Dsim.Engine.apply_window config window
  done;
  Staged.stage (fun () ->
      let c = Dsim.Engine.copy config in
      Dsim.Engine.apply_window c window)

(* Emission only: the n sending steps of an all-send window (every
   processor broadcasts), each storing one shared entry + an n-bit
   pending map. *)
let bench_allsend_emit ~n =
  let config =
    Dsim.Engine.init ~protocol:(bcast_protocol ~all:true) ~n ~fault_bound:0 ~inputs:(Array.make n false)
      ~seed:19 ()
  in
  Staged.stage (fun () ->
      let c = Dsim.Engine.copy config in
      for p = 0 to n - 1 do
        Dsim.Engine.apply c (Dsim.Step.Send p)
      done)

(* The first communication window of full Bracha: all n processors
   broadcast their RBC Initial and every processor admits all n of
   them — n^2 deliveries through the real protocol stack. *)
let bench_bracha_window ~n =
  let t = (n - 1) / 3 in
  let config =
    Dsim.Engine.init ~protocol:(Protocols.Bracha.protocol ()) ~n ~fault_bound:t
      ~inputs:(Array.init n (fun i -> i mod 2 = 0)) ~seed:20 ()
  in
  let window = Dsim.Window.uniform ~n () in
  Staged.stage (fun () ->
      let c = Dsim.Engine.copy config in
      Dsim.Engine.apply_window c window)

(* Full Bracha *agreement* end to end: benign fault-free windows until
   every processor decides (9 windows at seed 21 for each bench n).
   Each window delivers through one drain walk per processor;
   incremental RBC tallies keep the per-delivery cost flat.  Decision
   count is asserted during setup, not in the staged closure, so the
   measured loop stays allocation-honest. *)
let bench_bracha_agreement ~n =
  let t = (n - 1) / 3 in
  let config =
    Dsim.Engine.init ~protocol:(Protocols.Bracha.protocol ()) ~n ~fault_bound:t
      ~inputs:(Array.init n (fun i -> i mod 2 = 0)) ~seed:21 ()
  in
  let window = Dsim.Window.uniform ~n () in
  let run c =
    let budget = ref 96 in
    while (not (Dsim.Engine.all_decided c)) && !budget > 0 do
      Dsim.Engine.apply_window c window;
      decr budget
    done
  in
  (let c = Dsim.Engine.copy config in
   run c;
   if not (Dsim.Engine.all_decided c) then
     invalid_arg "bench: bracha agreement did not reach all-decided");
  Staged.stage (fun () -> run (Dsim.Engine.copy config))

(* Construction cost of one uniform window — the O(n^2) -> O(n) story:
   the bitset ground truth allocates one shared mask of n/63 words
   plus a constant-size record, where the list representation built n
   per-processor receive sets. *)
let bench_window_make_uniform ~n =
  Staged.stage (fun () -> ignore (Sys.opaque_identity (Dsim.Window.uniform ~n ())))

(* A run of [count] identical uniform windows on the steady-state
   single-broadcaster protocol, each applied on its own: the per-window
   fixed cost (send sweep, n drain walks, drop sweep) times [count]. *)
let bench_window_run ~n ~count =
  let config =
    Dsim.Engine.init ~protocol:(bcast_protocol ~all:false) ~n ~fault_bound:0
      ~inputs:(Array.make n false) ~seed:22 ()
  in
  let window = Dsim.Window.uniform ~n () in
  for _ = 1 to 2 do
    Dsim.Engine.apply_window config window
  done;
  Staged.stage (fun () ->
      let c = Dsim.Engine.copy config in
      for _ = 1 to count do
        Dsim.Engine.apply_window c window
      done)

(* Sequential-vs-parallel throughput of the ensemble sweep engine: the
   same 32-seed E2-style sweep at jobs = 1 / 2 / recommended.  On a
   multicore host the jobs > 1 lines should scale close to linearly;
   results are bit-identical regardless, which test/test_par_sweep.ml
   checks. *)
let bench_ensemble_sweep ~jobs =
  let spec =
    {
      Agreement.Ensemble.n = 9;
      t = 1;
      inputs = Agreement.Ensemble.split_inputs ~n:9;
      max_windows = 4_000;
      max_steps = 0;
      stop = `First_decision;
    }
  in
  let seeds = List.init 32 (fun i -> i + 1) in
  Staged.stage (fun () ->
      ignore
        (Agreement.Ensemble.run_windowed ~jobs
           ~protocol:(Protocols.Lewko_variant.protocol ())
           ~strategy:(fun _seed -> Adversary.Split_vote.windowed ())
           ~spec ~seeds ()))

(* The bounded model checker's hot loop: replay-from-root expansion of
   one BFS layer, with and without the symmetry twins, plus a single
   deep counterexample replay.  These are the per-node costs that set
   the exhaustive horizon (docs/MODELCHECK.md "State-space sizes"). *)
let mcheck_model name =
  match Mcheck.Model.find name with
  | Some m -> m
  | None -> invalid_arg ("unknown mcheck model " ^ name)

let bench_mcheck_explore ~model ~depth ~symmetry ~corrupt =
  let m = mcheck_model model in
  let opts = Mcheck.Model.options m ~n:3 ~t:1 in
  let opts = { opts with Mcheck.Explore.depth; symmetry; corrupt } in
  Staged.stage (fun () -> ignore (Mcheck.Model.run m opts))

let bench_mcheck_replay () =
  let m = mcheck_model "bracha!quorum-t" in
  let opts = Mcheck.Model.options m ~n:3 ~t:1 in
  let opts = { opts with Mcheck.Explore.corrupt = 1 } in
  let schedule = Array.make 9 3 in
  let inputs = [| false; true; false |] in
  Staged.stage (fun () -> ignore (Mcheck.Model.replay m opts ~inputs schedule))

(* The quorum layer's two costs: the exact integer decision procedure
   on a Theorem 4 obligation (the per-obligation unit the analyzer
   pays hundreds of times per scan), and the declaration check over the
   whole model registry (every family's obligations discharged, the
   three mutants' nine findings produced). *)
let bench_symexpr_implies () =
  let region =
    Protocols.Symexpr.
      [ ge (div (sub n_ (int_ 1)) 6) t_; t_; ge n_ (int_ 1) ]
  in
  let goal =
    Protocols.Symexpr.(gt (scale 2 (sub n_ (scale 3 t_))) n_)
  in
  Staged.stage (fun () ->
      match Protocols.Symexpr.implies ~region goal with
      | Protocols.Symexpr.Holds -> ()
      | _ -> invalid_arg "bench: Theorem 4 obligation must hold")

let bench_quorum_check_declarations () =
  Staged.stage (fun () ->
      let findings =
        Lintkit.Quorum_lint.check_declarations Mcheck.Model.lint_entries
      in
      if List.length findings <> 9 then
        invalid_arg "bench: the registry must yield the nine mutant findings")

(* Groups are kept as (name, tests) pairs so machine mode can select a
   subset with --only; the names double as the stable identifiers the
   regression baseline keys on. *)
let groups =
  [
    ( "E1",
      [
        Test.make ~name:"window-apply-n18" (bench_window_apply ~n:18 ~t:2 ~resets:0);
        Test.make ~name:"window-apply-resets-n18"
          (bench_window_apply ~n:18 ~t:2 ~resets:2);
      ] );
    ( "E2",
      [
        Test.make ~name:"balancing-window-n13" (bench_balancing_window ~n:13 ~t:1);
        Test.make ~name:"full-run-n9" (bench_full_e2_run ~n:9);
      ] );
    ( "E3",
      [
        Test.make ~name:"ben-or-cycle-n9" (bench_ben_or_cycle ~n:9 ~t:4);
        Test.make ~name:"bracha-echo-chamber-n7" (bench_bracha_echo_chamber ~n:7 ~t:2);
        Test.make ~name:"rbc-fanout-n7" (bench_rbc_delivery ~n:7 ~t:2);
      ] );
    ( "E4",
      [
        Test.make ~name:"talagrand-exact-n16" (bench_talagrand_exact ~n:16);
        Test.make ~name:"talagrand-mc-n64-10k" (bench_talagrand_mc ~n:64 ~samples:10_000);
      ] );
    ("E5", [ Test.make ~name:"hybrid-mass-n48-5k" (bench_hybrid_mass ~n:48 ~samples:5_000) ]);
    ("E5b", [ Test.make ~name:"zk-member-k1-n7" (bench_zk_member ()) ]);
    ("E6", [ Test.make ~name:"derive-constants" (bench_theory_derive ()) ]);
    ("E7", [ Test.make ~name:"reset-window-n13" (bench_window_apply ~n:13 ~t:2 ~resets:2) ]);
    ("E8", [ Test.make ~name:"classifier-n13" (bench_classifier ()) ]);
    ( "E9",
      [
        Test.make ~name:"committee-n64" (bench_committee ~n:64);
        Test.make ~name:"committee-n256" (bench_committee ~n:256);
      ] );
    ("E10", [ Test.make ~name:"relaxed-thresholds-run-n13" (bench_relaxed_thresholds ()) ]);
    ("E11", [ Test.make ~name:"sync-coin-killing-run-n32" (bench_sync_round ~n:32 ~t:8) ]);
    ("E12", [ Test.make ~name:"shared-coin-race-n16" (bench_shared_coin ~n:16) ]);
    ( "E14",
      [ Test.make ~name:"ben-or-reset-window-n13" (bench_reset_fragility_window ~n:13 ~t:2) ]
    );
    ("E15", [ Test.make ~name:"sm-consensus-n16" (bench_sm_consensus ~n:16) ]);
    ( "bracha-n1000",
      [
        Test.make ~name:"rbc-echo-admit-n1000" (bench_rbc_echo_admit ~n:1000);
        Test.make ~name:"rbc-ready-accept-n1000" (bench_rbc_ready_accept ~n:1000);
        Test.make ~name:"bracha-steps-n40" (bench_bracha_echo_chamber ~n:40 ~t:13);
        (* End-to-end agreement cap: n = 40 -> 100 (9 windows to
           all-decided; n = 200 also decides in 9 windows but at ~60 s
           a run stays out of the gated set — see docs/BENCHMARKS.md). *)
        Test.make ~name:"bracha-agreement-n100" (bench_bracha_agreement ~n:100);
      ] );
    ( "par-sweep",
      [
        Test.make ~name:"e2-sweep-j1" (bench_ensemble_sweep ~jobs:1);
        Test.make ~name:"e2-sweep-j2" (bench_ensemble_sweep ~jobs:2);
        Test.make ~name:"e2-sweep-jrec"
          (bench_ensemble_sweep ~jobs:(Par_sweep.default_jobs ()));
      ] );
    ( "modelcheck",
      [
        Test.make ~name:"explore-bracha-d2"
          (bench_mcheck_explore ~model:"bracha" ~depth:2 ~symmetry:true
             ~corrupt:0);
        Test.make ~name:"explore-bracha-d2-nosym"
          (bench_mcheck_explore ~model:"bracha" ~depth:2 ~symmetry:false
             ~corrupt:0);
        Test.make ~name:"explore-rbc-mutant-d2-corrupt1"
          (bench_mcheck_explore ~model:"rbc!quorum-t" ~depth:2 ~symmetry:true
             ~corrupt:1);
        Test.make ~name:"replay-bracha-mutant-d9" (bench_mcheck_replay ());
      ] );
    ( "quorum-lint",
      [
        Test.make ~name:"symexpr-implies-thm4" (bench_symexpr_implies ());
        Test.make ~name:"check-declarations"
          (bench_quorum_check_declarations ());
      ] );
    (* The n-sweep behind docs/BENCHMARKS.md "Scaling curves": one
       decade per point, each test Theta(n) or Theta(n^2) as noted at
       its definition. *)
    ( "scaling",
      [
        Test.make ~name:"window-apply-1bcast-n10" (bench_window_apply_1bcast ~n:10);
        Test.make ~name:"window-apply-1bcast-n100" (bench_window_apply_1bcast ~n:100);
        Test.make ~name:"window-apply-1bcast-n1000" (bench_window_apply_1bcast ~n:1000);
        Test.make ~name:"window-apply-1bcast-n10000" (bench_window_apply_1bcast ~n:10000);
        Test.make ~name:"rbc-echo-admit-n10" (bench_rbc_echo_admit ~n:10);
        Test.make ~name:"rbc-echo-admit-n100" (bench_rbc_echo_admit ~n:100);
        Test.make ~name:"rbc-echo-admit-n10000" (bench_rbc_echo_admit ~n:10000);
        Test.make ~name:"bracha-window-n10" (bench_bracha_window ~n:10);
        Test.make ~name:"bracha-window-n100" (bench_bracha_window ~n:100);
        Test.make ~name:"bracha-window-n1000" (bench_bracha_window ~n:1000);
        Test.make ~name:"allsend-emit-lazy-n100" (bench_allsend_emit ~n:100);
        Test.make ~name:"allsend-emit-lazy-n1000" (bench_allsend_emit ~n:1000);
        Test.make ~name:"window-make-uniform-n10" (bench_window_make_uniform ~n:10);
        Test.make ~name:"window-make-uniform-n100" (bench_window_make_uniform ~n:100);
        Test.make ~name:"window-make-uniform-n1000" (bench_window_make_uniform ~n:1000);
        Test.make ~name:"window-make-uniform-n10000" (bench_window_make_uniform ~n:10000);
        Test.make ~name:"window-make-uniform-n100000"
          (bench_window_make_uniform ~n:100000);
        Test.make ~name:"windows-n1000-k8" (bench_window_run ~n:1000 ~count:8);
        (* One balancing window of E2 at n = 19, the cost that
           multiplies E2's exponentially many windows. *)
        Test.make ~name:"e2-window-n19" (bench_balancing_window ~n:19 ~t:1);
      ] );
  ]

let tests ~only =
  let selected =
    match only with
    | [] -> groups
    | only -> List.filter (fun (name, _) -> List.mem name only) groups
  in
  Test.make_grouped ~name:"agreement"
    (List.map (fun (name, tests) -> Test.make_grouped ~name tests) selected)

let run_benchmarks ?(only = []) ?(quick = false) ?(instances = Instance.[ monotonic_clock ])
    ?(kde = true) () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let quota = if quick then Time.second 0.075 else Time.second 0.6 in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota ~kde:(if kde then Some 1000 else None) ()
  in
  let raw_results = Benchmark.all cfg instances (tests ~only) in
  let per_instance =
    List.map (fun instance -> (instance, Analyze.all ols instance raw_results)) instances
  in
  let results = Analyze.merge ols instances (List.map snd per_instance) in
  (results, per_instance)

let print_benchmarks () =
  List.iter
    (fun instance -> Bechamel_notty.Unit.add instance (Measure.unit instance))
    Instance.[ monotonic_clock ];
  let window =
    match Notty_unix.winsize Unix.stdout with
    | Some (w, h) -> { Bechamel_notty.w; h }
    | None -> { Bechamel_notty.w = 100; h = 1 }
  in
  let results, _ = run_benchmarks () in
  let img =
    Bechamel_notty.Multiple.image_of_ols_results ~rect:window
      ~predictor:Measure.run results
  in
  Notty_unix.output_image img

(* ------------------------------------------------------------------ *)
(* Machine mode: JSON report + regression gate.                        *)

let estimate_of_ols ols =
  match Analyze.OLS.estimates ols with Some (e :: _) -> Some e | _ -> None

(* Minor words allocated by every domain, read exactly.  Bechamel's
   own [Instance.minor_allocated] reads [(Gc.quick_stat ()).minor_words],
   which on OCaml 5 counts each domain's words only up to its last
   minor collection: a run that fits in the minor heap reads 0, and
   longer ones read in steps of the minor heap size.  Adding what the
   calling domain has allocated into its minor heap since then makes
   the count exact.  ([Gc.minor_words] alone is exact for the calling
   domain but blind to worker domains, so the par-sweep rows would
   count only the share the scheduler happened to leave the caller.)
   Same label as bechamel's measure, so reports keep their field
   name. *)
module Minor_words = struct
  type witness = unit

  let label () = "minor-allocated"
  let unit () = "mnw"
  let make () = ()
  let unload () = ()

  (* Both counts are taken before anything here allocates:
     [Gc.get_minor_free] (in bytes on OCaml 5) allocates nothing, and
     [Gc.quick_stat] copies its counters before building its record. *)
  let read () =
    let free_words = Gc.get_minor_free () / (Sys.word_size / 8) in
    let words = (Gc.quick_stat ()).minor_words in
    words +. float_of_int ((Gc.get ()).minor_heap_size - free_words)

  (* A reading allocates a fixed number of words after it is taken (the
     two GC records and the boxed results).  Each reading subtracts
     that for every reading before it, so the difference of two
     readings is exactly what the code between them allocated; without
     this, every sample would carry one reading's words, which the
     per-run estimate spreads over the sample's runs. *)
  let readings = ref 0
  let own_words = ref 0.0

  let get () =
    let words = read () -. (float_of_int !readings *. !own_words) in
    incr readings;
    words

  let load () =
    let get = Sys.opaque_identity get in
    own_words := 0.0;
    let first = get () in
    own_words := get () -. first;
    readings := 0
end

let minor_words =
  Measure.instance (module Minor_words) (Measure.register (module Minor_words))

let report_of_run ~quick ~only () =
  let instances = [ Instance.monotonic_clock; minor_words ] in
  let _, per_instance = run_benchmarks ~only ~quick ~instances ~kde:false () in
  let collect label =
    match
      List.find_opt (fun (i, _) -> String.equal (Measure.label i) label) per_instance
    with
    | None -> fun _name -> None
    | Some (_, tbl) ->
        fun name ->
          Option.bind (Hashtbl.find_opt tbl name) estimate_of_ols
  in
  let ns_of = collect (Measure.label Instance.monotonic_clock) in
  let words_of = collect (Measure.label minor_words) in
  let names =
    List.concat_map
      (fun (_, tbl) -> Hashtbl.fold (fun name _ acc -> name :: acc) tbl [])
      per_instance
    |> List.sort_uniq String.compare
  in
  {
    Bench_report.mode = (if quick then "quick" else "full");
    tests =
      List.map
        (fun name -> (name, { Bench_report.ns = ns_of name; words = words_of name }))
        names;
  }

type cli = {
  json : string option;
  against : string option;
  threshold : float;
  wall_threshold : float option;  (** defaults to [3 * threshold] *)
  quick : bool;
  only : string list;
}

let parse_cli () =
  let default =
    {
      json = None;
      against = None;
      threshold = 15.0;
      wall_threshold = None;
      quick = false;
      only = [];
    }
  in
  let usage () =
    prerr_endline
      "usage: main.exe [--json OUT] [--against BASELINE] [--threshold PCT] \
       [--wall-threshold PCT] [--quick] [--only GROUP ...]";
    exit 2
  in
  let rec go acc = function
    | [] -> acc
    | "--json" :: path :: rest -> go { acc with json = Some path } rest
    | "--against" :: path :: rest -> go { acc with against = Some path } rest
    | "--threshold" :: pct :: rest -> (
        match float_of_string_opt pct with
        | Some threshold when threshold > 0.0 -> go { acc with threshold } rest
        | _ -> usage ())
    | "--wall-threshold" :: pct :: rest -> (
        match float_of_string_opt pct with
        | Some pct when pct > 0.0 -> go { acc with wall_threshold = Some pct } rest
        | _ -> usage ())
    | "--quick" :: rest -> go { acc with quick = true } rest
    | "--only" :: group :: rest -> go { acc with only = acc.only @ [ group ] } rest
    | _ -> usage ()
  in
  go default (List.tl (Array.to_list Sys.argv))

let machine_mode cli =
  let report = report_of_run ~quick:cli.quick ~only:cli.only () in
  (match cli.json with
  | None -> ()
  | Some path ->
      Out_channel.with_open_text path (fun oc -> Bench_report.emit oc report);
      Printf.printf "bench: report written to %s (%d tests, %s mode)\n" path
        (List.length report.Bench_report.tests)
        report.Bench_report.mode);
  match cli.against with
  | None -> exit 0
  | Some path -> (
      match Bench_report.load path with
      | Error e ->
          Printf.eprintf "bench: cannot load baseline %s: %s\n" path e;
          exit 2
      | Ok baseline ->
          (* Quick runs gate only on allocations: wall estimates under a
             tiny quota are too noisy for any fence, while per-run minor
             words are deterministic.  Full runs also fence wall time,
             but loosely (default 3x the allocation threshold): on a
             shared host, identical binaries differ by 20-30%% wall
             between runs, so the wall fence only flags gross
             slowdowns. *)
          let wall_threshold =
            match cli.wall_threshold with
            | Some pct -> pct
            | None -> 3.0 *. cli.threshold
          in
          let regressions =
            Bench_report.compare ~wall_threshold ~words_threshold:cli.threshold
              ~gate_wall:(not cli.quick) ~gate_words:true ~baseline report
          in
          if regressions = [] then begin
            Printf.printf
              "bench: no regressions against %s (fences: words %.1f%%, wall %.1f%%)\n"
              path cli.threshold wall_threshold;
            exit 0
          end
          else begin
            List.iter (Bench_report.pp_verdict stderr) regressions;
            Printf.eprintf
              "bench: %d regression(s) against %s (fences: words %.1f%%, wall %.1f%%)\n"
              (List.length regressions) path cli.threshold wall_threshold;
            exit 1
          end)

let () =
  let cli = parse_cli () in
  if Option.is_some cli.json || Option.is_some cli.against then machine_mode cli
  else begin
    print_endline
      "=== Reproduction tables (quick scale; see EXPERIMENTS.md for full scale) ===";
    List.iter
      (fun (id, table) ->
        Printf.printf "--- %s ---\n%s\n" id (Stats.Table.to_string table))
      (Agreement.Repro.all ~scale:`Quick ());
    print_endline "=== Kernel micro-benchmarks (Bechamel, monotonic clock) ===";
    print_benchmarks ();
    print_newline ()
  end
