(* Parallel sweeps: run the same seed ensemble sequentially and on the
   recommended number of domains, check the results are bit-identical,
   and report the wall-clock ratio.

     dune exec examples/parallel_sweep.exe

   The determinism contract (docs/PARALLELISM.md) is what makes the -j
   flags on experiments.exe and agreement_cli.exe safe: jobs changes
   only elapsed time, never a single output bit. *)

let n = 9
let seed_count = 48

let spec =
  {
    Agreement.Ensemble.n;
    t = 1;
    inputs = Agreement.Ensemble.split_inputs ~n;
    max_windows = 30_000;
    max_steps = 0;
    stop = `First_decision;
  }

let sweep ~jobs =
  Agreement.Ensemble.run_windowed ~jobs
    ~protocol:(Protocols.Lewko_variant.protocol ())
    ~strategy:(fun _seed -> Adversary.Split_vote.windowed ())
    ~spec
    ~seeds:(List.init seed_count (fun i -> i + 1))
    ()

let timed f =
  let start = Unix.gettimeofday () in
  let result = f () in
  (result, Unix.gettimeofday () -. start)

let () =
  let jobs = Par_sweep.default_jobs () in
  Format.printf "sweeping %d seeds (n = %d, balancing adversary)@." seed_count n;
  let sequential, seq_time = timed (fun () -> sweep ~jobs:1) in
  let parallel, par_time = timed (fun () -> sweep ~jobs) in
  Format.printf "sequential: %.3fs@." seq_time;
  Format.printf "jobs = %d:  %.3fs (%.2fx)@." jobs par_time
    (seq_time /. par_time);
  Format.printf "bit-identical: %b@."
    (Agreement.Ensemble.equal_result sequential parallel);
  Format.printf "@[<v>%a@]@." Agreement.Ensemble.pp_result parallel;
  if not (Agreement.Ensemble.equal_result sequential parallel) then exit 1
