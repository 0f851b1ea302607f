#!/usr/bin/env sh
# The full CI gate: build everything, run the test suite (which
# includes all lint layers), re-run the typed, cost and quorum
# analyzers to emit SARIF reports, exercise the lint CLI's exit-code contract,
# then prove the parallel sweep engine's determinism contract end to
# end — the quick experiment tables at -j 2 must be byte-identical to
# -j 1.
set -eu
cd "$(dirname "$0")/.."

dune build @all
dune runtest

test_budget_s=90
echo "check: per-suite test time (budget ${test_budget_s} s total)"
# Each alcotest suite runs alone so its wall time can be attributed.
# Only the total is gated, at about twice the 39.5 s the whole suite
# took on a 2-core Intel Xeon when the budget was set; a suite that
# grows past its share shows up in the table first.
suite_times=$(mktemp)
for suite in $(cd _build/default/test && ./test_main.exe list | awk '{print $1}' | uniq); do
  start=$(date +%s%N)
  if ! (cd _build/default/test && ./test_main.exe test "^$suite\$") > /dev/null 2>&1; then
    echo "check: FAIL — test suite $suite failed when run alone" >&2
    rm -f "$suite_times"
    exit 1
  fi
  end=$(date +%s%N)
  echo "$suite $(( (end - start) / 1000000 ))" >> "$suite_times"
done
if sort -k2 -n -r "$suite_times" | awk -v budget="$test_budget_s" '
     { printf "  %-18s %7.2f s\n", $1, $2 / 1000; total += $2 }
     END { printf "  %-18s %7.2f s\n", "total", total / 1000;
           exit (total > budget * 1000) }'; then
  echo "check: test suites within the ${test_budget_s} s budget"
  rm -f "$suite_times"
else
  echo "check: FAIL — test suites took longer than ${test_budget_s} s in total" >&2
  rm -f "$suite_times"
  exit 1
fi

echo "check: qcheck properties under a fresh seed"
# dune runtest draws every property's cases from the fixed seed in
# test/test_seed.ml, so two runs agree; this rerun of the suites that
# hold properties draws a new seed each time, so the search for
# counterexamples goes on.  Replay a failure with
# QCHECK_SEED=<seed> dune runtest.
fresh_seed=$(od -An -N4 -tu4 /dev/urandom | tr -d ' ')
echo "check: QCHECK_SEED=$fresh_seed"
qcheck_out=$(mktemp)
if (cd _build/default/test && QCHECK_SEED=$fresh_seed ./test_main.exe test \
      'window|kernel-diff|properties|lint|symexpr|quorum-lint|par-sweep|mcheck|rbc|tally|lewko|ben-or') \
     > "$qcheck_out" 2>&1; then
  echo "check: qcheck properties hold under QCHECK_SEED=$fresh_seed"
  rm -f "$qcheck_out"
else
  tail -40 "$qcheck_out" >&2
  echo "check: FAIL — a qcheck property failed under QCHECK_SEED=$fresh_seed" >&2
  rm -f "$qcheck_out"
  exit 1
fi

echo "check: typed determinism lint (R1, R2, R5-R10) SARIF report"
dune build @lint
# Exit 1 here means a finding slipped past the alias; exit 2 means the
# cmt load itself failed.  Either way the gate fails, but we keep the
# SARIF file around for inspection.
if dune exec bin/lint.exe -- --format sarif > lint.sarif; then
  echo "check: typed tree clean, SARIF written to lint.sarif"
else
  echo "check: FAIL — typed lint reported findings or errors (see lint.sarif)" >&2
  exit 1
fi

echo "check: cost lint (R11-R15) SARIF report"
dune build @lint-cost
# Same contract as the typed stage: the baseline waives the justified
# inherently-O(n)-per-window findings; anything beyond it fails the
# gate but leaves the SARIF file behind.
if dune exec bin/lint.exe -- --cost --baseline lint/cost-baseline.tsv \
     --format sarif > lint-cost.sarif; then
  echo "check: hot path clean mod baseline, SARIF written to lint-cost.sarif"
else
  echo "check: FAIL — cost lint reported findings beyond lint/cost-baseline.tsv (see lint-cost.sarif)" >&2
  exit 1
fi

echo "check: quorum lint (R16-R18) SARIF report"
dune build @lint-quorum
# The alias scope excludes lib/mcheck (intentional negative-control
# mutants, gated below); the baseline is wired and deliberately empty,
# so any finding here is a real threshold-arithmetic regression.
quorum_dirs="--dir lib/adversary --dir lib/core --dir lib/dsim \
  --dir lib/lowerbound --dir lib/prng --dir lib/protocols \
  --dir lib/shmem --dir lib/stats --dir lib/syncsim --dir lib/par_sweep"
# shellcheck disable=SC2086
if dune exec bin/lint.exe -- --quorum $quorum_dirs \
     --baseline lint/quorum-baseline.tsv --format sarif > lint-quorum.sarif
then
  echo "check: quorum arithmetic proven (empty baseline), SARIF written to lint-quorum.sarif"
else
  echo "check: FAIL — quorum lint reported findings or errors (see lint-quorum.sarif)" >&2
  exit 1
fi

echo "check: quorum lint negative controls (!quorum mutants must be flagged)"
# The full-tree scan (lib/ including lib/mcheck, where the mutants'
# threshold declarations live) must report exactly the three registry
# mutants — each caught by all of R16 (quorum
# intersection), R17 (fault-set-met decide gate) and R18 (registry
# resilience bound) — and nothing else.  A mutant that scans clean
# means the analyzer lost precision; an extra finding means a sound
# protocol regressed.
quorum_json=$(mktemp)
set +e
dune exec bin/lint.exe -- --quorum --root . --format json > "$quorum_json"
quorum_exit=$?
set -e
if [ "$quorum_exit" -ne 1 ]; then
  echo "check: FAIL — full-tree --quorum exited $quorum_exit (want 1: mutant findings)" >&2
  rm -f "$quorum_json"
  exit 1
fi
for mutant in 'ben-or!quorum-1' 'bracha!quorum-t' 'rbc!quorum-t'; do
  for rule in R16 R17 R18; do
    if ! grep -q "\"rule\":\"$rule\",\"message\":\"$mutant:" "$quorum_json"; then
      echo "check: FAIL — $mutant not flagged by $rule in full-tree --quorum scan" >&2
      rm -f "$quorum_json"
      exit 1
    fi
  done
done
if grep -o '"path":"[^"]*"' "$quorum_json" | grep -v '"path":"lib/mcheck/model.ml"' \
     | grep -q .; then
  echo "check: FAIL — full-tree --quorum flagged a file other than the mutant registry" >&2
  grep -o '"path":"[^"]*"' "$quorum_json" | sort -u >&2
  rm -f "$quorum_json"
  exit 1
fi
rm -f "$quorum_json"
echo "check: all three !quorum mutants flagged (R16+R17+R18), sound tree clean"

echo "check: lint CLI exit-code matrix (all layers)"
fixture_dir=$(mktemp -d)
# Clean file: no violations at any layer.
cat > "$fixture_dir/clean.ml" <<'EOF'
let double x = 2 * x
let total xs = List.fold_left ( + ) 0 xs
EOF
# Violating file: ambient randomness (R1) plus a polymorphic compare at
# a non-immediate type (R7 under a lib/dsim path).
bad_dir=$(mktemp -d)
mkdir -p "$bad_dir/lib/dsim"
cat > "$bad_dir/lib/dsim/bad.ml" <<'EOF'
let flip () = Random.bool ()
let same (a : int list) b = a = b
EOF
# Unparsable file: every layer must report a scan error, not a finding.
cat > "$fixture_dir/broken.ml" <<'EOF'
let unclosed = (
EOF
expect() {
  want=$1; shift
  set +e
  "$@" > /dev/null 2>&1
  got=$?
  set -e
  if [ "$got" -ne "$want" ]; then
    echo "check: FAIL — expected exit $want from: $*, got $got" >&2
    exit 1
  fi
}
lint="_build/default/bin/lint.exe"
# --check runs every layer on a standalone file: 0 clean / 1 violation
# / 2 error (the R7 hit needs the lib/dsim-scoped path).
expect 0 "$lint" --check "$fixture_dir/clean.ml"
expect 1 "$lint" --check "$bad_dir/lib/dsim/bad.ml"
expect 2 "$lint" --check "$fixture_dir/broken.ml"
expect 1 "$lint" --check "$bad_dir/lib/dsim/bad.ml" --format sarif
# Default (typed determinism) pass: a cmt-less directory is the error
# case.
expect 2 "$lint" --root "$fixture_dir"
# Cost layer: a quorum re-scan reachable from a Protocol.t transition
# field (R13) under a protocol-scoped path; a cmt-less directory is
# the cost error case.
cost_bad_dir=$(mktemp -d)
mkdir -p "$cost_bad_dir/lib/protocols"
cat > "$cost_bad_dir/lib/protocols/rescan.ml" <<'EOF'
module Int_map = Map.Make (Int)

module Protocol = struct
  type t = { on_deliver : bool Int_map.t -> int }
end

let handle tallies =
  Int_map.fold (fun _ v acc -> if v then acc + 1 else acc) tallies 0

let _p = { Protocol.on_deliver = handle }
EOF
expect 1 "$lint" --check "$cost_bad_dir/lib/protocols/rescan.ml"
expect 2 "$lint" --cost --root "$fixture_dir"
# Cost layer, continued: a hot recursive function whose every site is
# O(1) — R11's blind spot, caught by R15 via --check.  Quorum layer:
# the full-tree scan exits 1 on the intentional mutants, the
# alias-scoped scan exits 0, and a cmt-less root is the error case.
quorum_bad_dir=$(mktemp -d)
mkdir -p "$quorum_bad_dir/lib/protocols"
cat > "$quorum_bad_dir/lib/protocols/drain.ml" <<'EOF'
module Protocol = struct
  type t = { on_deliver : int list -> int }
end

let rec drain = function [] -> 0 | _ :: rest -> 1 + drain rest
let _p = { Protocol.on_deliver = drain }
EOF
expect 1 "$lint" --check "$quorum_bad_dir/lib/protocols/drain.ml"
expect 1 "$lint" --quorum --root .
# shellcheck disable=SC2086
expect 0 "$lint" --quorum --root . $quorum_dirs \
  --baseline lint/quorum-baseline.tsv
expect 2 "$lint" --quorum --root "$fixture_dir"
rm -rf "$fixture_dir" "$bad_dir" "$cost_bad_dir" "$quorum_bad_dir"
echo "check: exit-code matrix ok (0 clean / 1 findings / 2 errors)"

echo "check: bench exit-code matrix + --quick regression smoke"
# scripts/bench.sh mirrors the lint CLI contract: 0 clean, 1 a named
# group regressed past the threshold, 2 usage/infrastructure error.
expect 2 ./scripts/bench.sh --no-such-flag
expect 2 ./scripts/bench.sh --quick --baseline /nonexistent/BASELINE.json
expect 2 ./scripts/bench.sh --quick --scaling
# A row whose baseline allocates nothing must still fail the words
# fence once it allocates (rbc-fanout-n7 allocates on every run).
zero_baseline=$(mktemp)
cat > "$zero_baseline" <<'EOF'
{"schema": "agreement-bench/1", "mode": "full",
 "tests": {"agreement/E3/rbc-fanout-n7": {"minor-allocated-words": 0.0}}}
EOF
expect 1 _build/default/bench/main.exe --quick --only E3 --against "$zero_baseline"
rm -f "$zero_baseline"
bench_out=$(mktemp)
if ./scripts/bench.sh --quick --out "$bench_out"; then
  echo "check: quick bench within threshold of bench/BASELINE.json"
else
  echo "check: FAIL — kernel hot-path groups regressed vs bench/BASELINE.json" >&2
  rm -f "$bench_out"
  exit 1
fi
rm -f "$bench_out"

echo "check: n-sweep scaling gate (allocation fence only)"
# The lazy-broadcast rewrite's headline claim — uniform sends allocate
# O(1) at emission — is pinned by the scaling group's minor-words
# baseline; a fan-out regression shows up here as an allocation jump.
# The same fence holds the RBC receive (rbc-echo-admit-*, logarithmic
# in n) and Bracha's first window (bracha-window-*) to their classes.
bench_out=$(mktemp)
if ./scripts/bench.sh --scaling --out "$bench_out"; then
  echo "check: scaling group within allocation fence of bench/BASELINE.json"
else
  echo "check: FAIL — scaling group regressed vs bench/BASELINE.json" >&2
  rm -f "$bench_out"
  exit 1
fi
rm -f "$bench_out"

echo "check: --mcheck smoke (exhaustive model checker)"
# bin/mcheck.exe mirrors the lint CLI contract: 0 = every reachable
# configuration within the bounds is safe, 1 = a violation (the mutants
# MUST hit this), 2 = usage or infeasible instance.
mcheck="_build/default/bin/mcheck.exe"
expect 0 "$mcheck" --protocol bracha -n 3 -t 1 --depth 3
# --audit runs Trace_lint over every candidate's recorded trace.
expect 0 "$mcheck" --protocol bracha -n 3 -t 1 --depth 3 --audit
expect 1 "$mcheck" --protocol ben-or!quorum-1 -n 3 -t 1 --depth 2 --corrupt 1
expect 1 "$mcheck" --protocol rbc!quorum-t -n 3 -t 1 --depth 3 --corrupt 1
expect 2 "$mcheck" --protocol no-such-protocol -n 3 -t 1
expect 2 "$mcheck" --protocol lewko -n 3 -t 1   # infeasible: lewko needs t < n/6
expect 2 "$mcheck" --protocol bracha -n 3 -t 1 --corrupt 2  # corrupt > t
# Malformed arguments are usage errors too, not cmdliner's 124.
expect 2 "$mcheck" --protocol bracha -n 3 -t 1 --format xml
expect 2 "$mcheck" --protocol bracha -n 3 -t 1 --order dfs  # no such flag
expect 2 "$mcheck" --protocol bracha -n notint -t 1
echo "check: mcheck exit-code matrix ok (0 safe / 1 violation / 2 error)"

echo "check: agreement_cli exit codes and trace rendering"
# Same contract as mcheck: 0 = the run finished, 2 = usage error or
# infeasible parameters, never cmdliner's 124/125.
cli="_build/default/bin/agreement_cli.exe"
expect 0 "$cli" -p bracha -a benign -n 4 -t 1 --inputs 0110
expect 2 "$cli" -a nosuch
# Adversary names come from Adversary.Registry, one list per
# discipline: a name of the other discipline is a usage error.
expect 2 "$cli" -p bracha -a silence
expect 2 "$cli" -p lewko -a crash-late
expect 0 "$cli" -p lewko -a silence-first-t -n 7 -t 1
expect 0 "$cli" -a reset+silence
expect 2 "$cli" -n 0
expect 2 "$cli" -n 5 -t 9
expect 2 "$cli" -n 3 -t 0 --inputs 0101
expect 2 "$cli" -n -3
expect 2 "$cli" -n 3 -t 0 --inputs 01x
expect 2 "$cli" --budget=-1
expect 2 "$cli" --sweep=-1
expect 2 "$cli" --sweep 2 -j 0
# Byzantine corruption rewrites one destination of a broadcast in
# place (a payload override): end-to-end smokes of that path.
expect 0 "$cli" -p bracha -a byz-flip -n 7 -t 2
expect 0 "$cli" -p bracha -a byz-equivocate -n 7 -t 2
expect 0 _build/default/examples/byzantine_split.exe
# --trace prints JSON Lines, the one event rendering: its event lines
# must be exactly the events --json writes after the summary line.
trace_dir=$(mktemp -d)
"$cli" -p lewko -a reset-random -n 7 -t 1 --trace --json "$trace_dir/trace.jsonl" \
  > "$trace_dir/stdout"
grep '^{' "$trace_dir/stdout" > "$trace_dir/printed"
tail -n +2 "$trace_dir/trace.jsonl" > "$trace_dir/written"
if [ -s "$trace_dir/printed" ] && cmp -s "$trace_dir/printed" "$trace_dir/written"; then
  echo "check: --trace prints the $(wc -l < "$trace_dir/printed") event lines --json writes"
else
  echo "check: FAIL — --trace output differs from the --json event lines" >&2
  diff "$trace_dir/printed" "$trace_dir/written" | head -20 >&2 || true
  rm -rf "$trace_dir"
  exit 1
fi
rm -rf "$trace_dir"

# The pinned deep counterexample: the all-quorums-at-t Bracha mutant
# must conflict on the 9-window equivocation replay, and sound Bracha
# must survive the identical schedule.
expect 1 "$mcheck" --protocol bracha!quorum-t -n 3 -t 1 --corrupt 1 \
  --inputs 010 --replay "3;3;3;3;3;3;3;3;3"
expect 0 "$mcheck" --protocol bracha -n 3 -t 1 --corrupt 1 \
  --inputs 010 --replay "3;3;3;3;3;3;3;3;3"
echo "check: pinned bracha!quorum-t counterexample replays deterministically"

# Frontier sharding determinism: the explorer's JSON report (which
# includes the canonical state census and the minimal counterexample)
# must be byte-identical across -j 1 / -j 2, with and without the
# per-candidate trace audit.
mcheck_dir=$(mktemp -d)
"$mcheck" --protocol rbc!quorum-t -n 3 -t 1 --depth 3 --corrupt 1 \
  --jobs 1 --format json > "$mcheck_dir/rbc-j1.json" || true
"$mcheck" --protocol rbc!quorum-t -n 3 -t 1 --depth 3 --corrupt 1 \
  --jobs 2 --format json > "$mcheck_dir/rbc-j2.json" || true
"$mcheck" --protocol bracha -n 3 -t 1 --depth 3 --audit \
  --jobs 1 --format json > "$mcheck_dir/audit-j1.json" || true
"$mcheck" --protocol bracha -n 3 -t 1 --depth 3 --audit \
  --jobs 2 --format json > "$mcheck_dir/audit-j2.json" || true
for run in rbc audit; do
  if cmp -s "$mcheck_dir/$run-j1.json" "$mcheck_dir/$run-j2.json"; then
    echo "check: mcheck -j 1 and -j 2 reports are byte-identical ($run)"
  else
    echo "check: FAIL — mcheck frontier sharding is not deterministic ($run)" >&2
    diff "$mcheck_dir/$run-j1.json" "$mcheck_dir/$run-j2.json" >&2 || true
    rm -rf "$mcheck_dir"
    exit 1
  fi
done
rm -rf "$mcheck_dir"

echo "check: differential -j smoke (experiments --quick)"
out_dir=$(mktemp -d)
trap 'rm -rf "$out_dir"' EXIT
dune exec bin/experiments.exe -- --quick -j 1 -m > "$out_dir/j1.md"
dune exec bin/experiments.exe -- --quick -j 2 -m > "$out_dir/j2.md"
if cmp -s "$out_dir/j1.md" "$out_dir/j2.md"; then
  echo "check: -j 1 and -j 2 outputs are byte-identical"
else
  echo "check: FAIL — parallel sweep output differs from sequential" >&2
  diff "$out_dir/j1.md" "$out_dir/j2.md" >&2 || true
  exit 1
fi
echo "check: all green"
