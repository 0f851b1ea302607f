#!/usr/bin/env sh
# Benchmark driver and regression gate (see docs/BENCHMARKS.md).
#
#   scripts/bench.sh                  full run, gate vs bench/BASELINE.json,
#                                     report archived as BENCH_<date>.json
#   scripts/bench.sh --quick          CI smoke: kernel groups only, tiny
#                                     quota, gate on allocations only
#   scripts/bench.sh --scaling        n-sweep scaling group only (the
#                                     docs/BENCHMARKS.md "Scaling
#                                     curves" tables, including the
#                                     window-make-uniform sweep and the
#                                     8-window windows-n1000-k8 run),
#                                     tiny quota, gate
#                                     on allocations only — wall time
#                                     at n = 10^4 is too host-dependent
#                                     to fence
#   scripts/bench.sh --record         full run, NO gate; rewrites
#                                     bench/BASELINE.json (use after an
#                                     intentional perf change, commit the
#                                     new baseline with it)
#   scripts/bench.sh --out FILE       override the report path
#   scripts/bench.sh --baseline FILE  override the baseline path
#   scripts/bench.sh --threshold PCT  override the 15% allocation fence
#   scripts/bench.sh --wall-threshold PCT
#                                     override the wall-time fence
#                                     (default 3x the allocation fence:
#                                     wall jitters 20-30% between
#                                     identical runs on a shared host,
#                                     so it only flags gross slowdowns)
#
# Exit codes (mirrors the lint CLI contract): 0 clean, 1 a named group
# regressed past the threshold, 2 usage/infrastructure error (bad flag,
# missing/undreadable baseline, build failure).
set -eu
cd "$(dirname "$0")/.."

quick=0
scaling=0
record=0
out=""
baseline="bench/BASELINE.json"
threshold="15"
wall_threshold=""

while [ $# -gt 0 ]; do
  case "$1" in
    --quick) quick=1 ;;
    --scaling) scaling=1 ;;
    --record) record=1 ;;
    --out)
      [ $# -ge 2 ] || { echo "bench.sh: --out needs a path" >&2; exit 2; }
      out=$2; shift ;;
    --baseline)
      [ $# -ge 2 ] || { echo "bench.sh: --baseline needs a path" >&2; exit 2; }
      baseline=$2; shift ;;
    --threshold)
      [ $# -ge 2 ] || { echo "bench.sh: --threshold needs a percentage" >&2; exit 2; }
      threshold=$2; shift ;;
    --wall-threshold)
      [ $# -ge 2 ] || { echo "bench.sh: --wall-threshold needs a percentage" >&2; exit 2; }
      wall_threshold=$2; shift ;;
    *) echo "bench.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
  shift
done

if ! dune build bench/main.exe 2>&2; then
  echo "bench.sh: build failed" >&2
  exit 2
fi

[ -n "$out" ] || out="BENCH_$(date +%Y-%m-%d).json"

# The quick smoke pins the kernel hot-path groups the tentpole perf
# work targets: window application (E1), the stepwise delivery loops
# (E3), the ensemble sweep (par-sweep) and the model checker's node
# expansion loop (modelcheck).  The scaling mode runs the n-sweep
# group instead; both reuse the binary's --quick so only the
# deterministic allocation fence gates.
if [ "$quick" = 1 ] && [ "$scaling" = 1 ]; then
  echo "bench.sh: --quick and --scaling are exclusive modes" >&2
  exit 2
fi
quick_args=""
if [ "$quick" = 1 ]; then
  quick_args="--quick --only E1 --only E3 --only par-sweep --only modelcheck"
elif [ "$scaling" = 1 ]; then
  quick_args="--quick --only scaling"
fi

bench="_build/default/bench/main.exe"

if [ "$record" = 1 ]; then
  "$bench" --json "$baseline" $quick_args
  echo "bench.sh: baseline recorded at $baseline (commit it)"
  exit 0
fi

if [ ! -r "$baseline" ]; then
  echo "bench.sh: baseline $baseline missing or unreadable; run scripts/bench.sh --record first" >&2
  exit 2
fi

wall_args=""
[ -z "$wall_threshold" ] || wall_args="--wall-threshold $wall_threshold"

set +e
"$bench" --json "$out" --against "$baseline" --threshold "$threshold" $wall_args $quick_args
status=$?
set -e
case "$status" in
  0) echo "bench.sh: ok — report at $out" ;;
  1) echo "bench.sh: FAIL — regression vs $baseline (report at $out)" >&2 ;;
  *) echo "bench.sh: error while benchmarking" >&2 ;;
esac
exit "$status"
