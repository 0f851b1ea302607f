#!/usr/bin/env sh
# A/B comparison of the end-to-end benchmark: a git revision against
# the working tree.
#
#   scripts/ab.sh REV [--pairs N] [--seconds T] [--workload W]...
#                     [--dir DIR]
#
# Both sides are exported the same way, with `git archive`, into
# sibling plain trees: REV into DIR/base, the working tree into
# DIR/change (its tracked files as they are on disk, staged or not, via
# `git stash create`; a new file counts once it is `git add`ed).  Each
# side runs its own, unchanged `bench/e2e/run.sh --workload W --seed S
# --seconds T --trace 0`, which builds that side from its source.  For
# every workload the two sides alternate N times: pair i (from 0) runs
# seed S = 101 + i on both sides, and even pairs run REV first, odd
# pairs the working tree first, so drift on the host falls on both
# sides alike.
# The working tree is exported once, at the start, so editing it while
# the comparison runs changes nothing.
#
# Output: per workload and end-to-end metric (as declared in
# BENCHMARK.json), the median and quartiles (Python's
# statistics.quantiles(n=4)) of each side, the change of the medians,
# and in how many pairs the working tree was better, worse or equal.
# Every run's result line is kept in DIR/runs.jsonl.
#
# Defaults: 10 pairs, 15 s per run, all workloads, DIR a
# fresh directory under ${TMPDIR:-/tmp}.  Five workloads at the
# defaults take about half an hour.
#
# Exit codes: 0 done, 1 a run failed an output check, 2 usage, export
# or build error.
set -eu
cd "$(dirname "$0")/.."
repo=$(pwd)

usage() {
  echo "usage: scripts/ab.sh REV [--pairs N] [--seconds T] [--workload W]... [--dir DIR]" >&2
  exit 2
}

[ $# -ge 1 ] || usage
rev=$1
shift
pairs=10
seconds=15
workloads=""
dir=""
while [ $# -gt 0 ]; do
  case "$1" in
    --pairs) [ $# -ge 2 ] || usage; pairs=$2; shift 2 ;;
    --seconds) [ $# -ge 2 ] || usage; seconds=$2; shift 2 ;;
    --workload) [ $# -ge 2 ] || usage; workloads="$workloads $2"; shift 2 ;;
    --dir) [ $# -ge 2 ] || usage; dir=$2; shift 2 ;;
    *) usage ;;
  esac
done
case "$pairs" in '' | *[!0-9]*) usage ;; esac
[ "$pairs" -ge 1 ] || usage

if ! git rev-parse --verify --quiet "$rev^{commit}" > /dev/null; then
  echo "ab.sh: unknown revision $rev" >&2
  exit 2
fi
[ -n "$dir" ] || dir=$(mktemp -d "${TMPDIR:-/tmp}/ab.XXXXXX")
mkdir -p "$dir"
# A commit of the working tree's tracked files; empty when it is clean.
tree=$(git stash create)
[ -n "$tree" ] || tree=HEAD

# export COMMIT DEST: a plain tree, nothing registered in .git.
export_tree() {
  rm -rf "$2"
  mkdir -p "$2"
  if ! git archive "$1" | tar -x -C "$2"; then
    echo "ab.sh: could not export $1" >&2
    exit 2
  fi
}
base="$dir/base"
change="$dir/change"
export_tree "$rev" "$base"
export_tree "$tree" "$change"
[ -n "$workloads" ] ||
  workloads=$(python3 -c 'import json,sys; print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' \
    "$repo/BENCHMARK.json")

runs="$dir/runs.jsonl"
: > "$runs"
status=0

# One run: appends {"side", "workload", "pair", "result"} to runs.jsonl.
run_side() {
  side=$1 root=$2 workload=$3 pair=$4
  set +e
  (cd "$root" && sh bench/e2e/run.sh --workload "$workload" --seed $((101 + pair)) \
     --seconds "$seconds" --trace 0 > "$dir/last.out" 2> "$dir/last.err")
  code=$?
  set -e
  if [ "$code" -eq 1 ]; then
    echo "ab.sh: $side run of $workload (seed $((101 + pair))) failed an output check" >&2
    status=1
  elif [ "$code" -ne 0 ]; then
    cat "$dir/last.err" >&2
    echo "ab.sh: $side run of $workload failed (exit $code)" >&2
    exit 2
  fi
  printf '{"side": "%s", "workload": "%s", "pair": %d, "result": %s}\n' \
    "$side" "$workload" "$pair" "$(tail -1 "$dir/last.out")" >> "$runs"
}

for workload in $workloads; do
  i=0
  while [ "$i" -lt "$pairs" ]; do
    echo "ab.sh: $workload pair $((i + 1))/$pairs" >&2
    if [ $((i % 2)) -eq 0 ]; then
      run_side base "$base" "$workload" "$i"
      run_side change "$change" "$workload" "$i"
    else
      run_side change "$change" "$workload" "$i"
      run_side base "$base" "$workload" "$i"
    fi
    i=$((i + 1))
  done
done

python3 - "$repo/BENCHMARK.json" "$runs" "$rev" <<'EOF'
import json, statistics, sys

bench = json.load(open(sys.argv[1]))
runs = [json.loads(line) for line in open(sys.argv[2])]
rev = sys.argv[3]

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3

print(f"A/B: {rev} (base) vs working tree (change); wins = pairs where the change is better")
print(f"{'workload':24} {'metric':22} {'base median [q1, q3]':>34} {'change median [q1, q3]':>34} {'delta':>8}  wins/losses/ties")
workloads = []
for r in runs:
    if r["workload"] not in workloads:
        workloads.append(r["workload"])
for w in workloads:
    by_pair = {}
    for r in runs:
        if r["workload"] == w:
            by_pair.setdefault(r["pair"], {})[r["side"]] = r["result"]
    pairs = [p for p in sorted(by_pair) if len(by_pair[p]) == 2]
    failed = sum(by_pair[p][s]["failed"] for p in pairs for s in ("base", "change"))
    for m in bench["end_to_end"]:
        name, higher = m["name"], m["better"] == "higher"
        base = [by_pair[p]["base"]["metrics"][name]["value"] for p in pairs]
        change = [by_pair[p]["change"]["metrics"][name]["value"] for p in pairs]
        wins = sum((c > b) if higher else (c < b) for b, c in zip(base, change))
        ties = sum(c == b for b, c in zip(base, change))
        bq, cq = quartiles(base), quartiles(change)
        delta = (cq[1] / bq[1] - 1) * 100 if bq[1] else float("inf")
        fmt = lambda q: f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"
        print(f"{w:24} {name:22} {fmt(bq):>34} {fmt(cq):>34} {delta:+7.2f}%  {wins}/{len(pairs) - wins - ties}/{ties}")
    if failed:
        print(f"{w:24} failed executions: {failed}")
EOF
echo "ab.sh: runs kept in $runs" >&2
exit "$status"
