#!/usr/bin/env sh
# Run the three code-lint layers: the typed determinism pass (@lint,
# R1, R2, R5-R10 over lib bin bench examples; builds @check first so
# every *.cmt exists, executables' main modules included), the cost
# pass (@lint-cost, R11-R15, gated by lint/cost-baseline.tsv), and the
# symbolic quorum pass (@lint-quorum, R16-R18, gated by the
# deliberately empty lint/quorum-baseline.tsv and scoped away from the
# intentional lib/mcheck negative-control mutants).  Then re-emit the
# reports for tooling — JSON by default; extra arguments are forwarded
# to the CLI invocations instead (e.g. `scripts/lint.sh --format
# sarif`).  The cost and quorum invocations always carry their
# checked-in baselines.
set -eu
cd "$(dirname "$0")/.."
dune build @lint
dune build @lint-cost
dune build @lint-quorum
quorum_dirs="--dir lib/adversary --dir lib/core --dir lib/dsim \
  --dir lib/lowerbound --dir lib/prng --dir lib/protocols \
  --dir lib/shmem --dir lib/stats --dir lib/syncsim"
if [ "$#" -eq 0 ]; then
  dune exec bin/lint.exe -- --format json
  dune exec bin/lint.exe -- --cost --baseline lint/cost-baseline.tsv --format json
  # shellcheck disable=SC2086
  exec dune exec bin/lint.exe -- --quorum $quorum_dirs \
    --baseline lint/quorum-baseline.tsv --format json
else
  dune exec bin/lint.exe -- "$@"
  dune exec bin/lint.exe -- --cost --baseline lint/cost-baseline.tsv "$@"
  # shellcheck disable=SC2086
  exec dune exec bin/lint.exe -- --quorum $quorum_dirs \
    --baseline lint/quorum-baseline.tsv "$@"
fi
