#!/usr/bin/env sh
# End-to-end agreement benchmark: builds bench/e2e/main.exe from source
# and runs it with the given arguments (see bench/e2e/README.md).
# Exit codes: 0 clean, 1 an output check failed, 2 usage or build error.
set -eu
cd "$(dirname "$0")/../.."
if ! DUNE_CACHE=disabled dune build --root . ./bench/e2e/main.exe 1>&2; then
  echo "run.sh: build failed" >&2
  exit 2
fi
exec ./_build/default/bench/e2e/main.exe "$@"
