#!/usr/bin/env bash
# Build the benchmark from source, then run it with the given arguments:
#   bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the repository root. Dune's shared cache is disabled so the
# build reads and writes only inside this tree; build output goes to
# stderr, so the result JSON stays the last line of stdout.
set -euo pipefail
cd "$(dirname "$0")/.."
DUNE_CACHE=disabled dune build --root . --display quiet ./benchmark/prism_bench.exe 1>&2
exec ./_build/default/benchmark/prism_bench.exe "$@"
