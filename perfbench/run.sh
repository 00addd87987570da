#!/usr/bin/env bash
# Builds the benchmark from source, then runs it with the given arguments:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the root of a checkout of the repository.
set -euo pipefail
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f BENCHMARK.json ]; then
  echo "perfbench: run from the root of a checkout of the repository" >&2
  exit 2
fi
dune build --root . ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
