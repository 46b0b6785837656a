#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run it from the root of a tqueldb checkout.  Build output goes to
# stderr; the last line of stdout is the run's JSON result.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f perfbench/main.ml ]; then
  echo "perfbench: run from the root of a tqueldb checkout" >&2
  exit 2
fi

# The shared build cache is off so the build writes only inside the
# checkout.
DUNE_CACHE=disabled dune build --root . ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
