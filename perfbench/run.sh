#!/bin/bash
# Build the benchmark from source, then run it with the given arguments
# (see perfbench/README.md).  Run from the root of the repository.  The
# dune cache stays off so that nothing is written outside the tree.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . ./perfbench/perf.exe 1>&2
exec ./_build/default/perfbench/perf.exe "$@"
