#!/bin/sh
# Builds the end-to-end benchmark from this checkout's sources and runs
# it; every argument goes to e2e.exe.  Run from the repository root:
#
#   sh bench/e2e/run.sh --workload ring32-reliable --seed 0 --seconds 10 --trace 0
#
# dune's own output goes to stderr, so the last line on stdout is the
# benchmark's JSON result.  The build lives in .bench_build (ignored by
# git) with dune's shared cache off, so nothing is written outside the
# checkout.  Without the repository's sources next to this directory
# the build fails and the script exits non-zero without a result.
set -eu
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "run.sh: run from the root of a cliffedge checkout (no dune-project and lib/ here)" >&2
  exit 2
fi
DUNE_CACHE=disabled dune build --root . --build-dir .bench_build --display quiet -j 2 \
  ./bench/e2e/e2e.exe 1>&2
exec ./.bench_build/default/bench/e2e/e2e.exe "$@"
