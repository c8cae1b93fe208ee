#!/bin/sh
# Builds the benchmark driver and the dsd daemon from source, then runs
# the driver from the repository root with the arguments given, e.g.
#
#   sh perfbench/run.sh --workload cds --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr; the driver's last stdout line is the
# JSON result.  The build lands in .bench_build and does not use the
# shared dune cache, so nothing is written outside the checkout.
set -e
cd "$(dirname "$0")/.."
DUNE_CACHE=disabled dune build --root . --build-dir .bench_build \
  --profile release ./perfbench/main.exe ./bin/dsd.exe 1>&2
exec .bench_build/default/perfbench/main.exe \
  --dsd .bench_build/default/bin/dsd.exe "$@"
