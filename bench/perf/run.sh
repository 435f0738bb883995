#!/bin/sh
# Builds and runs the performance benchmark from the root of a checkout:
#   sh bench/perf/run.sh --workload sweep --seed 1 --seconds 8 --trace 0
# The compiler's temporary files go to _bench/tmp, so a run writes nothing
# outside the checkout, and the shared dune cache is not used.
mkdir -p _bench/tmp
TMPDIR="$PWD/_bench/tmp" exec dune exec --root . --cache disabled --display quiet \
  bench/perf/perf.exe -- "$@"
