#!/usr/bin/env bash
# Build (on first use) and run the benchmark from the repository root:
#
#   bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Every argument goes to cesrm_bench.exe. --root pins the dune project
# to the current directory, and the shared dune cache stays off, so a
# run reads and writes only inside the checkout.
exec dune exec --root . --cache=disabled --display quiet -- ./benchmark/cesrm_bench.exe "$@"
