#!/bin/sh
# Reads perfbench's output on stdin and prints, one "name value" line
# each, the simulated metrics that a wall-clock optimisation must leave
# bit identical: attempted, failed, sim_qph, sim_latency_p50_s,
# sim_latency_p99_s and sim_ok_share. Values are copied as printed, so
# the check compares bytes, not parsed floats. Usage:
#   dune exec --root . ./perfbench/bench.exe -- --workload W --seed S \
#     --seconds 7 --trace 0 | sh test/bench_sim/sim_metrics.sh \
#     | diff -u test/bench_sim/W-S.expected -
set -eu
tail -n 1 | grep -oE \
  '"(attempted|failed)": [^,}]+|"(sim_qph|sim_latency_p50_s|sim_latency_p99_s|sim_ok_share)": \{"value": [^,}]+' |
  sed -E 's/^"([a-z0-9_]+)": (\{"value": )?/\1 /'
