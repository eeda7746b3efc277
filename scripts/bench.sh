#!/usr/bin/env bash
# Records one host-time result set: tta-benchmark (benchmark/) on every
# BENCHMARK.json workload, five runs each at seed 0 with both runtime
# checkers on, one result line per run in <dir>/<workload>.jsonl.
#
#   scripts/bench.sh <dir>
#
# scripts/ci.sh records results/bench-ci and fails when
# `tta-benchmark compare results/bench-baseline results/bench-ci` rates
# any end-to-end metric `regressed`.
#
# Five runs of one seed, so a set's spread is host noise, not the
# difference between the inputs of different seeds, and `compare`'s
# quartiles are not just the minimum and maximum (with fewer than two
# values it rates a set `unresolved`, which never fails). The runs go
# round-robin over the workloads, so each workload's runs are spread over
# the whole recording (about 3 minutes) instead of one half-minute spell of
# a shared host. Both checkers are on, so one set gates the simulator, the
# serve and fleet loops and the checkers' own host overhead.
#
# The committed baseline pools three recordings made at different times on
# the machine CI runs on, so its medians are that machine's typical speed
# rather than one quiet or busy spell. To re-baseline after a deliberate
# speed change:
#
#   for i in 1 2 3; do scripts/bench.sh results/bench-rec$i; done
#   for w in nbody3d raytrace index fleet; do
#       cat results/bench-rec?/$w.jsonl >results/bench-baseline/$w.jsonl
#   done
set -euo pipefail

[ $# -eq 1 ] || { echo "usage: scripts/bench.sh <dir>" >&2; exit 2; }
DIR="$1"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
WORKLOADS=(nbody3d raytrace index fleet)

cargo build --quiet --release --offline --manifest-path "$ROOT/benchmark/Cargo.toml"
mkdir -p "$DIR"
for workload in "${WORKLOADS[@]}"; do
    : >"$DIR/$workload.jsonl"
done
for run in 1 2 3 4 5; do
    for workload in "${WORKLOADS[@]}"; do
        echo "==> tta-benchmark --workload $workload --seed 0 --seconds 1 (checked, run $run of 5)"
        TTA_SHADOW_CHECK=1 TTA_RACE_CHECK=1 "$ROOT/benchmark/target/release/tta-benchmark" \
            --workload "$workload" --seed 0 --seconds 1 --trace 0 |
            tail -n 1 >>"$DIR/$workload.jsonl"
    done
done
