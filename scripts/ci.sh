#!/usr/bin/env bash
# CI gate for the tta-repro workspace.
#
# Everything here must pass before merging:
#   1. cargo fmt --check       — formatting
#   2. cargo clippy -D warnings — lints, workspace-wide including bins/tests
#   3. tta-lint               — static analysis over every shipped μop
#      program, workload kernel, and pipeline (nonzero exit on any
#      error-severity diagnostic), including the abstract-interpretation
#      proving passes (mem-safety, simt-stack-bound, loop-termination,
#      terminate-reachable, race-freedom); also smokes the --json output
#      mode. race-freedom runs under --deny: even warning-severity
#      PossibleRace findings fail the gate, because the shipped kernels
#      are supposed to be *proved* race-free, not merely un-disproved
#   4. cargo build --release && cargo test  — the tier-1 gate
#   5. cargo test --workspace  — every crate's unit/integration/doc tests
#      (including the golden-trace and trace-invariant suites in
#      tta-trace, and the shadow-checked soundness suite in
#      tta-workloads), then the host-time benchmark's own suite
#      (benchmark/ is a separate workspace): its instrumented session and
#      service drive must write the same journal bytes as plain run(),
#      and its seed-0 rows must match results/fig13.journal.json
#   6. --quick smoke runs of the sweep binaries (fig15, the serving grid,
#      and the fleet cluster grid — the latter two assert their own
#      batching/routing claims internally), checking that each run
#      journal lands under results/
#   7. traced --quick sweeps (fig13 and the fleet grid), with every
#      emitted Chrome trace validated by the tta-trace-check binary
#   8. the snapshot/restore smoke: a cold --quick fig13 populates a
#      snapshot store, a warm --resume rerun restores every run's final
#      state without re-simulating, and the two journals must be
#      byte-identical; then tta-snap-bisect --diff proves real points
#      (B-Tree on TTA, RT and N-Body on TTA+, RTNN on the RTA) restore
#      and replay byte-identically at every step boundary
#   9. a shadow- and race-checked --quick fig13 sweep (TTA_SHADOW_CHECK=1
#      TTA_RACE_CHECK=1): the runtime soundness gate asserting every
#      register value and SIMT stack depth stays inside its static
#      abstraction, and that no two warps conflict on a global-memory
#      word within a launch
#  10. the perf-trajectory gates: BENCH_fig13.json and BENCH_fleet.json
#      must parse against their schema; the wall-clock of step 9 must not
#      regress more than 25% against the latest committed quick-shadow
#      fig13 entry, and the untraced fleet smoke of step 6 not more than
#      100% against the latest committed quick fleet entry (the fleet
#      check runs inline after its smoke, before tracing overwrites the
#      timing sidecar; record new entries with scripts/bench.sh)
#
# Offline-registry fallback: this workspace has NO crates.io dependencies —
# every dependency is a path dependency inside the workspace (the `rand`
# API is provided by crates/rand-shim). If the environment has no network
# access to a registry, pass --offline (or set CARGO_NET_OFFLINE=true) and
# everything below still works:
#
#   CARGO_NET_OFFLINE=true scripts/ci.sh
#
# The script forwards any extra arguments (e.g. --offline) to every cargo
# invocation.

set -euo pipefail
cd "$(dirname "$0")/.."

CARGO_FLAGS=("$@")
if [ "${CARGO_NET_OFFLINE:-}" = "true" ]; then
    CARGO_FLAGS+=(--offline)
fi

run() {
    echo "==> $*"
    "$@"
}

run cargo fmt --all -- --check
run cargo clippy "${CARGO_FLAGS[@]}" --workspace --all-targets -- -D warnings

# Static analysis: every shipped Table III program, workload kernel, and
# Listing-1 pipeline must produce zero error-severity diagnostics across
# all passes, including the abstract-interpretation provers. The
# race-freedom pass is additionally held to zero *warnings* via --deny:
# a PossibleRace on a shipped kernel means the proof didn't go through.
# The cost-model passes (kernel-divergence, kernel-coalescing,
# kernel-cost) run under --deny for the same reason: a shipped kernel
# must have a *proved* finite cycle bound and no provable divergence or
# misalignment defects. (A global --deny-warnings is deliberately not
# used — the register-pressure and possibly-OOB mem-safety warnings are
# intentional, documented, and asserted by the lint test suite.) The
# --json smoke checks the machine-readable output stays one object per
# line.
run cargo run "${CARGO_FLAGS[@]}" -p tta-lint --bin tta-lint -- --deny race-freedom \
    --deny kernel-divergence --deny kernel-coalescing --deny kernel-cost
# The banner must be printed outside the pipeline: `run` echoes to
# stdout, and inside the pipe that echo would reach the JSON validator
# as a bogus first line.
echo "==> cargo run -q -p tta-lint --bin tta-lint -- --json (line format check)"
cargo run "${CARGO_FLAGS[@]}" -q -p tta-lint --bin tta-lint -- --json | {
    while IFS= read -r line; do
        case "$line" in
            '{"severity":'*'}') ;;
            *) echo "bad --json line: $line" >&2; exit 1;;
        esac
    done
}

# Static cost report: journal the cost model's predictions for the whole
# shipped inventory, and prove the journal byte-identical at two thread
# counts (the determinism contract every journal in this repo carries).
# The *soundness* of the predictions — measured cycles inside the static
# bounds on all five workloads x platforms, coalescing classes matching
# measured transaction counters — is gated by the cost_gate integration
# suite inside the workspace test run below.
run cargo run "${CARGO_FLAGS[@]}" -p tta-lint --bin tta-cost -- --threads 1 --out results/tta-cost.journal.json
run cargo run "${CARGO_FLAGS[@]}" -q -p tta-lint --bin tta-cost -- --threads 4 --out results/tta-cost.threads4.json --quiet
run cmp results/tta-cost.journal.json results/tta-cost.threads4.json
rm -f results/tta-cost.threads4.json
# The regenerated report must also equal the committed one, so a model
# change cannot silently overwrite it.
run git diff --exit-code -- results/tta-cost.journal.json

# Tier-1: exactly what the repository gate runs.
run cargo build "${CARGO_FLAGS[@]}" --release
run cargo test "${CARGO_FLAGS[@]}" -q

# Full workspace test suite (includes the harness determinism test:
# byte-identical journals at 1 vs 4 sweep threads).
run cargo test "${CARGO_FLAGS[@]}" --workspace -q

# The benchmark's own tests: a separate workspace, built by path against
# the crates above. Its transparency suite pins the journal bytes of the
# instrumented session/service drive to plain run().
run cargo test "${CARGO_FLAGS[@]}" --release --manifest-path benchmark/Cargo.toml

# Smoke one sweep binary and verify the journal appears.
run cargo run "${CARGO_FLAGS[@]}" --release -p tta-bench --bin fig15 -- --quick --threads 2
test -s results/fig15.journal.json || { echo "missing results/fig15.journal.json" >&2; exit 1; }
test -s results/fig15.timing.json || { echo "missing results/fig15.timing.json" >&2; exit 1; }

# Smoke the online-serving grid (the binary itself asserts that continuous
# batching beats size-triggered batching on p99 at the saturating arrival
# rate) and verify its journal appears.
run cargo run "${CARGO_FLAGS[@]}" --release -p tta-bench --bin serve -- --quick --threads 2
test -s results/serve.journal.json || { echo "missing results/serve.journal.json" >&2; exit 1; }
test -s results/serve.timing.json || { echo "missing results/serve.timing.json" >&2; exit 1; }

# Smoke the fleet cluster grid (the binary asserts power-of-two-choices
# beats round-robin on p99 on every backend, locality routing beats JSQ
# under a shard-miss penalty, per-device horizon conservation, and that
# the autoscale row pays real cold starts) and verify its journal
# appears. The timing sidecar feeds the fleet perf gate below.
run cargo run "${CARGO_FLAGS[@]}" --release -p tta-bench --bin fleet -- --quick --threads 2
test -s results/fleet.journal.json || { echo "missing results/fleet.journal.json" >&2; exit 1; }
test -s results/fleet.timing.json || { echo "missing results/fleet.timing.json" >&2; exit 1; }

# Fleet perf-trajectory gate: checked here, before the traced rerun
# below overwrites the timing sidecar with tracing overhead. The 100%
# margin reflects the grid's small absolute wall-clock (tens of
# milliseconds, where scheduler jitter under CI load is a large
# relative effect) — this gate exists to catch gross cluster-loop
# regressions (an accidentally quadratic router or admission scan),
# which overshoot 2x immediately.
run cargo run "${CARGO_FLAGS[@]}" --release -q -p tta-bench --bin bench_gate -- validate BENCH_fleet.json
run cargo run "${CARGO_FLAGS[@]}" --release -q -p tta-bench --bin bench_gate -- \
    check BENCH_fleet.json --mode quick --timing results/fleet.timing.json --max-regress 1.0

# Trace smoke: rerun the Fig. 13 sweep with tracing on and validate every
# emitted Chrome trace (schema, span nesting, async balance, monotone SM
# stamps) with the checker binary.
rm -rf results/trace-smoke
run cargo run "${CARGO_FLAGS[@]}" --release -p tta-bench --bin fig13 -- --quick --threads 2 --trace results/trace-smoke
ls results/trace-smoke/*.trace.json >/dev/null 2>&1 || { echo "no traces under results/trace-smoke" >&2; exit 1; }
run cargo run "${CARGO_FLAGS[@]}" --release -p tta-trace --bin tta-trace-check -- results/trace-smoke/*.trace.json

# Fleet trace smoke: rerun the cluster grid with tracing on and validate
# the cluster-level timelines (router decisions, per-device batch spans,
# per-query wait/service async spans) the same way.
rm -rf results/trace-smoke-fleet
run cargo run "${CARGO_FLAGS[@]}" --release -p tta-bench --bin fleet -- --quick --threads 2 --trace results/trace-smoke-fleet
ls results/trace-smoke-fleet/*.trace.json >/dev/null 2>&1 || { echo "no traces under results/trace-smoke-fleet" >&2; exit 1; }
run cargo run "${CARGO_FLAGS[@]}" --release -p tta-trace --bin tta-trace-check -- results/trace-smoke-fleet/*.trace.json

# Snapshot/restore smoke: the cold pass simulates and saves every run's
# final state under results/snap-smoke; the warm --resume pass restores
# instead of simulating and must write the byte-identical journal. The
# bisect tool's --diff self-check then proves real points restore and
# replay byte-identically at every step boundary: B-Tree on TTA, plus the
# accelerator layouts (ray tracing and N-Body on TTA+, RTNN on the RTA).
rm -rf results/snap-smoke
run cargo run "${CARGO_FLAGS[@]}" --release -p tta-bench --bin fig13 -- --quick --threads 2 --snapshot-dir results/snap-smoke
cp results/fig13.journal.json results/snap-smoke-cold.journal.json
run cargo run "${CARGO_FLAGS[@]}" --release -p tta-bench --bin fig13 -- --quick --threads 2 --snapshot-dir results/snap-smoke --resume
run cmp results/snap-smoke-cold.journal.json results/fig13.journal.json
for point in "btree tta" "rt ttaplus" "rtnn rta" "nbody ttaplus"; do
    read -r workload platform <<<"$point"
    run cargo run "${CARGO_FLAGS[@]}" --release -p tta-snap --bin tta-snap-bisect -- \
        --workload "$workload" --platform "$platform" --chunks 3 --scale 0.2 --diff
done

# Runtime soundness gate: rerun the Fig. 13 sweep with every launch
# shadow-checked against the abstract interpreter and race-checked by the
# dynamic sanitizer. A register value or SIMT stack depth escaping its
# static abstraction, or two warps conflicting on a global-memory word
# within a launch, aborts the run. The sweep's own wall-clock (from the
# timing sidecar, excluding cargo overhead) doubles as the
# perf-trajectory measurement for step 10.
echo "==> TTA_SHADOW_CHECK=1 TTA_RACE_CHECK=1 fig13 --quick (soundness gate)"
TTA_SHADOW_CHECK=1 TTA_RACE_CHECK=1 cargo run "${CARGO_FLAGS[@]}" --release -p tta-bench --bin fig13 -- --quick --threads 2

# Perf-trajectory gate: the committed BENCH_fig13.json must be
# schema-valid, and the shadow-checked sweep above must not be more than
# 25% slower than the latest committed quick-shadow baseline. When the
# simulator legitimately changes speed, record a fresh entry with
# scripts/bench.sh quick-shadow.
run cargo run "${CARGO_FLAGS[@]}" --release -q -p tta-bench --bin bench_gate -- validate BENCH_fig13.json
run cargo run "${CARGO_FLAGS[@]}" --release -q -p tta-bench --bin bench_gate -- \
    check BENCH_fig13.json --mode quick-shadow --timing results/fig13.timing.json --max-regress 0.25

echo "CI OK"
