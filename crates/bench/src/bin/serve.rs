//! `serve` — the online-serving smoke grid (no figure in the paper; this
//! is the repo's extension toward the deployment question the paper's
//! closed-batch evaluation leaves open).
//!
//! Offers seeded Poisson query streams to serving backends under several
//! batch-formation policies and journals latency SLO metrics per point:
//!
//! * **Policies**: `size32` (launch on 32 queued), `deadline…` (launch on
//!   size *or* oldest-query age), `cont8w` (continuous batching — refill
//!   up to 8 warps whenever the device frees).
//! * **Backends**: the workload's paper baseline and TTA (plus TTA+ for
//!   B-Tree).
//! * **Arrival rates**: a relaxed stream and one near the size-triggered
//!   policy's saturation point, where fixed batches queue up and
//!   continuous batching's work conservation shows up in the tail.
//!
//! Expectation (asserted below): at the high arrival rate, continuous
//! batching beats size-triggered batching on p99 latency on every backend
//! — the virtual clock makes this deterministic, so drift means a real
//! regression. The journal lands at `results/serve.journal.json`.

use serve::{BatchPolicy, ServeBackend, ServeExperiment, ServeWorkload};
use trees::BTreeFlavor;
use tta_bench::{prepare, Args, InputCache, Report};
use workloads::ServeSummary;

fn policies() -> Vec<BatchPolicy> {
    vec![
        BatchPolicy::SizeTriggered { batch: 32 },
        BatchPolicy::DeadlineTriggered {
            max_wait: 2000,
            max_batch: 64,
        },
        BatchPolicy::Continuous { max_warps: 8 },
    ]
}

fn main() {
    let args = Args::parse(&["--trace"]);
    let cache = &InputCache::new();
    let mut sweep = args.sweep("serve");

    let offered = args.sized(640);
    // Low rate: everyone keeps up. High rate: chosen so size32 saturates
    // (service rate of fixed 32-query batches < arrival rate) while
    // continuous batching still drains the queue.
    let rates = [2500.0, 150.0];

    let btree = ServeWorkload::BTree {
        flavor: BTreeFlavor::BTree,
        keys: args.sized(8000),
        universe: 512,
    };
    let rtnn = ServeWorkload::Rtnn {
        points: args.sized(3000),
        universe: 256,
        radius: 1.5,
    };
    let nbody = ServeWorkload::NBody {
        dims: 3,
        bodies: args.sized(1000),
        theta: 0.5,
    };

    // The full policy × backend × rate grid on the flagship workload.
    for &rate in &rates {
        for backend in [ServeBackend::Base, ServeBackend::Tta, ServeBackend::TtaPlus] {
            for policy in policies() {
                let mut e = prepare(
                    cache,
                    ServeExperiment::new(btree.clone(), backend, policy, offered, rate),
                );
                e.trace_dir = args.trace.clone();
                sweep.add(move || e.run());
            }
        }
    }
    // Generality rows: radius-search and force-query streams under
    // continuous batching on their baseline and on TTA.
    for workload in [rtnn, nbody] {
        for backend in [ServeBackend::Base, ServeBackend::Tta] {
            let mut e = prepare(
                cache,
                ServeExperiment::new(
                    workload.clone(),
                    backend,
                    BatchPolicy::Continuous { max_warps: 8 },
                    offered / 2,
                    rates[1],
                ),
            );
            e.trace_dir = args.trace.clone();
            sweep.add(move || e.run());
        }
    }

    let outcome = sweep.run();
    let summaries: Vec<ServeSummary> = outcome
        .results
        .iter()
        .map(|r| r.serve.clone().expect("every serve run carries a summary"))
        .collect();

    let mut report = Report::new(
        "serve",
        "Online serving: latency SLOs by policy, backend, and arrival rate",
        "continuous batching wins the p99 tail once fixed-size batching saturates",
    );
    report.columns(&[
        "workload", "backend", "policy", "mean", "offered", "batches", "p50", "p95", "p99", "max",
        "q/kc", "maxq",
    ]);
    for (r, s) in outcome.results.iter().zip(&summaries) {
        let workload = r.label.split(' ').nth(1).unwrap_or("?").to_owned();
        report.row(vec![
            workload,
            s.backend.clone(),
            s.policy.clone(),
            format!("{}", s.arrival_mean_cycles),
            s.offered.to_string(),
            s.batches.to_string(),
            s.p50_latency.to_string(),
            s.p95_latency.to_string(),
            s.p99_latency.to_string(),
            s.max_latency.to_string(),
            format!("{:.2}", s.throughput_qpkc),
            s.max_queue_depth.to_string(),
        ]);
    }
    report.finish();

    // The checked-in expectation: at the high (saturating) rate,
    // continuous batching beats size-triggered batching on p99 on every
    // B-Tree backend. Deterministic — a failure is a regression, not noise.
    let high = format!("{}", rates[1]);
    for backend in ["BASE", "TTA", "TTA+"] {
        let p99_of = |policy_prefix: &str| {
            summaries
                .iter()
                .find(|s| {
                    s.backend == backend
                        && s.policy.starts_with(policy_prefix)
                        && format!("{}", s.arrival_mean_cycles) == high
                })
                .map(|s| s.p99_latency)
                .expect("grid point missing")
        };
        let (size, cont) = (p99_of("size"), p99_of("cont"));
        assert!(
            cont < size,
            "{backend}: continuous p99 ({cont}) must beat size-triggered p99 ({size}) \
             at mean inter-arrival {high}"
        );
        println!("{backend}: high-rate p99 {size} (size32) -> {cont} (cont8w): OK");
    }

    // No admitted query is ever dropped under the default (unbounded)
    // backpressure configuration.
    assert!(summaries.iter().all(|s| s.dropped == 0));
}
