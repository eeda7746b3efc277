//! `tta-benchmark`: host-time benchmark of the TTA reproduction.
//!
//! The paper's results are simulated cycles, which a speed-up must never
//! move; what a user waits for is host time. This crate drives four
//! workloads ([`plan::Workload`]) through the program's public functions
//! only, times every call from outside ([`drive`]), and reports
//! end-to-end and per-layer metrics ([`report`]) plus a bound-aware
//! comparison of two result sets ([`compare`]). See `README.md` for the
//! workloads, the metric map, and how to run it.

pub mod compare;
pub mod drive;
pub mod plan;
pub mod report;

use std::hint::black_box;
use std::time::{Duration, Instant};

use drive::{drive_rep, run_digest, Rep};
use plan::{Sizes, Workload};
use report::Totals;

/// Repetitions of the measured phase, at least, per kind (plain and, when
/// tracing, detailed). Every timing is a median over repetitions; raise
/// this when two sets of runs disagree.
pub const MIN_REPS: usize = 3;

/// Steps of the reference loop; one pass takes about 7 ms on a 2.1 GHz
/// Xeon.
const REFERENCE_STEPS: u64 = 4_000_000;

/// Reference-loop time, in ns, that [`Rep::speed`] scales host times to:
/// the median pass on the 2.1 GHz Xeon the baseline in `README.md` was
/// recorded on, so scaled times read close to that machine's seconds.
const REFERENCE_NOMINAL_NS: f64 = 7.0e6;

/// Times the reference loop: a fixed chain of dependent integer
/// multiplies, the median of five passes. The benchmark times it around
/// every repetition and scales that repetition's host times by the
/// loop's speed, which cancels most of the drift in CPU speed that a
/// shared machine shows from one minute to the next. The loop lives in
/// the benchmark, so no change to the program under test can move it.
fn reference_ns() -> f64 {
    let mut passes: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            let mut x = black_box(0x9e37_79b9_7f4a_7c15_u64);
            for k in 0..black_box(REFERENCE_STEPS) {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(k) ^ (x >> 17);
            }
            black_box(x);
            start.elapsed().as_nanos() as f64
        })
        .collect();
    passes.sort_by(f64::total_cmp);
    passes[2]
}

/// Everything one benchmark process measured.
pub struct Measurement {
    /// Every repetition, in the order run.
    pub reps: Vec<Rep>,
    /// Runs attempted: runs per repetition × repetitions.
    pub attempted: u64,
    /// Runs that panicked, failed their oracle, or whose journal entry
    /// differed from the first repetition's.
    pub failed: u64,
    /// FNV-1a hash of the first repetition's journal.
    pub sim_digest: u64,
    /// Simulated totals of the first repetition.
    pub totals: Totals,
    /// Kernel launches of the first repetition.
    pub launches: u64,
    /// Queries one repetition completes.
    pub queries: u64,
}

/// Runs `workload` repetition after repetition, rep-major, until at least
/// [`MIN_REPS`] repetitions of each kind have run and the next one would
/// end past `budget`. With `trace`, plain and detailed repetitions
/// alternate, so the per-layer metrics and the tracing overhead come from
/// the same process. Each repetition's speed factor comes from the
/// reference loop timed just before and just after it.
pub fn measure(
    workload: Workload,
    seed: u64,
    budget: Duration,
    trace: bool,
    sizes: &Sizes,
) -> Measurement {
    let runs = plan::runs(workload, seed, sizes);
    let started = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut expected: Vec<Option<u64>> = vec![None; runs.len()];
    let mut first = None;
    let mut failed = 0;
    let mut before = reference_ns();
    loop {
        let detail = trace && reps.len() % 2 == 1;
        let rep_start = Instant::now();
        let (mut rep, results) = drive_rep(workload.name(), &runs, detail);
        let last = rep_start.elapsed();
        let after = reference_ns();
        rep.speed = 2.0 * REFERENCE_NOMINAL_NS / (before + after);
        before = after;
        for (slot, result) in expected.iter_mut().zip(&results) {
            match result {
                None => failed += 1,
                Some(r) => {
                    let digest = run_digest(r);
                    if *slot.get_or_insert(digest) != digest {
                        failed += 1;
                    }
                }
            }
        }
        if first.is_none() {
            let done: Vec<_> = results.into_iter().flatten().collect();
            first = Some((Totals::of(&done), rep.launches, rep.sim_digest));
        }
        reps.push(rep);
        let of_kind = |d: bool| reps.iter().filter(|r| r.detailed == d).count();
        let enough = of_kind(false) >= MIN_REPS && (!trace || of_kind(true) >= MIN_REPS);
        if enough && started.elapsed() + last > budget {
            break;
        }
    }
    let (totals, launches, sim_digest) = first.expect("at least one repetition ran");
    Measurement {
        attempted: (runs.len() * reps.len()) as u64,
        failed,
        sim_digest,
        totals,
        launches,
        queries: runs.iter().map(|r| r.queries).sum(),
        reps,
    }
}
