//! Latency-SLO accounting: folds a [`ServeOutcome`](crate::ServeOutcome)
//! into the journal-facing [`ServeSummary`].

use gpu_sim::stats::percentile;
use workloads::ServeSummary;

use crate::engine::ServeOutcome;

/// The latency fold of one set of completed queries, shared by the serve
/// and fleet summaries.
///
/// Percentiles use **nearest-rank** semantics ([`percentile`]): the
/// reported pN is always an *observed* latency, never an interpolation.
/// On completion sets smaller than `ceil(100 / (100 − N))` samples the
/// nearest rank is the maximum — e.g. p99 of n < 100 completions *is* the
/// max sample. That is deliberate (a p99 claim over 40 queries has no
/// better unbiased witness than the worst one) and is what makes tiny
/// per-class percentile rows in fleet journals well-defined; see the
/// `nearest_rank_*` tests below for the exact n = 1, 2, 99, 100 behavior.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyFold {
    /// Completed queries (latency samples).
    pub completed: u64,
    /// Median latency, in cycles.
    pub p50: u64,
    /// 95th-percentile latency.
    pub p95: u64,
    /// 99th-percentile latency.
    pub p99: u64,
    /// Worst latency.
    pub max: u64,
    /// Completed queries per **kilocycle** of makespan — a rate that
    /// stays readable at simulator scale (0 for an empty makespan).
    pub throughput_qpkc: f64,
}

impl LatencyFold {
    /// Folds `latencies` (one per completed query) over a run whose last
    /// completion is at `makespan`. An empty set yields zeroes, not NaNs.
    pub fn of(latencies: impl IntoIterator<Item = u64>, makespan: u64) -> Self {
        let latencies: Vec<u64> = latencies.into_iter().collect();
        let completed = latencies.len() as u64;
        let pct = |p: f64| percentile(&latencies, p).unwrap_or(0);
        let throughput_qpkc = if makespan > 0 {
            completed as f64 / makespan as f64 * 1000.0
        } else {
            0.0
        };
        LatencyFold {
            completed,
            p50: pct(50.0),
            p95: pct(95.0),
            p99: pct(99.0),
            max: latencies.iter().copied().max().unwrap_or(0),
            throughput_qpkc,
        }
    }
}

/// Summarizes a serving run into p50/p95/p99 latency ([`LatencyFold`]),
/// throughput, and queue/drop counters. `arrival_mean_cycles` is the
/// offered stream's mean inter-arrival time (recorded, not recomputed).
pub fn summarize(
    policy: &str,
    backend: &str,
    arrival_mean_cycles: f64,
    out: &ServeOutcome,
) -> ServeSummary {
    let lat = LatencyFold::of(out.queries.iter().filter_map(|q| q.latency()), out.makespan);
    ServeSummary {
        policy: policy.to_owned(),
        backend: backend.to_owned(),
        arrival_mean_cycles,
        offered: out.queries.len() as u64,
        admitted: out.queries.len() as u64 - out.dropped,
        dropped: out.dropped,
        completed: lat.completed,
        batches: out.batches,
        p50_latency: lat.p50,
        p95_latency: lat.p95,
        p99_latency: lat.p99,
        max_latency: lat.max,
        throughput_qpkc: lat.throughput_qpkc,
        max_queue_depth: out.max_queue_depth as u64,
        makespan_cycles: out.makespan,
        queue_wait_cycles: out.queue_wait_cycles,
        idle_cycles: out.idle_cycles,
        horizon_cycles: out.horizon,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::QueryOutcome;

    fn outcome(latencies: &[u64], dropped: u64) -> ServeOutcome {
        let mut queries: Vec<QueryOutcome> = latencies
            .iter()
            .map(|&l| QueryOutcome {
                arrival: 10,
                completion: Some(10 + l),
            })
            .collect();
        for _ in 0..dropped {
            queries.push(QueryOutcome {
                arrival: 10,
                completion: None,
            });
        }
        ServeOutcome {
            queries,
            batches: 3,
            max_queue_depth: 7,
            dropped,
            makespan: 2000,
            launch_stats: Vec::new(),
            queue_wait_cycles: 40,
            idle_cycles: 60,
            horizon: 2000,
        }
    }

    #[test]
    fn percentiles_and_counters_line_up() {
        let lat: Vec<u64> = (1..=100).collect();
        let s = summarize("size32", "BASE", 50.0, &outcome(&lat, 2));
        assert_eq!(s.offered, 102);
        assert_eq!(s.admitted, 100);
        assert_eq!(s.dropped, 2);
        assert_eq!(s.completed, 100);
        assert_eq!(s.p50_latency, 50);
        assert_eq!(s.p95_latency, 95);
        assert_eq!(s.p99_latency, 99);
        assert_eq!(s.max_latency, 100);
        assert_eq!(s.max_queue_depth, 7);
        // 100 completed over 2000 cycles = 50 per kilocycle.
        assert!((s.throughput_qpkc - 50.0).abs() < 1e-9);
    }

    /// n = 1: every percentile (p50, p95, p99, max) is the one sample —
    /// nearest-rank never interpolates or invents a value.
    #[test]
    fn nearest_rank_single_sample_is_every_percentile() {
        let s = summarize("size1", "BASE", 50.0, &outcome(&[7], 0));
        assert_eq!(s.completed, 1);
        assert_eq!(s.p50_latency, 7);
        assert_eq!(s.p95_latency, 7);
        assert_eq!(s.p99_latency, 7);
        assert_eq!(s.max_latency, 7);
    }

    /// n = 2: p50 is the *lower* sample (rank ceil(0.5·2) = 1), while p95
    /// and p99 are the max (rank ceil(1.9) = ceil(1.98) = 2).
    #[test]
    fn nearest_rank_two_samples_split_median_from_tail() {
        let s = summarize("size2", "BASE", 50.0, &outcome(&[3, 9], 0));
        assert_eq!(s.p50_latency, 3);
        assert_eq!(s.p95_latency, 9);
        assert_eq!(s.p99_latency, 9);
        assert_eq!(s.max_latency, 9);
    }

    /// n = 99: rank ceil(0.99·99) = ceil(98.01) = 99 — p99 is still the
    /// max sample. The p99-equals-max regime covers every n < 100.
    #[test]
    fn nearest_rank_ninety_nine_samples_p99_is_max() {
        let lat: Vec<u64> = (1..=99).collect();
        let s = summarize("size99", "BASE", 50.0, &outcome(&lat, 0));
        assert_eq!(s.p99_latency, 99);
        assert_eq!(s.p99_latency, s.max_latency);
        assert_eq!(s.p50_latency, 50);
        assert_eq!(s.p95_latency, 95);
    }

    /// n = 100: the first size at which p99 detaches from the max — rank
    /// ceil(0.99·100) = 99 picks the 99th of 100 sorted samples.
    #[test]
    fn nearest_rank_hundred_samples_p99_detaches_from_max() {
        let lat: Vec<u64> = (1..=100).collect();
        let s = summarize("size100", "BASE", 50.0, &outcome(&lat, 0));
        assert_eq!(s.p99_latency, 99);
        assert_eq!(s.max_latency, 100);
        assert!(s.p99_latency < s.max_latency);
    }

    #[test]
    fn empty_run_yields_zeroes_not_nans() {
        let s = summarize("cont8w", "TTA", 50.0, &outcome(&[], 0));
        assert_eq!(s.completed, 0);
        assert_eq!(s.p99_latency, 0);
        assert_eq!(s.max_latency, 0);
        assert!(s.throughput_qpkc.abs() < 1e-12 || s.throughput_qpkc == 0.0);
    }
}
