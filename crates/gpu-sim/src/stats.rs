//! Simulation statistics: everything the paper's figures are computed from.

use crate::isa::InstrClass;
use crate::mem::{CacheStats, DramStats};
use trace::CycleAttribution;

/// Dynamic instruction counts by category (lane-level, i.e. one increment
/// per *active lane* per issued instruction — the quantity Fig. 20 plots).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InstrMix {
    /// Arithmetic/logic/move instructions.
    pub alu: u64,
    /// Branches and jumps.
    pub control: u64,
    /// Loads and stores.
    pub memory: u64,
    /// Offloaded traversal instructions.
    pub traverse: u64,
}

impl InstrMix {
    /// Adds `lanes` executions of an instruction of class `class`.
    pub fn add(&mut self, class: InstrClass, lanes: u64) {
        match class {
            InstrClass::Alu => self.alu += lanes,
            InstrClass::Control => self.control += lanes,
            InstrClass::Memory => self.memory += lanes,
            InstrClass::Traverse => self.traverse += lanes,
        }
    }

    /// Total dynamic (lane) instructions.
    pub fn total(&self) -> u64 {
        self.alu + self.control + self.memory + self.traverse
    }
}

/// Full statistics of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimStats {
    /// Lanes per warp of the configuration that produced these stats
    /// (denominator of [`SimStats::simt_efficiency`]). Defaults to 32.
    pub warp_size: u32,
    /// Total elapsed cycles.
    pub cycles: u64,
    /// Warp-instructions issued by the SIMT cores.
    pub warp_instrs: u64,
    /// Sum of active lanes over issued instructions.
    pub lane_instrs: u64,
    /// Lane-level instruction mix.
    pub mix: InstrMix,
    /// Floating-point lane operations (roofline numerator).
    pub flops: u64,
    /// L1 statistics (all SMs aggregated).
    pub l1: CacheStats,
    /// L2 statistics.
    pub l2: CacheStats,
    /// DRAM statistics.
    pub dram: DramStats,
    /// Number of DRAM channels (to compute utilization).
    pub dram_channels: usize,
    /// Warps that executed a Traverse offload.
    pub traversals_offloaded: u64,
    /// Cycles during which at least one SM issued an instruction.
    pub sm_active_cycles: u64,
    /// Where every cycle of the run went. Always populated by
    /// [`crate::Gpu::launch`] (independent of tracing); the buckets
    /// partition the run, so `attribution.total() == cycles` — this is
    /// debug-asserted after every launch.
    pub attribution: CycleAttribution,
    /// Completion cycle of each warp, indexed by warp id and relative to
    /// the launch start (the cycle the warp issued its `Exit`). Filled by
    /// [`crate::Gpu::launch`]; the serving layer turns these into
    /// per-query latencies. When launches are summed
    /// (`workloads::runner::sum_stats`), later launches' entries are
    /// shifted by the cycles of the preceding launches and appended.
    pub warp_completions: Vec<u64>,
}

impl Default for SimStats {
    fn default() -> Self {
        SimStats {
            warp_size: 32,
            cycles: 0,
            warp_instrs: 0,
            lane_instrs: 0,
            mix: InstrMix::default(),
            flops: 0,
            l1: CacheStats::default(),
            l2: CacheStats::default(),
            dram: DramStats::default(),
            dram_channels: 0,
            traversals_offloaded: 0,
            sm_active_cycles: 0,
            attribution: CycleAttribution::default(),
            warp_completions: Vec::new(),
        }
    }
}

/// Nearest-rank percentile of a sample set: the smallest element such
/// that at least `p` percent of the samples are ≤ it. `p` is clamped to
/// `[0, 100]`; `p = 0` returns the minimum, `p = 100` the maximum.
/// Returns `None` on an empty sample set — an empty launch has no p99.
pub fn percentile(samples: &[u64], p: f64) -> Option<u64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let p = p.clamp(0.0, 100.0);
    // Nearest-rank, 1-based: ceil(p/100 · n); rank 0 maps to the minimum.
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.max(1) - 1])
}

/// Fixed-width histogram of a sample set: `(bucket_start, count)` pairs
/// for every non-empty bucket, in ascending bucket order. A
/// `bucket_width` of 0 is treated as 1. Deterministic: equal samples
/// always produce the same bucket list.
pub fn histogram(samples: &[u64], bucket_width: u64) -> Vec<(u64, u64)> {
    let w = bucket_width.max(1);
    let mut buckets = std::collections::BTreeMap::new();
    for &s in samples {
        *buckets.entry((s / w) * w).or_insert(0u64) += 1;
    }
    buckets.into_iter().collect()
}

impl SimStats {
    /// SIMT efficiency in [0, 1]: average active-lane fraction per issued
    /// warp instruction (Fig. 1 metric), relative to the configured warp
    /// width — a 16-lane GPU at full occupancy reports 1.0, not 0.5.
    pub fn simt_efficiency(&self) -> f64 {
        if self.warp_instrs == 0 {
            return 1.0;
        }
        self.lane_instrs as f64 / (self.warp_instrs as f64 * f64::from(self.warp_size.max(1)))
    }

    /// DRAM bandwidth utilization in [0, 1] (Fig. 1 / Fig. 13 metric).
    pub fn dram_utilization(&self) -> f64 {
        self.dram
            .utilization(self.cycles, self.dram_channels.max(1))
    }

    /// Arithmetic intensity in FLOP/byte over DRAM traffic (Fig. 6 x-axis).
    pub fn arithmetic_intensity(&self) -> f64 {
        let bytes = (self.dram.bytes_read + self.dram.bytes_written) as f64;
        if bytes == 0.0 {
            return 0.0;
        }
        self.flops as f64 / bytes
    }

    /// Achieved performance in FLOP/cycle (Fig. 6 y-axis).
    pub fn flops_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.flops as f64 / self.cycles as f64
    }

    /// Speedup of `self` relative to a `baseline` run of the same work.
    ///
    /// A baseline that executed zero cycles has no meaningful speedup:
    /// the result is [`f64::NAN`] rather than a silent 0.0, so downstream
    /// ratios/geomeans surface the degenerate input instead of absorbing it.
    pub fn speedup_over(&self, baseline: &SimStats) -> f64 {
        if baseline.cycles == 0 {
            return f64::NAN;
        }
        baseline.cycles as f64 / self.cycles.max(1) as f64
    }

    /// Records the retire cycle of `warp_id`. Cycles are absolute at
    /// record time; [`crate::Gpu::launch`] rebases them to launch-relative
    /// before returning. Warps retire in arbitrary order, so the vector
    /// grows to cover the highest id seen and the launch asserts density.
    pub fn record_warp_completion(&mut self, warp_id: usize, cycle: u64) {
        if self.warp_completions.len() <= warp_id {
            self.warp_completions.resize(warp_id + 1, 0);
        }
        self.warp_completions[warp_id] = cycle;
    }

    /// Nearest-rank percentile of the per-warp completion cycles (see
    /// [`percentile`]). `None` when the run recorded no warp completions
    /// (e.g. stats that were never produced by a launch).
    pub fn warp_completion_percentile(&self, p: f64) -> Option<u64> {
        percentile(&self.warp_completions, p)
    }

    /// Fixed-width histogram of the per-warp completion cycles (see
    /// [`histogram`]).
    pub fn warp_completion_histogram(&self, bucket_width: u64) -> Vec<(u64, u64)> {
        histogram(&self.warp_completions, bucket_width)
    }

    crate::snap_fields! {
        pub fn export_state / import_state;
        warp_size,
        cycles,
        warp_instrs,
        lane_instrs,
        mix,
        flops,
        l1,
        l2,
        dram,
        dram_channels,
        traversals_offloaded,
        sm_active_cycles,
        attribution,
        warp_completions,
    }
}

crate::snap_state!(SimStats);

// The journal's `"stats"` section: the raw counters only; journal writers
// add derived metrics such as [`SimStats::simt_efficiency`] alongside.
trace::json_fields! {
    SimStats {
        warp_size, cycles, warp_instrs, lane_instrs, mix, flops, l1, l2, dram, dram_channels,
        traversals_offloaded, sm_active_cycles, attribution, warp_completions,
    };
    InstrMix { alu, control, memory, traverse };
    CacheStats { hits, misses, mshr_merges };
    DramStats { bytes_read, bytes_written, bytes_requested, busy_channel_cycles, transactions };
}

// Fixed-arity counter rows, in field order.
crate::snap_row! {
    InstrMix { alu, control, memory, traverse };
    CacheStats { hits, misses, mshr_merges };
    DramStats { bytes_read, bytes_written, bytes_requested, busy_channel_cycles, transactions };
    CycleAttribution {
        simt_busy,
        simt_stall_mem,
        simt_stall_other,
        accel_busy,
        accel_starved,
        queue_wait,
        device_idle,
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace::json::to_string;

    #[test]
    fn mix_accumulates() {
        let mut mix = InstrMix::default();
        mix.add(InstrClass::Alu, 32);
        mix.add(InstrClass::Memory, 8);
        mix.add(InstrClass::Control, 4);
        mix.add(InstrClass::Traverse, 1);
        assert_eq!(mix.total(), 45);
        assert_eq!(mix.alu, 32);
    }

    #[test]
    fn efficiency_bounds() {
        let mut s = SimStats {
            warp_instrs: 10,
            lane_instrs: 160,
            ..Default::default()
        };
        assert!((s.simt_efficiency() - 0.5).abs() < 1e-9);
        s.warp_instrs = 0;
        assert_eq!(s.simt_efficiency(), 1.0);
    }

    #[test]
    fn efficiency_uses_configured_warp_size() {
        // A 16-lane machine with all lanes active must report 1.0, not >1
        // or 0.5 — the 32.0 denominator is no longer hardcoded.
        let s = SimStats {
            warp_size: 16,
            warp_instrs: 10,
            lane_instrs: 160,
            ..Default::default()
        };
        assert!((s.simt_efficiency() - 1.0).abs() < 1e-9);
        assert!(
            s.simt_efficiency() <= 1.0,
            "efficiency must never exceed 1.0"
        );
        let wide = SimStats {
            warp_size: 64,
            warp_instrs: 10,
            lane_instrs: 320,
            ..Default::default()
        };
        assert!((wide.simt_efficiency() - 0.5).abs() < 1e-9);
        // warp_size 0 is clamped rather than dividing by zero.
        let degenerate = SimStats {
            warp_size: 0,
            warp_instrs: 10,
            lane_instrs: 10,
            ..Default::default()
        };
        assert!(degenerate.simt_efficiency().is_finite());
    }

    #[test]
    fn speedup_ratio() {
        let fast = SimStats {
            cycles: 100,
            ..Default::default()
        };
        let slow = SimStats {
            cycles: 500,
            ..Default::default()
        };
        assert!((fast.speedup_over(&slow) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn speedup_over_zero_cycle_baseline_is_nan() {
        let run = SimStats {
            cycles: 100,
            ..Default::default()
        };
        let empty = SimStats::default();
        assert!(
            run.speedup_over(&empty).is_nan(),
            "zero-cycle baseline must not report 0.0"
        );
        // Self-comparison of an empty run is equally meaningless.
        assert!(empty.speedup_over(&empty).is_nan());
        // A zero-cycle *numerator* is still defined (clamped denominator).
        assert!((empty.speedup_over(&run) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn json_is_stable_and_complete() {
        let mut s = SimStats {
            cycles: 42,
            warp_instrs: 7,
            lane_instrs: 200,
            ..Default::default()
        };
        s.mix.alu = 150;
        s.dram.bytes_read = 4096;
        let a = to_string(&s);
        let b = to_string(&s.clone());
        assert_eq!(a, b, "equal stats must serialize byte-identically");
        for key in [
            "\"cycles\":42",
            "\"alu\":150",
            "\"bytes_read\":4096",
            "\"warp_size\":32",
        ] {
            assert!(a.contains(key), "missing {key} in {a}");
        }
        assert!(a.starts_with('{') && a.ends_with('}'));
    }

    #[test]
    fn percentile_nearest_rank() {
        let v = vec![10, 20, 30, 40, 50, 60, 70, 80, 90, 100];
        assert_eq!(percentile(&v, 0.0), Some(10));
        assert_eq!(percentile(&v, 50.0), Some(50));
        assert_eq!(percentile(&v, 95.0), Some(100));
        assert_eq!(percentile(&v, 99.0), Some(100));
        assert_eq!(percentile(&v, 100.0), Some(100));
        // Unsorted input is handled.
        assert_eq!(percentile(&[50, 10, 30], 50.0), Some(30));
        // Out-of-range p is clamped rather than panicking.
        assert_eq!(percentile(&v, -5.0), Some(10));
        assert_eq!(percentile(&v, 250.0), Some(100));
    }

    #[test]
    fn percentile_empty_and_single_sample() {
        assert_eq!(percentile(&[], 50.0), None, "empty sample set has no p50");
        for p in [0.0, 50.0, 99.0, 100.0] {
            assert_eq!(percentile(&[42], p), Some(42), "single sample at p={p}");
        }
    }

    #[test]
    fn histogram_buckets_ascending_and_complete() {
        let h = histogram(&[0, 1, 99, 100, 101, 250], 100);
        assert_eq!(h, vec![(0, 3), (100, 2), (200, 1)]);
        assert!(histogram(&[], 100).is_empty());
        // Width 0 is clamped to 1 instead of dividing by zero.
        assert_eq!(histogram(&[5, 5, 6], 0), vec![(5, 2), (6, 1)]);
    }

    #[test]
    fn record_warp_completion_grows_and_overwrites() {
        let mut s = SimStats::default();
        s.record_warp_completion(2, 40);
        assert_eq!(s.warp_completions, vec![0, 0, 40]);
        s.record_warp_completion(0, 10);
        s.record_warp_completion(2, 41);
        assert_eq!(s.warp_completions, vec![10, 0, 41]);
    }

    #[test]
    fn warp_completion_helpers_delegate() {
        let s = SimStats {
            warp_completions: vec![100, 300, 200],
            ..Default::default()
        };
        assert_eq!(s.warp_completion_percentile(50.0), Some(200));
        assert_eq!(s.warp_completion_histogram(1000), vec![(0, 3)]);
        let empty = SimStats::default();
        assert_eq!(empty.warp_completion_percentile(99.0), None);
        assert!(empty.warp_completion_histogram(10).is_empty());
    }

    #[test]
    fn json_includes_warp_completions() {
        let s = SimStats {
            warp_completions: vec![7, 11],
            ..Default::default()
        };
        assert!(to_string(&s).contains("\"warp_completions\":[7,11]"));
        let none = SimStats::default();
        assert!(to_string(&none).contains("\"warp_completions\":[]"));
    }

    #[test]
    fn state_bag_roundtrip_is_exact() {
        let mut s = SimStats {
            warp_size: 16,
            cycles: 1234,
            warp_instrs: 99,
            lane_instrs: 1200,
            flops: 7,
            dram_channels: 6,
            traversals_offloaded: 3,
            sm_active_cycles: 1100,
            warp_completions: vec![10, 20, 1234],
            ..Default::default()
        };
        s.mix.alu = 800;
        s.mix.memory = 300;
        s.l1.hits = 50;
        s.l2.misses = 8;
        s.dram.bytes_read = 4096;
        s.dram.busy_channel_cycles = 123.456;
        s.attribution.simt_busy = 600;
        s.attribution.accel_busy = 400;
        let mut back = SimStats::default();
        back.import_state(&s.export_state()).unwrap();
        assert_eq!(back, s);
        assert_eq!(to_string(&back), to_string(&s));
    }

    #[test]
    fn roofline_values() {
        let s = SimStats {
            cycles: 1000,
            flops: 5000,
            dram: DramStats {
                bytes_read: 1000,
                bytes_written: 0,
                ..Default::default()
            },
            dram_channels: 6,
            ..Default::default()
        };
        assert!((s.arithmetic_intensity() - 5.0).abs() < 1e-9);
        assert!((s.flops_per_cycle() - 5.0).abs() < 1e-9);
    }
}
