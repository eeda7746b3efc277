//! Simulator configuration, mirroring Table II of the paper.

/// Which issue-scheduler implementation an SM uses.
///
/// Both produce byte-identical journals and traces — `ReferenceScan` is
/// the original O(resident-warps)-per-cycle scoreboard scan, kept as a
/// permanently testable oracle for the event-driven rewrite (see the
/// scheduler-equivalence suite in `crates/harness/tests/determinism.rs`
/// and DESIGN.md §12).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerKind {
    /// Ready-set + earliest-wake heap: scoreboard-blocked warps sleep on
    /// a per-SM binary heap and are skipped by the GTO scan until their
    /// cached wake cycle arrives. The default.
    #[default]
    EventDriven,
    /// The original implementation: re-scan every resident warp's
    /// scoreboard each cycle. Slower; bit-for-bit the same schedule.
    ReferenceScan,
}

/// Top-level GPU configuration.
///
/// The defaults reproduce the Vulkan-Sim configuration of Table II: 8 SMs,
/// 32 warps per SM, GTO scheduling, 64 KB fully-associative L1 (20-cycle
/// hit), 3 MB 16-way L2 (160-cycle hit), and a DRAM clock 2.56× the compute
/// clock.
///
/// # Examples
///
/// ```
/// use tta_gpu_sim::GpuConfig;
///
/// let cfg = GpuConfig::vulkan_sim_default();
/// assert_eq!(cfg.num_sms, 8);
/// assert_eq!(cfg.max_warps_per_sm, 32);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GpuConfig {
    /// Number of streaming multiprocessors.
    pub num_sms: usize,
    /// Maximum resident warps per SM.
    pub max_warps_per_sm: usize,
    /// Threads per warp (lanes).
    pub warp_width: usize,
    /// ALU result latency in cycles (pipelined, 1/cycle issue).
    pub alu_latency: u64,
    /// Long-operation (FDIV, FSQRT, RCP) latency in cycles.
    pub sfu_latency: u64,
    /// Memory subsystem configuration.
    pub mem: MemConfig,
    /// When `true`, every memory access completes in one cycle — the
    /// "Perf. Mem" limit configuration of Fig. 17.
    pub perfect_memory: bool,
    /// Issue-scheduler implementation (schedule-equivalent either way).
    pub scheduler: SchedulerKind,
}

/// Memory hierarchy configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct MemConfig {
    /// Cache line size in bytes (shared by L1 and L2).
    pub line_size: usize,
    /// L1 data cache capacity per SM in bytes (64 KB, fully associative).
    pub l1_bytes: usize,
    /// L1 hit latency in cycles.
    pub l1_latency: u64,
    /// L1 miss-status holding registers per SM (outstanding misses).
    pub l1_mshrs: usize,
    /// Unified L2 capacity in bytes (3 MB).
    pub l2_bytes: usize,
    /// L2 associativity.
    pub l2_ways: usize,
    /// L2 hit latency in cycles (includes interconnect).
    pub l2_latency: u64,
    /// L2 MSHRs (outstanding DRAM requests).
    pub l2_mshrs: usize,
    /// DRAM access latency in compute cycles (row activation + transfer).
    pub dram_latency: u64,
    /// Number of independent DRAM channels.
    pub dram_channels: usize,
    /// Peak service rate per channel, in bytes per compute cycle. The
    /// aggregate peak (channels × rate) corresponds to the 3500 MHz memory
    /// clock of Table II against the 1365 MHz compute clock.
    pub dram_bytes_per_cycle_per_channel: f64,
}

impl GpuConfig {
    /// The Table II configuration.
    pub fn vulkan_sim_default() -> Self {
        GpuConfig {
            num_sms: 8,
            max_warps_per_sm: 32,
            warp_width: 32,
            alu_latency: 4,
            sfu_latency: 16,
            mem: MemConfig {
                line_size: 128,
                l1_bytes: 64 * 1024,
                l1_latency: 20,
                l1_mshrs: 32,
                l2_bytes: 3 * 1024 * 1024,
                l2_ways: 16,
                l2_latency: 160,
                l2_mshrs: 128,
                dram_latency: 220,
                dram_channels: 6,
                dram_bytes_per_cycle_per_channel: 8.0,
            },
            perfect_memory: false,
            scheduler: SchedulerKind::EventDriven,
        }
    }

    /// A smaller, faster-to-simulate configuration for unit tests: 2 SMs,
    /// 8 warps each, shallow caches.
    pub fn small_test() -> Self {
        let mut cfg = Self::vulkan_sim_default();
        cfg.num_sms = 2;
        cfg.max_warps_per_sm = 8;
        cfg.mem.l1_bytes = 8 * 1024;
        cfg.mem.l2_bytes = 64 * 1024;
        cfg
    }

    /// Aggregate peak DRAM bandwidth in bytes per compute cycle.
    pub fn peak_dram_bandwidth(&self) -> f64 {
        self.mem.dram_channels as f64 * self.mem.dram_bytes_per_cycle_per_channel
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics when a field is zero or inconsistent (e.g. line size not a
    /// power of two); the memory-hierarchy messages name their field.
    pub fn validate(&self) {
        assert!(self.num_sms > 0);
        assert!(self.max_warps_per_sm > 0);
        assert!(self.warp_width > 0 && self.warp_width <= 32);
        let m = &self.mem;
        assert!(m.line_size.is_power_of_two());
        assert!(
            m.l1_bytes >= m.line_size,
            "mem.l1_bytes ({}) must hold at least one {}-byte line",
            m.l1_bytes,
            m.line_size
        );
        assert!(m.l1_bytes.is_multiple_of(m.line_size));
        assert!(m.l1_mshrs > 0, "mem.l1_mshrs must be at least 1");
        assert!(m.l2_ways > 0, "mem.l2_ways must be at least 1");
        assert!(
            m.l2_bytes >= m.line_size * m.l2_ways,
            "mem.l2_bytes ({}) must hold at least one set of {} {}-byte lines",
            m.l2_bytes,
            m.l2_ways,
            m.line_size
        );
        assert!(m.l2_bytes.is_multiple_of(m.line_size * m.l2_ways));
        assert!(m.l2_mshrs > 0, "mem.l2_mshrs must be at least 1");
        assert!(m.dram_channels > 0);
        assert!(m.dram_bytes_per_cycle_per_channel > 0.0);
    }
}

impl Default for GpuConfig {
    fn default() -> Self {
        Self::vulkan_sim_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_ii_values() {
        let cfg = GpuConfig::vulkan_sim_default();
        cfg.validate();
        assert_eq!(cfg.num_sms, 8);
        assert_eq!(cfg.max_warps_per_sm, 32);
        assert_eq!(cfg.warp_width, 32);
        assert_eq!(cfg.mem.l1_bytes, 64 * 1024);
        assert_eq!(cfg.mem.l1_latency, 20);
        assert_eq!(cfg.mem.l2_bytes, 3 * 1024 * 1024);
        assert_eq!(cfg.mem.l2_ways, 16);
        assert_eq!(cfg.mem.l2_latency, 160);
    }

    #[test]
    fn peak_bandwidth_positive() {
        let cfg = GpuConfig::vulkan_sim_default();
        assert!(cfg.peak_dram_bandwidth() > 0.0);
    }

    #[test]
    fn small_test_validates() {
        GpuConfig::small_test().validate();
    }

    fn with_mem(edit: impl FnOnce(&mut MemConfig)) {
        let mut cfg = GpuConfig::small_test();
        edit(&mut cfg.mem);
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "mem.l1_mshrs")]
    fn zero_l1_mshrs_is_rejected() {
        with_mem(|m| m.l1_mshrs = 0);
    }

    #[test]
    #[should_panic(expected = "mem.l2_mshrs")]
    fn zero_l2_mshrs_is_rejected() {
        with_mem(|m| m.l2_mshrs = 0);
    }

    #[test]
    #[should_panic(expected = "mem.l1_bytes")]
    fn l1_smaller_than_a_line_is_rejected() {
        with_mem(|m| m.l1_bytes = 0);
    }

    #[test]
    #[should_panic(expected = "mem.l2_bytes")]
    fn l2_without_a_set_is_rejected() {
        // 16 ways of 128 B need 2 KB per set; 1 KB is a whole number of
        // lines but zero sets.
        with_mem(|m| m.l2_bytes = 1024);
    }

    #[test]
    #[should_panic(expected = "mem.l2_ways")]
    fn zero_l2_ways_is_rejected() {
        with_mem(|m| m.l2_ways = 0);
    }
}
