//! Intersection test units: the pluggable timing backend.
//!
//! The traversal engine asks its [`IntersectionBackend`] to *schedule* each
//! test; the backend models structural hazards (a pipelined unit accepts one
//! operation per cycle) and returns the completion cycle. Three backends
//! exist in the workspace:
//!
//! * [`FixedFunctionBackend`] (here) — the baseline RTA's Ray-Box /
//!   Ray-Triangle pipelines plus the intersection-shader callback path;
//! * `tta::TtaBackend` — the modified fixed-function units (Query-Key,
//!   Point-to-Point);
//! * `tta::ttaplus::TtaPlusBackend` — μop programs over OP units and a
//!   crossbar.

use crate::config::RtaConfig;
use gpu_sim::snapshot::{BagError, StateBag};

/// Which hardware path performs a test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TestKind {
    /// Fixed-function Ray-Box (two child AABBs per node).
    RayBox,
    /// Fixed-function Ray-Triangle (Möller-Trumbore).
    RayTriangle,
    /// R-XFORM between BVH levels.
    Transform,
    /// TTA Query-Key comparison (modified Ray-Box unit, 9-wide).
    QueryKey,
    /// TTA Point-to-Point distance (modified Ray-Triangle datapath).
    PointToPoint,
    /// Programmable intersection shader executed on the SIMT cores
    /// (baseline RTA path for procedural geometry).
    IntersectionShader,
    /// A TTA+ μop program, identified by its configured slot.
    Program(u16),
}

/// Occupancy statistics of one unit (Fig. 15 / Fig. 18 top).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UnitStats {
    /// Operations executed.
    pub invocations: u64,
    /// Cycles the unit was occupied (sum of latencies).
    pub busy_cycles: u64,
    /// Peak concurrent operations in flight.
    pub peak_in_flight: usize,
    /// Average intersection latency observed (including queueing).
    pub total_latency: u64,
}

impl UnitStats {
    /// Average latency per invocation (0 when unused).
    pub fn avg_latency(&self) -> f64 {
        if self.invocations == 0 {
            0.0
        } else {
            self.total_latency as f64 / self.invocations as f64
        }
    }

    /// Average occupancy over `elapsed` cycles.
    pub fn avg_occupancy(&self, elapsed: u64) -> f64 {
        if elapsed == 0 {
            0.0
        } else {
            self.busy_cycles as f64 / elapsed as f64
        }
    }
}

/// A pipelined unit: fixed latency, configurable initiation interval
/// (default 1), and an in-flight tracker for peak-occupancy statistics.
#[derive(Debug, Clone)]
pub struct PipelinedUnit {
    latency: u64,
    interval: u64,
    next_issue: u64,
    /// End times of in-flight ops (for concurrency accounting).
    in_flight: Vec<u64>,
    /// Statistics.
    pub stats: UnitStats,
}

impl PipelinedUnit {
    /// Creates a fully-pipelined unit (one operation per cycle).
    pub fn new(latency: u64) -> Self {
        Self::with_interval(latency, 1)
    }

    /// Creates a unit that accepts one operation every `interval` cycles —
    /// used for the intersection-shader callback path, whose throughput is
    /// bounded by the general-purpose cores' issue slots.
    pub fn with_interval(latency: u64, interval: u64) -> Self {
        assert!(interval >= 1, "initiation interval must be at least 1");
        PipelinedUnit {
            latency,
            interval,
            next_issue: 0,
            in_flight: Vec::new(),
            stats: UnitStats::default(),
        }
    }

    /// The unit's pipeline latency.
    pub fn latency(&self) -> u64 {
        self.latency
    }

    /// Schedules one operation arriving at `now`; returns completion cycle.
    pub fn schedule(&mut self, now: u64) -> u64 {
        self.schedule_with(now, self.latency)
    }

    /// Schedules one operation with an explicit latency (for units that run
    /// multiple operation types, e.g. the TTA Ray-Box unit running both
    /// Ray-Box and Query-Key tests).
    pub fn schedule_with(&mut self, now: u64, latency: u64) -> u64 {
        let start = self.next_issue.max(now);
        self.next_issue = start + self.interval;
        let end = start + latency;
        self.in_flight.retain(|&e| e > start);
        self.in_flight.push(end);
        self.stats.peak_in_flight = self.stats.peak_in_flight.max(self.in_flight.len());
        self.stats.invocations += 1;
        self.stats.busy_cycles += latency;
        self.stats.total_latency += end - now;
        end
    }

    /// Earliest cycle a new op could start.
    pub fn next_free(&self, now: u64) -> u64 {
        self.next_issue.max(now)
    }

    // Snapshot support: the issue stamp, the in-flight tracker (retained
    // lazily, so stale end-times are state: the peak-occupancy accounting
    // of the next `schedule` depends on them) and the statistics. Latency
    // and interval are configuration and stay out.
    gpu_sim::snap_fields! {
        pub fn export_state / import_state;
        next_issue,
        in_flight,
        invocations: stats.invocations,
        busy_cycles: stats.busy_cycles,
        peak_in_flight: stats.peak_in_flight,
        total_latency: stats.total_latency,
    }
}

gpu_sim::snap_state!(PipelinedUnit, Box<dyn IntersectionBackend>);

/// Timing backend for intersection tests.
pub trait IntersectionBackend: std::fmt::Debug {
    /// Schedules a test of `kind` arriving at `now`; returns its completion
    /// cycle. Implementations account occupancy internally.
    ///
    /// # Errors
    ///
    /// Returns `Err(UnsupportedTest)` when the hardware cannot execute this
    /// test kind (e.g. `QueryKey` on a baseline RTA, or `Program` on TTA).
    fn schedule(&mut self, kind: TestKind, now: u64) -> Result<u64, UnsupportedTest>;

    /// Per-kind statistics snapshot: (kind, stats) pairs.
    fn unit_stats(&self) -> Vec<(String, UnitStats)>;

    /// Downcast support for harvesting backend-specific statistics.
    fn as_any(&self) -> &dyn std::any::Any;

    /// Installs a trace handle. The default ignores it; backends that
    /// emit per-program spans (TTA+) override this.
    fn set_trace(&mut self, trace: trace::TraceHandle) {
        let _ = trace;
    }

    /// Exports the backend's persistent state (unit issue stamps and
    /// statistics) for snapshot support. The default exports nothing.
    fn export_state(&self) -> StateBag {
        StateBag::new()
    }

    /// Restores state exported by [`IntersectionBackend::export_state`]
    /// onto an identically-configured backend.
    ///
    /// # Errors
    ///
    /// [`BagError`] when the bag does not fit this backend.
    fn import_state(&mut self, bag: &StateBag) -> Result<(), BagError> {
        let _ = bag;
        Ok(())
    }
}

/// Error: the backend has no unit for the requested test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnsupportedTest(pub TestKind);

impl std::fmt::Display for UnsupportedTest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "intersection test {:?} is not supported by this backend",
            self.0
        )
    }
}

impl std::error::Error for UnsupportedTest {}

/// The baseline RTA backend: `unit_sets` sets of (Ray-Box, Ray-Triangle)
/// pipelines, a transform unit, and the shader-callback path.
#[derive(Debug)]
pub struct FixedFunctionBackend {
    box_units: Vec<PipelinedUnit>,
    tri_units: Vec<PipelinedUnit>,
    xform_unit: PipelinedUnit,
    shader: PipelinedUnit,
    shader_calls: u64,
    shader_instructions_per_call: u64,
}

impl FixedFunctionBackend {
    /// Builds the backend from an [`RtaConfig`].
    pub fn new(cfg: &RtaConfig) -> Self {
        FixedFunctionBackend {
            box_units: (0..cfg.unit_sets)
                .map(|_| PipelinedUnit::new(cfg.ray_box_latency))
                .collect(),
            tri_units: (0..cfg.unit_sets)
                .map(|_| PipelinedUnit::new(cfg.ray_triangle_latency))
                .collect(),
            xform_unit: PipelinedUnit::new(cfg.transform_latency),
            // The callback path behaves like a long-latency unit whose
            // throughput is bounded by the cores' issue slots.
            shader: PipelinedUnit::with_interval(cfg.shader_callback_latency, cfg.shader_interval),
            shader_calls: 0,
            shader_instructions_per_call: cfg.shader_instructions,
        }
    }

    fn least_busy(units: &mut [PipelinedUnit], now: u64) -> &mut PipelinedUnit {
        units
            .iter_mut()
            .min_by_key(|u| u.next_free(now))
            .expect("at least one unit per kind")
    }

    /// Total lane-instructions executed by intersection shaders (these run
    /// on the general-purpose cores and belong in the core instruction mix).
    pub fn shader_lane_instructions(&self) -> u64 {
        self.shader_calls * self.shader_instructions_per_call
    }
}

impl IntersectionBackend for FixedFunctionBackend {
    fn schedule(&mut self, kind: TestKind, now: u64) -> Result<u64, UnsupportedTest> {
        match kind {
            TestKind::RayBox => Ok(Self::least_busy(&mut self.box_units, now).schedule(now)),
            TestKind::RayTriangle => Ok(Self::least_busy(&mut self.tri_units, now).schedule(now)),
            TestKind::Transform => Ok(self.xform_unit.schedule(now)),
            TestKind::IntersectionShader => {
                self.shader_calls += 1;
                Ok(self.shader.schedule(now))
            }
            TestKind::QueryKey | TestKind::PointToPoint | TestKind::Program(_) => {
                Err(UnsupportedTest(kind))
            }
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn unit_stats(&self) -> Vec<(String, UnitStats)> {
        let mut out = Vec::new();
        let fold = |units: &[PipelinedUnit]| {
            let mut s = UnitStats::default();
            for u in units {
                s.invocations += u.stats.invocations;
                s.busy_cycles += u.stats.busy_cycles;
                s.peak_in_flight = s.peak_in_flight.max(u.stats.peak_in_flight);
                s.total_latency += u.stats.total_latency;
            }
            s
        };
        out.push(("RayBox".to_owned(), fold(&self.box_units)));
        out.push(("RayTriangle".to_owned(), fold(&self.tri_units)));
        out.push(("Transform".to_owned(), self.xform_unit.stats.clone()));
        out.push(("IntersectionShader".to_owned(), self.shader.stats.clone()));
        out
    }

    gpu_sim::snap_fields! {
        fn export_state / import_state;
        #[host] box_units,
        #[host] tri_units,
        xform_unit,
        shader,
        shader_calls,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipelined_unit_initiation_interval() {
        let mut u = PipelinedUnit::new(13);
        assert_eq!(u.schedule(100), 113);
        assert_eq!(u.schedule(100), 114, "second op starts one cycle later");
        assert_eq!(u.schedule(200), 213, "idle unit restarts immediately");
        assert_eq!(u.stats.invocations, 3);
        assert_eq!(u.stats.busy_cycles, 39);
        assert!(u.stats.peak_in_flight >= 2);
    }

    #[test]
    fn backend_routes_kinds_and_rejects_tta_tests() {
        let mut b = FixedFunctionBackend::new(&RtaConfig::baseline());
        assert_eq!(b.schedule(TestKind::RayBox, 0), Ok(13));
        assert_eq!(b.schedule(TestKind::RayTriangle, 0), Ok(37));
        assert!(b.schedule(TestKind::QueryKey, 0).is_err());
        assert!(b.schedule(TestKind::Program(0), 0).is_err());
    }

    #[test]
    fn multiple_sets_increase_throughput() {
        let cfg = RtaConfig::baseline();
        let mut b = FixedFunctionBackend::new(&cfg);
        // 4 sets: 4 box tests at the same cycle all start immediately.
        let times: Vec<u64> = (0..4)
            .map(|_| b.schedule(TestKind::RayBox, 0).unwrap())
            .collect();
        assert!(times.iter().all(|&t| t == 13), "{times:?}");
        // A 5th queues behind one of them (pipelined: +1 cycle only).
        assert_eq!(b.schedule(TestKind::RayBox, 0).unwrap(), 14);
    }

    #[test]
    fn shader_calls_count_instructions() {
        let cfg = RtaConfig::baseline();
        let mut b = FixedFunctionBackend::new(&cfg);
        b.schedule(TestKind::IntersectionShader, 0).unwrap();
        b.schedule(TestKind::IntersectionShader, 0).unwrap();
        assert_eq!(b.shader_lane_instructions(), 2 * cfg.shader_instructions);
    }
}
