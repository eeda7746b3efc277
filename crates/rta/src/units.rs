//! Intersection test units: the pluggable timing backend.
//!
//! The traversal engine asks its [`IntersectionBackend`] to *schedule* each
//! test; the backend models structural hazards (a pipelined unit accepts one
//! operation per cycle) and returns the completion cycle. Two backends
//! exist in the workspace:
//!
//! * [`FixedFunctionBackend`] (here) — the Ray-Box / Ray-Triangle
//!   pipelines, the R-XFORM unit and the intersection-shader callback
//!   path. The baseline RTA runs it as is; TTA runs it in its
//!   modified-units mode, where the Ray-Box units also run Query-Key and
//!   the Ray-Triangle units Point-to-Point (§III-B);
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

    /// Adds `other`'s counters to these; the peak is the larger of the two.
    pub fn absorb(&mut self, other: &UnitStats) {
        self.invocations += other.invocations;
        self.busy_cycles += other.busy_cycles;
        self.peak_in_flight = self.peak_in_flight.max(other.peak_in_flight);
        self.total_latency += other.total_latency;
    }

    /// The statistics of a pool of interchangeable units, folded into one.
    pub fn of(units: &[PipelinedUnit]) -> Self {
        let mut s = UnitStats::default();
        for u in units {
            s.absorb(&u.stats);
        }
        s
    }
}

/// Per-program latency statistics of a TTA+ μop program (Fig. 18 bottom).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProgramStats {
    /// Executions of this program.
    pub invocations: u64,
    /// Total latency (arrival to final μop retirement), cycles.
    pub total_latency: u64,
    /// Cycles spent in crossbar transfers.
    pub icnt_cycles: u64,
}

impl ProgramStats {
    /// Average end-to-end intersection latency.
    pub fn avg_latency(&self) -> f64 {
        if self.invocations == 0 {
            0.0
        } else {
            self.total_latency as f64 / self.invocations as f64
        }
    }

    /// Adds `other`'s counters to these.
    pub fn absorb(&mut self, other: &ProgramStats) {
        self.invocations += other.invocations;
        self.total_latency += other.total_latency;
        self.icnt_cycles += other.icnt_cycles;
    }
}

trace::json_fields! {
    UnitStats { invocations, busy_cycles, peak_in_flight, total_latency };
    ProgramStats { invocations, total_latency, icnt_cycles };
}

gpu_sim::snap_row!(ProgramStats {
    invocations,
    total_latency,
    icnt_cycles
});

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

    /// Lane-instructions executed by intersection-shader callbacks (these
    /// run on the general-purpose cores and belong in the core
    /// instruction mix).
    fn shader_lane_instructions(&self) -> u64;

    /// Per-program statistics: (program name, stats) pairs. The default
    /// has none; only TTA+ runs μop programs.
    fn program_stats(&self) -> Vec<(String, ProgramStats)> {
        Vec::new()
    }

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

/// The unit of `pool` that can start an operation soonest at `now` (the
/// first on a tie): how a pool of interchangeable units picks one.
///
/// # Panics
///
/// Panics on an empty pool.
pub fn least_busy(pool: &mut [PipelinedUnit], now: u64) -> &mut PipelinedUnit {
    pool.iter_mut()
        .min_by_key(|u| u.next_free(now))
        .expect("a unit pool needs at least one unit")
}

/// The fixed-function backend: `unit_sets` sets of (Ray-Box, Ray-Triangle)
/// pipelines, a transform unit, and the shader-callback path. The baseline
/// RTA runs it as [`FixedFunctionBackend::new`] builds it; TTA runs it in
/// the modified-units mode of [`FixedFunctionBackend::modified`].
#[derive(Debug)]
pub struct FixedFunctionBackend {
    box_units: Vec<PipelinedUnit>,
    tri_units: Vec<PipelinedUnit>,
    xform_unit: PipelinedUnit,
    shader: PipelinedUnit,
    shader_calls: u64,
    shader_instructions_per_call: u64,
    /// TTA's modified-unit latencies; `None` on the baseline RTA.
    modified: Option<ModifiedUnits>,
    query_key_tests: u64,
    point_tests: u64,
}

/// Latencies of the tests TTA's modified units add (§III-B).
#[derive(Debug, Clone, Copy)]
struct ModifiedUnits {
    query_key: u64,
    point_to_point: u64,
}

impl FixedFunctionBackend {
    /// Builds the baseline RTA's backend from an [`RtaConfig`].
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
            modified: None,
            query_key_tests: 0,
            point_tests: 0,
        }
    }

    /// Builds TTA's modified units (§III-B): the Ray-Box units gain
    /// equality comparators and also run the 9-wide Query-Key comparison
    /// in `query_key_latency` cycles; the Ray-Triangle units gain a bypass
    /// datapath and also run the Point-to-Point distance test in
    /// `point_to_point_latency` cycles.
    pub fn modified(cfg: &RtaConfig, query_key_latency: u64, point_to_point_latency: u64) -> Self {
        FixedFunctionBackend {
            modified: Some(ModifiedUnits {
                query_key: query_key_latency,
                point_to_point: point_to_point_latency,
            }),
            ..Self::new(cfg)
        }
    }

    // The bag: the units' five entries, then the modified mode's two test
    // counters.
    gpu_sim::snap_fields! {
        fn export_units / import_units;
        #[host] box_units,
        #[host] tri_units,
        xform_unit,
        shader,
        shader_calls,
    }

    gpu_sim::snap_fields! {
        fn export_modified / import_modified;
        query_key_tests,
        point_tests,
    }
}

impl IntersectionBackend for FixedFunctionBackend {
    fn schedule(&mut self, kind: TestKind, now: u64) -> Result<u64, UnsupportedTest> {
        match (kind, self.modified) {
            (TestKind::RayBox, _) => Ok(least_busy(&mut self.box_units, now).schedule(now)),
            (TestKind::RayTriangle, _) => Ok(least_busy(&mut self.tri_units, now).schedule(now)),
            (TestKind::QueryKey, Some(m)) => {
                self.query_key_tests += 1;
                Ok(least_busy(&mut self.box_units, now).schedule_with(now, m.query_key))
            }
            (TestKind::PointToPoint, Some(m)) => {
                self.point_tests += 1;
                Ok(least_busy(&mut self.tri_units, now).schedule_with(now, m.point_to_point))
            }
            (TestKind::Transform, _) => Ok(self.xform_unit.schedule(now)),
            (TestKind::IntersectionShader, _) => {
                self.shader_calls += 1;
                Ok(self.shader.schedule(now))
            }
            _ => Err(UnsupportedTest(kind)),
        }
    }

    fn unit_stats(&self) -> Vec<(String, UnitStats)> {
        let (box_name, tri_name) = match self.modified {
            None => ("RayBox", "RayTriangle"),
            Some(_) => ("RayBox/QueryKey", "RayTriangle/PointToPoint"),
        };
        vec![
            (box_name.to_owned(), UnitStats::of(&self.box_units)),
            (tri_name.to_owned(), UnitStats::of(&self.tri_units)),
            ("Transform".to_owned(), self.xform_unit.stats.clone()),
            ("IntersectionShader".to_owned(), self.shader.stats.clone()),
        ]
    }

    fn shader_lane_instructions(&self) -> u64 {
        self.shader_calls * self.shader_instructions_per_call
    }

    fn export_state(&self) -> StateBag {
        let mut bag = self.export_units();
        if self.modified.is_some() {
            for (name, value) in self.export_modified().entries() {
                bag.put(name, value.clone());
            }
        }
        bag
    }

    fn import_state(&mut self, bag: &StateBag) -> Result<(), BagError> {
        self.import_units(bag)?;
        if self.modified.is_some() {
            self.import_modified(bag)?;
        }
        Ok(())
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
    fn unit_stats_absorb_sums_counters_and_keeps_the_peak() {
        let mut a = UnitStats {
            invocations: 3,
            busy_cycles: 39,
            peak_in_flight: 5,
            total_latency: 40,
        };
        a.absorb(&UnitStats {
            invocations: 1,
            busy_cycles: 13,
            peak_in_flight: 2,
            total_latency: 20,
        });
        let want = UnitStats {
            invocations: 4,
            busy_cycles: 52,
            peak_in_flight: 5,
            total_latency: 60,
        };
        assert_eq!(a, want);
    }

    #[test]
    fn backend_routes_kinds_and_rejects_tta_tests() {
        let mut b = FixedFunctionBackend::new(&RtaConfig::baseline());
        assert_eq!(b.schedule(TestKind::RayBox, 0), Ok(13));
        assert_eq!(b.schedule(TestKind::RayTriangle, 0), Ok(37));
        for kind in [
            TestKind::QueryKey,
            TestKind::PointToPoint,
            TestKind::Program(0),
        ] {
            assert_eq!(b.schedule(kind, 0), Err(UnsupportedTest(kind)));
        }
    }

    fn modified(unit_sets: usize) -> FixedFunctionBackend {
        let cfg = RtaConfig {
            unit_sets,
            ..RtaConfig::baseline()
        };
        FixedFunctionBackend::modified(&cfg, 3, 11)
    }

    fn names(b: &FixedFunctionBackend) -> Vec<String> {
        b.unit_stats().into_iter().map(|(n, _)| n).collect()
    }

    #[test]
    fn unit_stat_names_follow_the_mode() {
        let rta = FixedFunctionBackend::new(&RtaConfig::baseline());
        assert_eq!(
            names(&rta),
            ["RayBox", "RayTriangle", "Transform", "IntersectionShader"]
        );
        assert_eq!(
            names(&modified(4)),
            [
                "RayBox/QueryKey",
                "RayTriangle/PointToPoint",
                "Transform",
                "IntersectionShader"
            ]
        );
    }

    #[test]
    fn modified_tests_share_the_fixed_pools_at_their_own_latency() {
        let mut b = modified(1);
        assert_eq!(b.schedule(TestKind::QueryKey, 0), Ok(3));
        assert_eq!(b.schedule(TestKind::PointToPoint, 0), Ok(11));
        // One unit set: each test queues one cycle behind the other kind.
        assert_eq!(b.schedule(TestKind::RayBox, 0), Ok(14));
        assert_eq!(b.schedule(TestKind::RayTriangle, 0), Ok(38));
        let stats = b.unit_stats();
        assert_eq!(stats[0].1.invocations, 2, "Query-Key on the Ray-Box pool");
        assert_eq!(stats[0].1.busy_cycles, 3 + 13);
        assert_eq!(
            stats[1].1.invocations, 2,
            "Point-to-Point on the Ray-Triangle pool"
        );
        assert_eq!(stats[1].1.busy_cycles, 11 + 37);
        assert!(b.schedule(TestKind::Program(0), 0).is_err());
    }

    #[test]
    fn bag_entries_follow_the_mode() {
        let entries = |b: &FixedFunctionBackend| -> Vec<String> {
            let bag = b.export_state();
            bag.entries().iter().map(|(n, _)| n.clone()).collect()
        };
        let units = [
            "box_units",
            "tri_units",
            "xform_unit",
            "shader",
            "shader_calls",
        ];
        assert_eq!(
            entries(&FixedFunctionBackend::new(&RtaConfig::baseline())),
            units
        );
        let mut b = modified(4);
        b.schedule(TestKind::QueryKey, 0).unwrap();
        b.schedule(TestKind::PointToPoint, 0).unwrap();
        b.schedule(TestKind::PointToPoint, 1).unwrap();
        assert_eq!(
            entries(&b),
            [&units[..], &["query_key_tests", "point_tests"]].concat()
        );
        let bag = b.export_state();
        let count = |name| bag.entry(name).unwrap().as_u64(name).unwrap();
        assert_eq!((count("query_key_tests"), count("point_tests")), (1, 2));

        let mut fresh = modified(4);
        fresh.import_state(&bag).expect("snapshot fits");
        assert_eq!(fresh.export_state(), bag, "export/import is lossless");
        // The baseline RTA's bag lacks the modified mode's counters.
        let rta = FixedFunctionBackend::new(&RtaConfig::baseline()).export_state();
        assert!(matches!(
            modified(4).import_state(&rta),
            Err(BagError::Missing(_))
        ));
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
