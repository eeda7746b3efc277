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
use gpu_sim::snapshot::{BagError, Snap, SnapValue, StateBag};

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
    interval: u64,
    next_issue: u64,
    /// The operations in flight (for concurrency accounting).
    in_flight: Occupancy,
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
            interval,
            next_issue: 0,
            in_flight: Occupancy::new(latency),
            stats: UnitStats::default(),
        }
    }

    /// Schedules one operation arriving at `now`; returns completion cycle.
    pub fn schedule(&mut self, now: u64) -> u64 {
        self.schedule_with(now, self.in_flight.latency)
    }

    /// Schedules one operation with an explicit latency (for units that run
    /// multiple operation types, e.g. the TTA Ray-Box unit running both
    /// Ray-Box and Query-Key tests).
    pub fn schedule_with(&mut self, now: u64, latency: u64) -> u64 {
        let start = self.next_issue.max(now);
        self.next_issue = start + self.interval;
        let end = start + latency;
        let in_flight = self.in_flight.start(start, latency);
        self.stats.peak_in_flight = self.stats.peak_in_flight.max(in_flight);
        self.stats.invocations += 1;
        self.stats.busy_cycles += latency;
        self.stats.total_latency += end - now;
        end
    }

    /// Earliest cycle a new op could start.
    pub fn next_free(&self, now: u64) -> u64 {
        self.next_issue.max(now)
    }

    // Snapshot support: the issue stamp, the end times of the operations
    // in flight as of the last start (the peak-occupancy accounting of the
    // next `schedule` depends on them) and the statistics. Latency and
    // interval are configuration and stay out.
    gpu_sim::snap_fields! {
        pub fn export_state / import_state, after import restore_occupancy;
        next_issue,
        in_flight,
        invocations: stats.invocations,
        busy_cycles: stats.busy_cycles,
        peak_in_flight: stats.peak_in_flight,
        total_latency: stats.total_latency,
    }

    /// Anchors the restored in-flight list at the unit's last start,
    /// `next_issue − interval`.
    ///
    /// # Errors
    ///
    /// [`BagError::Mismatch`] when an operation ends before the last
    /// start, or when a unit that never issued has operations in flight:
    /// no run of the unit leaves either.
    fn restore_occupancy(&mut self) -> Result<(), BagError> {
        let occupancy = &mut self.in_flight;
        match self.next_issue.checked_sub(self.interval) {
            None if !occupancy.others.is_empty() => Err(BagError::Mismatch(
                "a unit that never issued has operations in flight".into(),
            )),
            Some(last) if occupancy.others.iter().any(|&(_, end)| end < last) => {
                Err(BagError::Mismatch(format!(
                    "an in-flight operation ends before the unit's last start {last}"
                )))
            }
            last_start => {
                occupancy.last_start = last_start.unwrap_or(0);
                Ok(())
            }
        }
    }
}

gpu_sim::snap_state!(PipelinedUnit, Box<dyn IntersectionBackend>);

/// The operations a [`PipelinedUnit`] has in flight as of its last start.
///
/// Starts are distinct and ascending (each is at least the previous one
/// plus the interval), so an operation at the unit's own latency `L` is in
/// flight at the last start exactly when it started fewer than `L` cycles
/// before it: one bit of `starts` per pipeline stage, retired by shifting
/// and masking to the low `L` bits, and counted by a popcount. Operations
/// the mask cannot hold — another latency (`schedule_with`), a latency of
/// 0 or above 64, or restored from a snapshot — keep `(start, end)` in
/// `others`, which is empty on the hot path.
#[derive(Debug, Clone)]
struct Occupancy {
    /// The unit's own latency.
    latency: u64,
    /// The low `latency` bits, or 0 when `latency` is 0 or above 64.
    stages: u64,
    /// Start cycle of the unit's last operation.
    last_start: u64,
    /// Bit k: an operation at `latency` started k cycles before
    /// `last_start` and is in flight.
    starts: u64,
    /// `(start, end)` of every other operation in flight, in start order.
    /// Restored operations carry start 0: they started before every
    /// operation after the restore.
    others: Vec<(u64, u64)>,
}

impl Occupancy {
    fn new(latency: u64) -> Self {
        let stages = match latency {
            1..=64 => u64::MAX >> (64 - latency),
            _ => 0,
        };
        Occupancy {
            latency,
            stages,
            last_start: 0,
            starts: 0,
            others: Vec::new(),
        }
    }

    /// Records an operation of `latency` starting at `start` (at or after
    /// the last start) and returns how many are then in flight: those
    /// that end after `start`, and the new one.
    #[inline]
    fn start(&mut self, start: u64, latency: u64) -> usize {
        let shift = (start - self.last_start).min(64) as u32;
        self.starts = self.starts.checked_shl(shift).unwrap_or(0) & self.stages;
        self.last_start = start;
        if !self.others.is_empty() {
            self.others.retain(|&(_, end)| end > start);
        }
        if latency == self.latency && self.stages != 0 {
            self.starts |= 1;
        } else {
            self.others.push((start, start + latency));
        }
        self.starts.count_ones() as usize + self.others.len()
    }
}

/// The end times of the operations in flight, in start order: the list a
/// unit that kept every end time and dropped those ended at each start
/// would hold.
impl Snap for Occupancy {
    fn save(&self) -> SnapValue {
        let mut ops: Vec<(u64, u64)> = (0..64)
            .filter(|k| self.starts >> k & 1 == 1)
            .map(|k| {
                let start = self.last_start - k;
                (start, start + self.latency)
            })
            .chain(self.others.iter().copied())
            .collect();
        ops.sort_by_key(|&(start, _)| start);
        SnapValue::List(
            ops.into_iter()
                .map(|(_, end)| SnapValue::U64(end))
                .collect(),
        )
    }

    fn load(&mut self, v: &SnapValue, name: &str) -> Result<(), BagError> {
        let mut ends: Vec<u64> = Vec::new();
        ends.load(v, name)?;
        self.starts = 0;
        self.others = ends.into_iter().map(|end| (0, end)).collect();
        Ok(())
    }
}

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
/// No unit starts before `now`, so the first unit free at `now` is the
/// first minimum and ends the scan; only an all-busy pool is scanned to
/// the end.
///
/// # Panics
///
/// Panics on an empty pool.
pub fn least_busy(pool: &mut [PipelinedUnit], now: u64) -> &mut PipelinedUnit {
    let pick = pool
        .iter()
        .position(|u| u.next_issue <= now)
        .unwrap_or_else(|| {
            let busy = pool.iter().enumerate().min_by_key(|(_, u)| u.next_issue);
            busy.expect("a unit pool needs at least one unit").0
        });
    &mut pool[pick]
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
        assert_eq!(u.stats.peak_in_flight, 2);
    }

    /// The in-flight list `PipelinedUnit` kept before the start mask:
    /// every end time, dropping those ended at each start. The reference
    /// the mask is checked against.
    #[derive(Debug)]
    struct ListUnit {
        latency: u64,
        interval: u64,
        next_issue: u64,
        in_flight: Vec<u64>,
        peak_in_flight: usize,
    }

    impl ListUnit {
        fn new(latency: u64, interval: u64) -> Self {
            ListUnit {
                latency,
                interval,
                next_issue: 0,
                in_flight: Vec::new(),
                peak_in_flight: 0,
            }
        }

        fn schedule(&mut self, now: u64) -> u64 {
            self.schedule_with(now, self.latency)
        }

        fn schedule_with(&mut self, now: u64, latency: u64) -> u64 {
            let start = self.next_issue.max(now);
            self.next_issue = start + self.interval;
            let end = start + latency;
            self.in_flight.retain(|&e| e > start);
            self.in_flight.push(end);
            self.peak_in_flight = self.peak_in_flight.max(self.in_flight.len());
            end
        }
    }

    fn exported_in_flight(u: &PipelinedUnit) -> Vec<u64> {
        let bag = u.export_state();
        let list = bag
            .entry("in_flight")
            .unwrap()
            .as_list("in_flight")
            .unwrap();
        list.iter()
            .map(|v| v.as_u64("in_flight").unwrap())
            .collect()
    }

    /// Runs a unit and the list model side by side over 4000 seeded
    /// arrivals, each at one of `latencies`, and checks completions, the
    /// peak and the exported list after every step. With `resume`, the
    /// unit is sometimes exported and replaced by a fresh one that
    /// imports the bag.
    fn differential(seed: u64, latency: u64, interval: u64, latencies: &[u64], resume: bool) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut unit = PipelinedUnit::with_interval(latency, interval);
        let mut model = ListUnit::new(latency, interval);
        let mut now = 0;
        for step in 0..4000 {
            // Mostly bursts and short gaps, sometimes a gap past the mask.
            now += match rng.random_range(0..10u32) {
                0..=4 => 0,
                5..=8 => rng.random_range(1..2 * latency.max(interval) + 2),
                _ => rng.random_range(60..200),
            };
            let lat = latencies[rng.random_range(0..latencies.len())];
            let (got, want) = if lat == latency {
                (unit.schedule(now), model.schedule(now))
            } else {
                (unit.schedule_with(now, lat), model.schedule_with(now, lat))
            };
            let ctx = format!("seed {seed}, L{latency}/{interval}, step {step}");
            assert_eq!(got, want, "{ctx}: completion");
            assert_eq!(
                unit.stats.peak_in_flight, model.peak_in_flight,
                "{ctx}: peak"
            );
            assert_eq!(exported_in_flight(&unit), model.in_flight, "{ctx}: list");
            if resume && rng.random_range(0..50u32) == 0 {
                let bag = unit.export_state();
                let mut fresh = PipelinedUnit::with_interval(latency, interval);
                fresh.import_state(&bag).expect("own export fits");
                assert_eq!(fresh.export_state(), bag, "{ctx}: lossless");
                unit = fresh;
            }
        }
        assert_eq!(unit.stats.invocations, 4000);
    }

    #[test]
    fn start_mask_matches_the_list_model_at_a_fixed_latency() {
        for (seed, latency) in [(1, 1), (2, 4), (3, 13), (4, 37)] {
            differential(seed, latency, 1, &[latency], false);
        }
    }

    #[test]
    fn start_mask_matches_the_list_model_with_mixed_latencies() {
        differential(5, 37, 1, &[13, 37], false);
        differential(6, 13, 1, &[3, 13], false);
    }

    #[test]
    fn long_latency_units_match_the_list_model() {
        differential(7, 100, 24, &[100], false);
        differential(8, 400, 24, &[400], false);
    }

    #[test]
    fn export_import_and_resume_match_the_list_model() {
        for (seed, latency, interval, latencies) in [
            (9, 4, 1, &[4][..]),
            (10, 37, 1, &[13, 37]),
            (11, 13, 1, &[3, 13]),
            (12, 100, 24, &[100]),
        ] {
            differential(seed, latency, interval, latencies, true);
        }
    }

    /// `bag` with its `in_flight` entry replaced by `ends`.
    fn with_in_flight(bag: &StateBag, ends: &[u64]) -> StateBag {
        let mut out = StateBag::new();
        for (name, value) in bag.entries() {
            let value = match name.as_str() {
                "in_flight" => SnapValue::List(ends.iter().map(|&e| SnapValue::U64(e)).collect()),
                _ => value.clone(),
            };
            out.put(name, value);
        }
        out
    }

    #[test]
    fn import_rejects_in_flight_lists_no_run_leaves() {
        let mut u = PipelinedUnit::new(13);
        u.schedule(100);
        u.schedule(100);
        let bag = u.export_state();
        assert_eq!(exported_in_flight(&u), [113, 114]);
        // Last start 101: an operation may end there (latency 0), not before.
        let mut fresh = PipelinedUnit::new(13);
        fresh
            .import_state(&with_in_flight(&bag, &[101, 114]))
            .unwrap();
        assert!(matches!(
            PipelinedUnit::new(13).import_state(&with_in_flight(&bag, &[100, 114])),
            Err(BagError::Mismatch(_))
        ));
        let never_issued = PipelinedUnit::new(13).export_state();
        assert!(matches!(
            PipelinedUnit::new(13).import_state(&with_in_flight(&never_issued, &[13])),
            Err(BagError::Mismatch(_))
        ));
    }

    #[test]
    fn least_busy_picks_the_first_soonest_free_unit() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(27);
        for size in [1, 2, 3, 16] {
            for _ in 0..500 {
                let mut pool: Vec<PipelinedUnit> =
                    (0..size).map(|_| PipelinedUnit::new(4)).collect();
                // Few distinct stamps, so ties are common; `now` below
                // every stamp leaves the whole pool busy.
                for u in &mut pool {
                    for _ in 0..rng.random_range(0..4u32) {
                        u.schedule(rng.random_range(0..4));
                    }
                }
                let now = rng.random_range(0..5);
                let (want, _) = pool
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, u)| u.next_free(now))
                    .unwrap();
                let picked: *const PipelinedUnit = least_busy(&mut pool, now);
                assert!(std::ptr::eq(picked, &pool[want]), "size {size}, now {now}");
            }
        }
        // All busy: the earliest stamp wins, the first on a tie.
        let mut pool: Vec<PipelinedUnit> = (0..3).map(|_| PipelinedUnit::new(4)).collect();
        for (u, at) in pool.iter_mut().zip([9, 7, 7]) {
            u.schedule(at);
        }
        let picked: *const PipelinedUnit = least_busy(&mut pool, 0);
        assert!(std::ptr::eq(picked, &pool[1]));
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
