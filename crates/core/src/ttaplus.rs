//! The TTA+ backend: modular OP units behind a crossbar (§III-C, Fig. 10).
//!
//! An intersection test is a [`UopProgram`]; executing it means visiting the
//! OP units in μop order, paying a crossbar transfer between consecutive
//! μops plus each unit's Table-I latency, with structural hazards when
//! multiple in-flight rays contend for the same unit. This serialisation is
//! exactly the overhead the paper measures: the Ray-Box test's latency grows
//! ~10× (Fig. 18 bottom) yet end-to-end ray tracing only slows ~8%
//! (Fig. 16) because traversal remains memory-bound. Intersection tests
//! that TTA+ does not offload fall back to the baseline RTA's
//! intersection-shader path.

use std::ops::Range;

use rta::config::RtaConfig;
use rta::units::{
    least_busy, IntersectionBackend, PipelinedUnit, ProgramStats, TestKind, UnitStats,
    UnsupportedTest,
};

use crate::op_unit::OpUnit;
use crate::programs::UopProgram;

/// TTA+ configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct TtaPlusConfig {
    /// OP unit instances per type ("we implement our TTA+ with one of each
    /// operation unit, which is the most general configuration", §V-C2).
    pub units_per_type: usize,
    /// Crossbar hop latency per μop-to-μop transfer, cycles.
    pub crossbar_hop_latency: u64,
    /// Concurrent transfers the 16×16 crossbar sustains per cycle
    /// (modelled as that many pipelined transfer lanes).
    pub crossbar_parallel_transfers: usize,
    /// Include a SQRT unit (+36.4% area, Table IV). Without it, programs
    /// containing SQRT μops are rejected — the "TTA+ without SQRT" design
    /// point.
    pub with_sqrt: bool,
}

impl TtaPlusConfig {
    /// The paper's evaluated configuration: SQRT included, a 16×16
    /// crosspoint switch (16 concurrent transfers), hop latency tuned so a
    /// 19-μop Ray-Box lands near the ~10× latency of Fig. 18, and one OP
    /// unit of each type *per intersection-unit set* (Table II configures
    /// 4 sets; Table IV's area column prices a single set).
    pub fn default_paper() -> Self {
        TtaPlusConfig {
            units_per_type: 4,
            crossbar_hop_latency: 4,
            crossbar_parallel_transfers: 16,
            with_sqrt: true,
        }
    }

    /// The §V-C2 minimal configuration: literally one unit of each type —
    /// the area-optimal design point, throughput-bound on MINMAX-heavy
    /// workloads (an ablation the paper leaves to future work).
    pub fn single_units() -> Self {
        TtaPlusConfig {
            units_per_type: 1,
            ..Self::default_paper()
        }
    }
}

impl Default for TtaPlusConfig {
    fn default() -> Self {
        Self::default_paper()
    }
}

/// The TTA+ backend.
#[derive(Debug)]
pub struct TtaPlusBackend {
    /// Every OP unit, pooled by type in [`OpUnit::ALL`] order.
    units: Vec<PipelinedUnit>,
    /// Each type's pool in `units`, indexed by [`OpUnit::index`]. SQRT's
    /// is empty without `with_sqrt`; an empty pool is not a configured
    /// unit.
    pools: [Range<usize>; OpUnit::ALL.len()],
    crossbar: Vec<PipelinedUnit>,
    programs: Vec<UopProgram>,
    program_stats: Vec<ProgramStats>,
    /// The canned Table III programs, parallel to [`BUILTIN_TRACE_ORDER`].
    builtin: [UopProgram; 5],
    /// Their statistics; an all-zero row means the program never ran.
    builtin_stats: [ProgramStats; 5],
    shader: PipelinedUnit,
    shader_calls: u64,
    shader_instructions_per_call: u64,
    trace: trace::TraceHandle,
    /// Monotone id for per-invocation trace spans.
    trace_invocations: u64,
}

impl TtaPlusBackend {
    /// Creates a backend with the given custom `programs` (addressed by
    /// [`TestKind::Program`] index). Standard test kinds (Ray-Box,
    /// Ray-Triangle, Query-Key, Point-to-Point, Transform) are mapped to
    /// the canned Table III programs automatically.
    ///
    /// # Panics
    ///
    /// Panics if `units_per_type` or the crossbar width is zero, or when a
    /// registered program needs SQRT while `with_sqrt` is false.
    pub fn new(cfg: TtaPlusConfig, programs: Vec<UopProgram>) -> Self {
        assert!(cfg.units_per_type > 0);
        assert!(cfg.crossbar_parallel_transfers > 0);
        for p in &programs {
            assert!(
                cfg.with_sqrt || !p.needs_sqrt(),
                "program `{}` needs the SQRT unit but this TTA+ has none",
                p.name()
            );
        }
        let mut units = Vec::new();
        let pools = OpUnit::ALL.map(|u| {
            let start = units.len();
            if u != OpUnit::Sqrt || cfg.with_sqrt {
                units.extend((0..cfg.units_per_type).map(|_| PipelinedUnit::new(u.latency())));
            }
            start..units.len()
        });
        let crossbar = (0..cfg.crossbar_parallel_transfers)
            .map(|_| PipelinedUnit::new(cfg.crossbar_hop_latency))
            .collect();
        let builtin = BUILTIN_TESTS.map(|k| UopProgram::canned(k).expect("a fixed-function test"));
        let program_stats = vec![ProgramStats::default(); programs.len()];
        let rta = RtaConfig::baseline();
        TtaPlusBackend {
            shader: PipelinedUnit::with_interval(rta.shader_callback_latency, rta.shader_interval),
            shader_calls: 0,
            shader_instructions_per_call: rta.shader_instructions,
            units,
            pools,
            crossbar,
            programs,
            program_stats,
            builtin,
            builtin_stats: Default::default(),
            trace: trace::TraceHandle::default(),
            trace_invocations: 0,
        }
    }

    fn run_program_indexed(&mut self, which: ProgramRef, now: u64) -> u64 {
        let program = match which {
            ProgramRef::Custom(i) => &self.programs[i],
            ProgramRef::Builtin(i) => &self.builtin[i],
        };
        let mut t = now;
        let mut icnt = 0u64;
        for uop in program.uops() {
            // Crossbar transfer to the unit's input port.
            let after_hop = least_busy(&mut self.crossbar, t).schedule(t);
            icnt += after_hop - t;
            // Execute on the (possibly contended) OP unit.
            let pool = &mut self.units[self.pools[uop.unit.index()].clone()];
            t = least_busy(pool, after_hop).schedule(after_hop);
        }
        let stats = match which {
            ProgramRef::Custom(i) => &mut self.program_stats[i],
            ProgramRef::Builtin(i) => &mut self.builtin_stats[i],
        };
        stats.invocations += 1;
        stats.total_latency += t - now;
        stats.icnt_cycles += icnt;
        if self.trace.enabled() {
            let (track, name) = match which {
                ProgramRef::Custom(i) => (trace::Track::Program(i as u32), "uop_program"),
                ProgramRef::Builtin(i) => (
                    trace::Track::Program(trace::Track::BUILTIN_PROGRAM_BASE + i as u32),
                    BUILTIN_TRACE_ORDER[i],
                ),
            };
            let id = self.trace_invocations;
            self.trace_invocations += 1;
            self.trace.async_span(track, name, id, now, t, icnt);
        }
        t
    }
}

/// The fixed-function tests whose [`UopProgram::canned`] programs fill the
/// `builtin` slots, in [`BUILTIN_TRACE_ORDER`].
const BUILTIN_TESTS: [TestKind; 5] = [
    TestKind::RayBox,
    TestKind::RayTriangle,
    TestKind::QueryKey,
    TestKind::PointToPoint,
    TestKind::Transform,
];

/// Stable ordering of the built-in Table III programs: trace tracks,
/// `builtin`/`builtin_stats` slots, snapshot rows and reported programs.
const BUILTIN_TRACE_ORDER: [&str; 5] = [
    "ray_box",
    "ray_triangle",
    "query_key_inner",
    "point_to_point",
    "transform",
];

#[derive(Debug, Clone, Copy)]
enum ProgramRef {
    Custom(usize),
    /// Index into [`BUILTIN_TRACE_ORDER`].
    Builtin(usize),
}

impl IntersectionBackend for TtaPlusBackend {
    fn schedule(&mut self, kind: TestKind, now: u64) -> Result<u64, UnsupportedTest> {
        // Builtin slots follow BUILTIN_TESTS.
        let which = match kind {
            TestKind::RayBox => ProgramRef::Builtin(0),
            TestKind::RayTriangle => ProgramRef::Builtin(1),
            TestKind::QueryKey => ProgramRef::Builtin(2),
            TestKind::PointToPoint => ProgramRef::Builtin(3),
            TestKind::Transform => ProgramRef::Builtin(4),
            TestKind::IntersectionShader => {
                self.shader_calls += 1;
                return Ok(self.shader.schedule(now));
            }
            TestKind::Program(i) => {
                if (i as usize) >= self.programs.len() {
                    return Err(UnsupportedTest(kind));
                }
                ProgramRef::Custom(i as usize)
            }
        };
        Ok(self.run_program_indexed(which, now))
    }

    fn set_trace(&mut self, trace: trace::TraceHandle) {
        self.trace = trace;
    }

    fn unit_stats(&self) -> Vec<(String, UnitStats)> {
        let pools = OpUnit::ALL
            .into_iter()
            .zip(&self.pools)
            .filter(|(_, pool)| !pool.is_empty())
            .map(|(u, pool)| {
                (
                    u.name().to_owned(),
                    UnitStats::of(&self.units[pool.clone()]),
                )
            });
        pools
            .chain([
                ("ICNT".to_owned(), UnitStats::of(&self.crossbar)),
                ("IntersectionShader".to_owned(), self.shader.stats.clone()),
            ])
            .collect()
    }

    fn shader_lane_instructions(&self) -> u64 {
        self.shader_calls * self.shader_instructions_per_call
    }

    /// The builtins that ran, in [`BUILTIN_TRACE_ORDER`], then every
    /// custom program as `program_{i}`.
    fn program_stats(&self) -> Vec<(String, ProgramStats)> {
        let builtins = BUILTIN_TRACE_ORDER
            .iter()
            .zip(&self.builtin_stats)
            .filter(|(_, s)| s.invocations > 0)
            .map(|(name, s)| ((*name).to_owned(), s.clone()));
        let custom = self
            .program_stats
            .iter()
            .enumerate()
            .map(|(i, s)| (format!("program_{i}"), s.clone()));
        builtins.chain(custom).collect()
    }

    gpu_sim::snap_fields! {
        fn export_state / import_state;
        #[host] units,
        #[host] crossbar,
        #[host] program_stats,
        builtin_stats,
        shader,
        shader_calls,
        trace_invocations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::snapshot::BagError;

    #[test]
    fn ray_box_latency_blows_up_about_10x() {
        let mut b = TtaPlusBackend::new(TtaPlusConfig::default_paper(), vec![]);
        let done = b.schedule(TestKind::RayBox, 0).unwrap();
        // Baseline Ray-Box is 13 cycles; TTA+ should land near 10x that
        // (Fig. 18 bottom reports ~10x for ray-tracing applications).
        assert!(
            (100..200).contains(&done),
            "TTA+ Ray-Box latency {done} not ~10x of 13"
        );
    }

    #[test]
    fn query_key_is_cheaper_than_ray_box() {
        let mut b = TtaPlusBackend::new(TtaPlusConfig::default_paper(), vec![]);
        let qk = b.schedule(TestKind::QueryKey, 0).unwrap();
        let rb = b.schedule(TestKind::RayBox, 1000).unwrap() - 1000;
        assert!(
            qk < rb,
            "12-μop Query-Key ({qk}) must beat 19-μop Ray-Box ({rb})"
        );
    }

    #[test]
    fn custom_programs_run_and_record_stats() {
        let p = UopProgram::ray_sphere_leaf();
        let mut b = TtaPlusBackend::new(TtaPlusConfig::default_paper(), vec![p]);
        let done = b.schedule(TestKind::Program(0), 0).unwrap();
        assert!(done > 0);
        let stats = b.program_stats();
        assert_eq!(stats.len(), 1, "no builtin ran: {stats:?}");
        let (name, s) = &stats[0];
        assert_eq!(name, "program_0");
        assert_eq!(s.invocations, 1);
        assert!(s.icnt_cycles > 0, "crossbar time must be accounted");
        assert!(b.schedule(TestKind::Program(7), 0).is_err());
    }

    #[test]
    #[should_panic(expected = "SQRT")]
    fn sqrt_program_without_sqrt_unit_panics() {
        let cfg = TtaPlusConfig {
            with_sqrt: false,
            ..TtaPlusConfig::default_paper()
        };
        let _ = TtaPlusBackend::new(cfg, vec![UopProgram::ray_sphere_leaf()]);
    }

    #[test]
    fn structural_hazards_serialize_concurrent_tests() {
        let mut b = TtaPlusBackend::new(TtaPlusConfig::single_units(), vec![]);
        let first = b.schedule(TestKind::RayBox, 0).unwrap();
        let second = b.schedule(TestKind::RayBox, 0).unwrap();
        assert!(
            second > first,
            "single units must serialise ({first} vs {second})"
        );
    }

    #[test]
    fn shader_fallback_still_available() {
        let mut b = TtaPlusBackend::new(TtaPlusConfig::default_paper(), vec![]);
        let done = b.schedule(TestKind::IntersectionShader, 0).unwrap();
        assert_eq!(done, 400);
        assert_eq!(b.shader_lane_instructions(), 40);
        // Throughput is bounded by the shader initiation interval.
        let second = b.schedule(TestKind::IntersectionShader, 0).unwrap();
        assert_eq!(second, 424);
    }

    #[test]
    fn snapshot_roundtrip_replays_contention() {
        let p = UopProgram::ray_sphere_leaf();
        let mut b = TtaPlusBackend::new(TtaPlusConfig::default_paper(), vec![p.clone()]);
        b.schedule(TestKind::RayBox, 0).unwrap();
        b.schedule(TestKind::Program(0), 3).unwrap();
        let snap = b.export_state();

        let mut fresh = TtaPlusBackend::new(TtaPlusConfig::default_paper(), vec![p]);
        fresh.import_state(&snap).expect("snapshot fits");
        assert_eq!(fresh.export_state(), snap, "export/import is lossless");
        assert_eq!(fresh.program_stats(), b.program_stats());
        let names: Vec<String> = fresh.program_stats().into_iter().map(|(n, _)| n).collect();
        assert_eq!(
            names,
            ["ray_box", "program_0"],
            "never-ran builtins stay absent after restore"
        );
        // Structural hazards replay identically from the restored stamps.
        assert_eq!(
            fresh.schedule(TestKind::RayBox, 10),
            b.schedule(TestKind::RayBox, 10)
        );
    }

    #[test]
    fn snapshot_rejects_program_count_mismatch() {
        let mut b = TtaPlusBackend::new(TtaPlusConfig::default_paper(), vec![]);
        b.schedule(TestKind::RayBox, 0).unwrap();
        let snap = b.export_state();
        let mut other = TtaPlusBackend::new(
            TtaPlusConfig::default_paper(),
            vec![UopProgram::ray_sphere_leaf()],
        );
        assert!(matches!(
            other.import_state(&snap),
            Err(BagError::Mismatch(_))
        ));
    }

    #[test]
    fn without_sqrt_its_pool_is_absent_from_stats_and_snapshot() {
        let cfg = TtaPlusConfig {
            with_sqrt: false,
            ..TtaPlusConfig::default_paper()
        };
        let mut b = TtaPlusBackend::new(cfg.clone(), vec![]);
        b.schedule(TestKind::RayBox, 0).unwrap();
        let names: Vec<String> = b.unit_stats().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names.len(), OpUnit::ALL.len() - 1 + 2, "{names:?}");
        assert!(!names.iter().any(|n| n == "SQRT"), "{names:?}");
        let snap = b.export_state();
        let units = snap.get("units").unwrap().as_list("units").unwrap();
        assert_eq!(units.len(), (OpUnit::ALL.len() - 1) * cfg.units_per_type);
        let mut fresh = TtaPlusBackend::new(cfg, vec![]);
        fresh.import_state(&snap).expect("snapshot fits");
        assert_eq!(fresh.export_state(), snap);
        // A with-SQRT host has one pool more.
        let mut full = TtaPlusBackend::new(TtaPlusConfig::default_paper(), vec![]);
        assert!(matches!(
            full.import_state(&snap),
            Err(BagError::Mismatch(_))
        ));
    }

    #[test]
    fn unit_stats_cover_all_units_and_icnt() {
        let mut b = TtaPlusBackend::new(TtaPlusConfig::default_paper(), vec![]);
        b.schedule(TestKind::RayBox, 0).unwrap();
        let stats = b.unit_stats();
        let names: Vec<&str> = stats.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"MINMAX"));
        assert!(names.contains(&"ICNT"));
        let icnt = &stats.iter().find(|(n, _)| n == "ICNT").unwrap().1;
        assert_eq!(icnt.invocations, 19, "one hop per μop");
    }
}
