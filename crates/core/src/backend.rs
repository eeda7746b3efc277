//! The TTA intersection backend: the baseline RTA's fixed-function units
//! with the paper's two minimal modifications (§III-B).
//!
//! * The **Ray-Box unit** gains equality comparators after its min/max and
//!   max/min networks (Fig. 9), letting it execute a 9-wide **Query-Key
//!   comparison** in one issue.
//! * The **Ray-Triangle unit** gains a bypass datapath (bold path of
//!   Fig. 8-②) that computes the **Point-to-Point distance** test using its
//!   existing subtractor, dot-product, multiplier and comparator.
//!
//! Everything else — warp buffer, memory scheduler, Ray-Box/Ray-Triangle
//! for actual ray tracing, shader callbacks — is inherited unchanged, which
//! is why TTA's area overhead is <2% of the Ray-Box unit (§V-C1).

use rta::config::RtaConfig;
use rta::units::{IntersectionBackend, PipelinedUnit, TestKind, UnitStats, UnsupportedTest};

/// TTA configuration: the baseline RTA plus the modified-unit latencies.
#[derive(Debug, Clone, PartialEq)]
pub struct TtaConfig {
    /// Underlying RTA structure (warp buffer, unit sets, base latencies).
    pub rta: RtaConfig,
    /// Latency of a Query-Key comparison on the modified Ray-Box unit.
    /// Defaults to the full 13-cycle pipeline; Fig. 14 also evaluates an
    /// isolated 3-cycle min/max configuration and a 10× (130-cycle) one.
    pub query_key_latency: u64,
    /// Latency of a Point-to-Point distance on the modified Ray-Triangle
    /// datapath (a subset of the 37-cycle pipeline).
    pub point_to_point_latency: u64,
}

impl TtaConfig {
    /// The paper's default TTA configuration.
    pub fn default_paper() -> Self {
        TtaConfig {
            rta: RtaConfig::baseline(),
            query_key_latency: 13,
            point_to_point_latency: 13,
        }
    }

    /// Fig. 14 variant: isolated min/max network (3-cycle Query-Key).
    pub fn isolated_minmax() -> Self {
        TtaConfig {
            query_key_latency: 3,
            ..Self::default_paper()
        }
    }
}

impl Default for TtaConfig {
    fn default() -> Self {
        Self::default_paper()
    }
}

/// The TTA backend: modified fixed-function units.
#[derive(Debug)]
pub struct TtaBackend {
    cfg: TtaConfig,
    box_units: Vec<PipelinedUnit>,
    tri_units: Vec<PipelinedUnit>,
    xform_unit: PipelinedUnit,
    shader: PipelinedUnit,
    shader_calls: u64,
    query_key_tests: u64,
    point_tests: u64,
}

impl TtaBackend {
    /// Builds the backend.
    pub fn new(cfg: TtaConfig) -> Self {
        cfg.rta.validate();
        TtaBackend {
            box_units: (0..cfg.rta.unit_sets)
                .map(|_| PipelinedUnit::new(cfg.rta.ray_box_latency))
                .collect(),
            tri_units: (0..cfg.rta.unit_sets)
                .map(|_| PipelinedUnit::new(cfg.rta.ray_triangle_latency))
                .collect(),
            xform_unit: PipelinedUnit::new(cfg.rta.transform_latency),
            shader: PipelinedUnit::with_interval(
                cfg.rta.shader_callback_latency,
                cfg.rta.shader_interval,
            ),
            shader_calls: 0,
            query_key_tests: 0,
            point_tests: 0,
            cfg,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &TtaConfig {
        &self.cfg
    }

    /// Query-Key comparisons executed (Fig. 15 bookkeeping).
    pub fn query_key_tests(&self) -> u64 {
        self.query_key_tests
    }

    /// Point-to-Point tests executed.
    pub fn point_tests(&self) -> u64 {
        self.point_tests
    }

    fn least_busy(units: &mut [PipelinedUnit], now: u64) -> &mut PipelinedUnit {
        units
            .iter_mut()
            .min_by_key(|u| u.next_free(now))
            .expect("at least one unit per kind")
    }
}

impl IntersectionBackend for TtaBackend {
    fn schedule(&mut self, kind: TestKind, now: u64) -> Result<u64, UnsupportedTest> {
        match kind {
            TestKind::RayBox => Ok(Self::least_busy(&mut self.box_units, now).schedule(now)),
            TestKind::RayTriangle => Ok(Self::least_busy(&mut self.tri_units, now).schedule(now)),
            TestKind::QueryKey => {
                self.query_key_tests += 1;
                let lat = self.cfg.query_key_latency;
                Ok(Self::least_busy(&mut self.box_units, now).schedule_with(now, lat))
            }
            TestKind::PointToPoint => {
                self.point_tests += 1;
                let lat = self.cfg.point_to_point_latency;
                Ok(Self::least_busy(&mut self.tri_units, now).schedule_with(now, lat))
            }
            TestKind::Transform => Ok(self.xform_unit.schedule(now)),
            TestKind::IntersectionShader => {
                self.shader_calls += 1;
                Ok(self.shader.schedule(now))
            }
            TestKind::Program(_) => Err(UnsupportedTest(kind)),
        }
    }

    fn unit_stats(&self) -> Vec<(String, UnitStats)> {
        vec![
            ("RayBox/QueryKey".to_owned(), UnitStats::of(&self.box_units)),
            (
                "RayTriangle/PointToPoint".to_owned(),
                UnitStats::of(&self.tri_units),
            ),
            ("Transform".to_owned(), self.xform_unit.stats.clone()),
            ("IntersectionShader".to_owned(), self.shader.stats.clone()),
        ]
    }

    fn shader_lane_instructions(&self) -> u64 {
        self.shader_calls * self.cfg.rta.shader_instructions
    }

    gpu_sim::snap_fields! {
        fn export_state / import_state;
        #[host] box_units,
        #[host] tri_units,
        xform_unit,
        shader,
        shader_calls,
        query_key_tests,
        point_tests,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_key_runs_on_box_units() {
        let mut b = TtaBackend::new(TtaConfig::default_paper());
        assert_eq!(b.schedule(TestKind::QueryKey, 0), Ok(13));
        assert_eq!(b.query_key_tests(), 1);
        // Isolated min/max variant is faster.
        let mut fast = TtaBackend::new(TtaConfig::isolated_minmax());
        assert_eq!(fast.schedule(TestKind::QueryKey, 0), Ok(3));
    }

    #[test]
    fn point_to_point_runs_on_tri_units() {
        let mut b = TtaBackend::new(TtaConfig::default_paper());
        assert_eq!(b.schedule(TestKind::PointToPoint, 0), Ok(13));
        assert_eq!(b.point_tests(), 1);
        // The unmodified Ray-Triangle path still works at full latency
        // (lands on one of the other three idle unit sets).
        assert_eq!(b.schedule(TestKind::RayTriangle, 0), Ok(37));
    }

    #[test]
    fn programs_are_rejected() {
        let mut b = TtaBackend::new(TtaConfig::default_paper());
        assert!(b.schedule(TestKind::Program(0), 0).is_err());
    }

    #[test]
    fn snapshot_roundtrip_preserves_unit_stamps() {
        let mut b = TtaBackend::new(TtaConfig::default_paper());
        b.schedule(TestKind::QueryKey, 0).unwrap();
        b.schedule(TestKind::RayBox, 5).unwrap();
        b.schedule(TestKind::PointToPoint, 7).unwrap();
        let snap = b.export_state();

        let mut fresh = TtaBackend::new(TtaConfig::default_paper());
        fresh.import_state(&snap).expect("snapshot fits");
        assert_eq!(fresh.export_state(), snap, "export/import is lossless");
        assert_eq!(fresh.query_key_tests(), 1);
        assert_eq!(fresh.point_tests(), 1);
        // Scheduling after restore lands exactly where the original does.
        assert_eq!(
            fresh.schedule(TestKind::RayBox, 8),
            b.schedule(TestKind::RayBox, 8)
        );
    }

    #[test]
    fn query_key_contends_with_ray_box() {
        let cfg = TtaConfig {
            rta: RtaConfig {
                unit_sets: 1,
                ..RtaConfig::baseline()
            },
            ..TtaConfig::default_paper()
        };
        let mut b = TtaBackend::new(cfg);
        assert_eq!(b.schedule(TestKind::RayBox, 0), Ok(13));
        // Query-Key on the same (single) box unit issues one cycle later.
        assert_eq!(b.schedule(TestKind::QueryKey, 0), Ok(14));
    }
}
