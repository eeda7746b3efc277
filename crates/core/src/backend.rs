//! The TTA configuration: the baseline RTA's fixed-function units with the
//! paper's two minimal modifications (§III-B).
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
//! is why TTA's area overhead is <2% of the Ray-Box unit (§V-C1). The units
//! themselves are the RTA's [`FixedFunctionBackend`] in its modified-units
//! mode, which [`TtaConfig::backend`] builds.

use rta::config::RtaConfig;
use rta::units::FixedFunctionBackend;

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

    /// The TTA intersection backend: the RTA's fixed-function units in
    /// their modified-units mode.
    pub fn backend(&self) -> FixedFunctionBackend {
        FixedFunctionBackend::modified(
            &self.rta,
            self.query_key_latency,
            self.point_to_point_latency,
        )
    }
}

impl Default for TtaConfig {
    fn default() -> Self {
        Self::default_paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rta::units::{IntersectionBackend, TestKind};

    /// The (invocations, busy cycles) of the named unit pool.
    fn pool(b: &FixedFunctionBackend, name: &str) -> (u64, u64) {
        let stats = b.unit_stats();
        let (_, s) = stats.iter().find(|(n, _)| n == name).unwrap();
        (s.invocations, s.busy_cycles)
    }

    #[test]
    fn query_key_runs_on_box_units() {
        let mut b = TtaConfig::default_paper().backend();
        assert_eq!(b.schedule(TestKind::QueryKey, 0), Ok(13));
        assert_eq!(pool(&b, "RayBox/QueryKey"), (1, 13));
        // Isolated min/max variant is faster.
        let mut fast = TtaConfig::isolated_minmax().backend();
        assert_eq!(fast.schedule(TestKind::QueryKey, 0), Ok(3));
    }

    #[test]
    fn point_to_point_runs_on_tri_units() {
        let mut b = TtaConfig::default_paper().backend();
        assert_eq!(b.schedule(TestKind::PointToPoint, 0), Ok(13));
        assert_eq!(pool(&b, "RayTriangle/PointToPoint"), (1, 13));
        // The unmodified Ray-Triangle path still works at full latency
        // (lands on one of the other three idle unit sets).
        assert_eq!(b.schedule(TestKind::RayTriangle, 0), Ok(37));
    }

    #[test]
    fn programs_are_rejected() {
        let mut b = TtaConfig::default_paper().backend();
        assert!(b.schedule(TestKind::Program(0), 0).is_err());
    }

    #[test]
    fn snapshot_roundtrip_preserves_unit_stamps() {
        let mut b = TtaConfig::default_paper().backend();
        b.schedule(TestKind::QueryKey, 0).unwrap();
        b.schedule(TestKind::RayBox, 5).unwrap();
        b.schedule(TestKind::PointToPoint, 7).unwrap();
        let snap = b.export_state();

        let mut fresh = TtaConfig::default_paper().backend();
        fresh.import_state(&snap).expect("snapshot fits");
        assert_eq!(fresh.export_state(), snap, "export/import is lossless");
        assert_eq!(fresh.unit_stats(), b.unit_stats());
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
        let mut b = cfg.backend();
        assert_eq!(b.schedule(TestKind::RayBox, 0), Ok(13));
        // Query-Key on the same (single) box unit issues one cycle later.
        assert_eq!(b.schedule(TestKind::QueryKey, 0), Ok(14));
    }
}
