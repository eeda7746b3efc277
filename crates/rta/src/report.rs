//! The accelerator report: a run's engine, unit, program and shader
//! counters. Each [`TraversalEngine`] reports its own, [`AccelReport::harvest`]
//! folds the per-SM reports of a GPU, and a fleet folds its devices'
//! reports with the same [`AccelReport::absorb`].

use gpu_sim::Gpu;

use crate::engine::{EngineStats, TraversalEngine};
use crate::units::{ProgramStats, UnitStats};

/// Aggregated accelerator-side report (summed over the per-SM engines).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AccelReport {
    /// Engine counters summed across SMs.
    pub engine: EngineStats,
    /// Unit statistics summed by unit name.
    pub units: Vec<(String, UnitStats)>,
    /// Per-program average latencies (TTA+ only): (name, stats).
    pub programs: Vec<(String, ProgramStats)>,
    /// Lane-instructions spent in intersection-shader callbacks.
    pub shader_lane_instructions: u64,
    /// Total `traverseTree` instructions executed.
    pub traversals: u64,
}

impl AccelReport {
    /// Folds the reports of the traversal engines attached to `gpu`, in SM
    /// order; `None` when no SM has one.
    pub fn harvest(gpu: &Gpu) -> Option<AccelReport> {
        Self::merge((0..gpu.cfg.num_sms).filter_map(|sm| {
            let engine = gpu
                .accelerator(sm)?
                .as_any()
                .downcast_ref::<TraversalEngine>()?;
            Some(engine.report())
        }))
    }

    /// Folds `reports` in order with [`AccelReport::absorb`]; `None` when
    /// there are none.
    pub fn merge(reports: impl IntoIterator<Item = AccelReport>) -> Option<AccelReport> {
        reports.into_iter().reduce(|mut acc, r| {
            acc.absorb(&r);
            acc
        })
    }

    /// Adds `other`'s counters to these. Units and programs merge by
    /// name; a name not seen yet is appended, so names keep first-seen
    /// order.
    pub fn absorb(&mut self, other: &AccelReport) {
        self.engine.absorb(&other.engine);
        absorb_by_name(&mut self.units, &other.units, UnitStats::absorb);
        absorb_by_name(&mut self.programs, &other.programs, ProgramStats::absorb);
        self.shader_lane_instructions += other.shader_lane_instructions;
        self.traversals += other.traversals;
    }

    /// Finds a unit's stats by name.
    pub fn unit(&self, name: &str) -> Option<&UnitStats> {
        self.units.iter().find(|(n, _)| n == name).map(|(_, s)| s)
    }
}

fn absorb_by_name<T: Clone>(
    into: &mut Vec<(String, T)>,
    from: &[(String, T)],
    absorb: fn(&mut T, &T),
) {
    for (name, s) in from {
        match into.iter_mut().find(|(n, _)| n == name) {
            Some((_, t)) => absorb(t, s),
            None => into.push((name.clone(), s.clone())),
        }
    }
}

trace::json_fields! {
    AccelReport { engine, units, programs, shader_lane_instructions, traversals };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(invocations: u64, peak_in_flight: usize) -> UnitStats {
        UnitStats {
            invocations,
            busy_cycles: 10 * invocations,
            peak_in_flight,
            total_latency: 20 * invocations,
        }
    }

    fn program(invocations: u64) -> ProgramStats {
        ProgramStats {
            invocations,
            total_latency: 100 * invocations,
            icnt_cycles: 30 * invocations,
        }
    }

    /// Engine counters 1..=8, each times `k`.
    fn engine(k: u64) -> EngineStats {
        EngineStats {
            warps_accepted: k,
            rays_completed: 2 * k,
            node_fetches: 3 * k,
            fetch_merges: 4 * k,
            nodes_processed: 5 * k,
            warp_buffer_accesses: 6 * k,
            prefetches: 7 * k,
            busy_cycles: 8 * k,
        }
    }

    fn report(units: &[(&str, UnitStats)], programs: &[(&str, ProgramStats)]) -> AccelReport {
        AccelReport {
            engine: engine(1),
            units: units
                .iter()
                .map(|(n, s)| ((*n).to_owned(), s.clone()))
                .collect(),
            programs: programs
                .iter()
                .map(|(n, s)| ((*n).to_owned(), s.clone()))
                .collect(),
            shader_lane_instructions: 40,
            traversals: 9,
        }
    }

    fn names<T>(list: &[(String, T)]) -> Vec<&str> {
        list.iter().map(|(n, _)| n.as_str()).collect()
    }

    #[test]
    fn absorb_keeps_first_seen_order_and_appends_new_names() {
        let mut acc = report(
            &[("RayBox", unit(2, 3)), ("Transform", unit(1, 1))],
            &[("query_key_inner", program(4))],
        );
        acc.absorb(&report(
            &[("IntersectionShader", unit(5, 2)), ("RayBox", unit(1, 7))],
            &[("ray_box", program(1)), ("query_key_inner", program(2))],
        ));
        assert_eq!(
            names(&acc.units),
            ["RayBox", "Transform", "IntersectionShader"]
        );
        assert_eq!(names(&acc.programs), ["query_key_inner", "ray_box"]);
        assert_eq!(acc.unit("RayBox"), Some(&unit(3, 7)));
        assert_eq!(acc.programs[0].1, program(6));
        assert_eq!(acc.engine, engine(2), "every engine counter sums");
        assert_eq!(acc.shader_lane_instructions, 80);
        assert_eq!(acc.traversals, 18);
    }

    #[test]
    fn absorbing_into_default_returns_the_report_unchanged() {
        let r = report(
            &[("MINMAX", unit(2, 3)), ("ICNT", unit(6, 4))],
            &[("ray_box", program(1)), ("program_0", program(0))],
        );
        let mut acc = AccelReport::default();
        acc.absorb(&r);
        assert_eq!(acc, r);
    }
}
