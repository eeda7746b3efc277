//! Static cycle-bound predictions for the shipped experiments.
//!
//! [`gpu_sim::absint::cycle_bounds`] brackets one *launch* of one kernel
//! given declared [`CostFacts`]; this module derives those facts and
//! composes the per-launch brackets along the launch plan a session
//! executes. Each workload walks its host tree oracle once
//! ([`QueryWorkload::walk`]) into a [`Walk`]; a kernel's row in
//! [`shipped_kernels`] turns a walk into its facts
//! ([`ShippedKernel::facts`]); and [`predict`] folds the brackets over a
//! [`QuerySession`]'s own plan. The result is a static `[lower, upper]`
//! bracket on the `RunResult::stats.cycles` the experiment will measure,
//! which the `cost_gate` integration suite (and CI) re-validates on every
//! run.
//!
//! The facts are *input-derived but simulator-independent*: trip counts
//! come from walking the host tree (nodes visited per query, fanout
//! constants), never from running the simulator. Traversal-step brackets
//! charge each accelerator node step with [`step_cost_upper`]: a full
//! node-fetch round trip, the slowest intersection test the platform can
//! schedule, a worst-case shader callback, and the submit path, plus a
//! fixed [`STEP_SLACK`] absorbing engine bookkeeping (warp-buffer entry,
//! fetch-queue issue, retry events). The documented tolerance of the
//! whole model is exactly this bracket: predictions are validated by
//! containment (measured ∈ [lower, upper]) plus a per-row tightness
//! ceiling on upper/lower, not by point equality.

use gpu_sim::absint::{cycle_bounds, CostFacts, CycleBounds, LaunchBounds, TraversalFact};
use gpu_sim::isa::Instr;
use gpu_sim::kernel::Kernel;
use gpu_sim::GpuConfig;
use rta::config::RtaConfig;

use crate::kernels::{shipped_kernels, ShippedKernel};
use crate::query::QueryWorkload;
use crate::runner::Platform;
use crate::session::{QuerySession, RtSession};

/// Fixed per-step engine-bookkeeping allowance in [`step_cost_upper`]:
/// warp-buffer entry, fetch-queue issue, result-retry events.
pub const STEP_SLACK: u64 = 64;

/// Worst-case cycles one accelerator traversal *step* (node visit or
/// leaf-primitive round) can occupy on `platform`: node-fetch round trip
/// through an idle memory system, the slowest intersection test the
/// platform can schedule, a full shader callback, the submit path, and
/// [`STEP_SLACK`]. Queueing behind other queries' steps is accounted by
/// those steps' own charges (the aggregate-serialization argument of
/// `gpu_sim::absint::cost`).
pub fn step_cost_upper(gpu: &GpuConfig, platform: &Platform) -> u64 {
    let Some(rta) = platform.engine_config() else {
        return 0;
    };
    let fixed = rta
        .ray_triangle_latency
        .max(rta.ray_box_latency)
        .max(rta.transform_latency);
    let test_max = match platform {
        Platform::Tta(c) => fixed.max(c.query_key_latency).max(c.point_to_point_latency),
        Platform::TtaPlus(plus, programs) | Platform::TtaPlusWith(_, plus, programs) => programs
            .iter()
            .map(|p| p.latency_bounds(plus.crossbar_hop_latency).1)
            .max()
            .unwrap_or(0)
            .max(rta.ray_triangle_latency),
        _ => fixed,
    };
    gpu_sim::absint::mem_worst_round_trip(gpu)
        + test_max
        + rta.shader_callback_latency
        + rta.shader_interval
        + rta.submit_latency
        + STEP_SLACK
}

/// The oracle bounds of one query set that every kernel's cost facts are
/// derived from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Walk {
    /// Node visits of the slowest query. Its steps are strictly
    /// sequential, so they floor a traversal launch.
    pub slowest_visits: u64,
    /// Node visits any one query can make.
    pub max_visits: u64,
    /// Traversal steps (node fetches plus leaf-item rounds) any one query
    /// can take, with slack.
    pub max_steps: u64,
    /// Nodes in the tree.
    pub nodes: u64,
    /// Leaf-item rounds (entries, points, particles or primitives) any
    /// one query can take besides its node visits.
    pub items: u64,
}

impl Walk {
    /// A walk from oracle counts. The step budget doubles the worst
    /// query's visits plus item rounds, and adds slack for the
    /// begin/terminate events.
    pub fn new(slowest_visits: u64, max_visits: u64, nodes: u64, items: u64) -> Walk {
        Walk {
            slowest_visits,
            max_visits,
            max_steps: 2 * (max_visits + items) + 8,
            nodes,
            items,
        }
    }
}

impl ShippedKernel {
    /// The kernel's cost facts over `walk`: its trip totals and, if it
    /// offloads a traversal, one traversal of the walk's steps, each
    /// charged `step_cost`.
    pub fn facts(&self, walk: &Walk, step_cost: u64) -> CostFacts {
        let offloads = self
            .kernel
            .instrs
            .iter()
            .any(|i| matches!(i, Instr::Traverse { .. }));
        CostFacts {
            trips: (self.trips)(walk),
            traversal: offloads.then_some(TraversalFact {
                min_steps: walk.slowest_visits,
                max_steps: walk.max_steps,
                step_cost_upper: step_cost,
            }),
        }
    }
}

/// The row of the shipped kernel named `name`, panicking if no row is.
fn shipped_kernel(name: &str) -> ShippedKernel {
    shipped_kernels()
        .into_iter()
        .find(|row| row.kernel.name == name)
        .unwrap_or_else(|| panic!("{name}: not a shipped kernel"))
}

/// Brackets one launch of `threads` threads over `walk`, panicking if the
/// kernel is not shipped or the facts leave anything unbounded (a bug in
/// the kernel table, not in the caller's inputs).
fn launch(kernel: &Kernel, threads: usize, gpu: &GpuConfig, walk: &Walk, step: u64) -> CycleBounds {
    let facts = shipped_kernel(&kernel.name).facts(walk, step);
    let bounds = LaunchBounds {
        num_threads: threads as u32,
    };
    let report = cycle_bounds(kernel, bounds, gpu, &facts);
    report.bounds.unwrap_or_else(|| {
        panic!(
            "{}: cost facts left the bound open: {:?}",
            kernel.name, report.issues
        )
    })
}

/// Predicts the cycle bracket of a [`QuerySession`] stepped to
/// completion: the launches of its own plan, back to back, over the walk
/// of its queries. Steps are charged on the experiment's platform as
/// given, not as the workload attaches it.
pub fn predict<W: QueryWorkload>(s: &QuerySession<W>) -> CycleBounds {
    let gpu = &s.dev.gpu.cfg;
    let walk = s.dev.workload.walk(&s.queries);
    let step = step_cost_upper(gpu, &s.platform);
    let none = CycleBounds { lower: 0, upper: 0 };
    s.plan.iter().fold(none, |acc, (kernel, threads, _)| {
        acc.seq(launch(kernel, *threads, gpu, &walk, step))
    })
}

/// Predicts the cycle bracket of an [`RtSession`] stepped to completion:
/// the primary pass bracketed from per-ray oracle counts, plus the
/// workload's secondary rounds bracketed structurally (secondary rays are
/// generated from hit points, so their traversals are capped by the whole
/// tree). The lower bound is the primary pass alone — a scene the primary
/// rays all miss runs zero secondary rounds.
pub fn predict_rt(s: &RtSession) -> CycleBounds {
    let (w, rays) = (&s.inner.dev.workload, &s.inner.queries);
    let gpu = &s.inner.dev.gpu.cfg;
    let step = step_cost_upper(gpu, &s.inner.platform);
    let primary = launch(&w.kernel(0), rays.len(), gpu, &w.walk(rays), step);
    let bvh = &w.inputs.bvh;
    let nodes = bvh.node_count() as u64;
    let secondary = Walk::new(1, nodes, nodes, bvh.primitives().len() as u64);
    let secondary = launch(&w.kernel(1), rays.len(), gpu, &secondary, step);
    let rounds = w.exp.workload.secondary_rounds() as u64;
    CycleBounds {
        lower: primary.lower,
        upper: primary.upper.saturating_add(rounds * secondary.upper),
    }
}

// --------------------------------------------------- shipped-kernel facts

/// Declared trip/traversal caps for the shipped kernel inventory, used by
/// the `kernel-cost` lint pass to prove every shipped kernel's latency
/// finite. These are *workload design caps*, not input-derived bounds:
/// trees the shipped contracts admit are capped at [`SHIPPED_NODE_CAP`]
/// nodes / bodies, which dominates every configuration the experiments
/// construct. The input-specific (much tighter) walks come from
/// [`QueryWorkload::walk`].
pub const SHIPPED_NODE_CAP: u64 = 1 << 20;

/// The design-cap walk behind [`shipped_facts`]: every count at
/// [`SHIPPED_NODE_CAP`], a traversal of at least one and at most
/// `2 · SHIPPED_NODE_CAP` steps.
const CAP_WALK: Walk = Walk {
    slowest_visits: 1,
    max_visits: SHIPPED_NODE_CAP,
    max_steps: 2 * SHIPPED_NODE_CAP,
    nodes: SHIPPED_NODE_CAP,
    items: SHIPPED_NODE_CAP,
};

/// The facts of a shipped kernel over `CAP_WALK`.
pub fn shipped_facts(kernel: &ShippedKernel, gpu: &GpuConfig) -> CostFacts {
    // Step cost under the most general shipped platform (baseline RTA
    // covers TTA/TTA+ structurally; exact per-platform values come from
    // `step_cost_upper` in the predictors).
    let step = step_cost_upper(gpu, &Platform::BaselineRta(RtaConfig::baseline()));
    kernel.facts(&CAP_WALK, step)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::btree::BTreeExperiment;

    #[test]
    fn step_cost_covers_every_platform() {
        let gpu = GpuConfig::small_test();
        let rta = Platform::BaselineRta(RtaConfig::baseline());
        let tta = Platform::Tta(tta::backend::TtaConfig::default_paper());
        let plus = Platform::TtaPlus(
            tta::ttaplus::TtaPlusConfig::default_paper(),
            BTreeExperiment::uop_programs(),
        );
        for p in [&rta, &tta, &plus] {
            let c = step_cost_upper(&gpu, p);
            assert!(c > gpu_sim::absint::mem_worst_round_trip(&gpu), "{c}");
        }
        assert_eq!(step_cost_upper(&gpu, &Platform::BaselineGpu), 0);
    }

    #[test]
    #[should_panic(expected = "nonesuch: not a shipped kernel")]
    fn a_kernel_outside_the_table_has_no_facts() {
        shipped_kernel("nonesuch");
    }

    #[test]
    fn cap_walk_keeps_the_design_traversal_caps() {
        let step = 500;
        for name in ["traverse_only", "nbody_merged", "rt_pipeline1"] {
            let t = shipped_kernel(name).facts(&CAP_WALK, step).traversal;
            let t = t.expect("a traversal kernel");
            assert_eq!(t.min_steps, 1, "{name}");
            assert_eq!(t.max_steps, 2 * SHIPPED_NODE_CAP, "{name}");
            assert_eq!(t.step_cost_upper, step, "{name}");
        }
        let btree = shipped_kernel("btree_search").facts(&CAP_WALK, step);
        assert!(btree.traversal.is_none());
        let trips = btree.trips;
        assert_eq!((trips[1].min, trips[1].max), (1, SHIPPED_NODE_CAP + 1));
    }

    #[test]
    fn shipped_facts_trip_arity_matches_the_kernels() {
        use gpu_sim::absint::check_termination;
        let gpu = GpuConfig::vulkan_sim_default();
        for row in shipped_kernels() {
            let (kernel, name) = (&row.kernel, &row.kernel.name);
            let facts = shipped_facts(&row, &gpu);
            let term = check_termination(kernel);
            assert_eq!(
                facts.trips.len(),
                term.loops.len(),
                "{name}: fact arity vs back-edges"
            );
            let report = cycle_bounds(kernel, LaunchBounds { num_threads: 1024 }, &gpu, &facts);
            assert!(report.bounds.is_some(), "{name}: {:?}", report.issues);
        }
    }
}
