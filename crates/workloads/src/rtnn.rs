//! The RTNN radius-search experiment (Fig. 12 bottom): neighbour search on
//! LiDAR-like point clouds mapped onto the ray-tracing accelerator.
//!
//! * **RTNN** (baseline) — the unmodified RTA traverses the inflated-AABB
//!   BVH; the exact distance check runs in an *intersection shader* on the
//!   general-purpose cores.
//! * **\*RTNN** — the shader is replaced by the TTA Point-to-Point unit, or
//!   by the 5-μop Table III program on TTA+ ("simply by replacing costly
//!   intersection shaders with TTA, RTNN improves by up to 1.4×").

use std::sync::Arc;

use geometry::{Sphere, Vec3};
use gpu_sim::kernel::Kernel;
use gpu_sim::mem::GlobalMemory;
use gpu_sim::GpuConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rta::engine::TraversalSemantics;
use rta::units::TestKind;
use trees::bvh::SerializedBvh;
use trees::image::MemoryImage;
use trees::{Bvh, BvhPrimitive};
use tta::programs::UopProgram;
use tta::radius_sem::{self, RadiusSearchSemantics};

use crate::btree::traverse_only_kernel;
use crate::cacheable::CacheableExperiment;
use crate::cost::Walk;
use crate::gen;
use crate::query::QueryWorkload;
use crate::runner::{Platform, RunResult};

/// Whether the leaf distance test stays in the intersection shader
/// (baseline RTNN) or is offloaded (\*RTNN).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeafPath {
    /// Intersection shader on the cores (baseline RTNN).
    Shader,
    /// Offloaded to the accelerator (\*RTNN).
    Offloaded,
}

/// One RTNN experiment configuration.
#[derive(Debug, Clone)]
pub struct RtnnExperiment {
    /// Point-cloud size (the paper sweeps 32k–128k KITTI points).
    pub points: usize,
    /// Number of queries.
    pub queries: usize,
    /// Search radius.
    pub radius: f32,
    /// RNG seed.
    pub seed: u64,
    /// Hardware platform.
    pub platform: Platform,
    /// Leaf test path.
    pub leaf: LeafPath,
    /// GPU configuration.
    pub gpu: GpuConfig,
    /// Cross-check sampled neighbour counts against the BVH oracle.
    pub verify: bool,
    /// Pre-built inputs shared across runs (see [`crate::cacheable`]);
    /// `None` rebuilds them from the configuration.
    pub inputs: Option<Arc<RtnnInputs>>,
    /// When set, a Chrome trace of the run is written to this directory
    /// (file name derived from the run label).
    pub trace_dir: Option<std::path::PathBuf>,
}

/// The expensive immutable inputs of an [`RtnnExperiment`]: the point
/// cloud, query points, and the built/serialized inflated-AABB BVH. The
/// BVH depends on the search radius (spheres are inflated by it), so the
/// cache key includes it.
#[derive(Debug)]
pub struct RtnnInputs {
    /// Query points (sensor-frame samples near the cloud).
    pub queries: Vec<Vec3>,
    /// The host BVH (the verification oracle).
    pub bvh: Bvh,
    /// Its serialized device image.
    pub ser: SerializedBvh,
}

impl RtnnExperiment {
    /// A default configuration.
    pub fn new(points: usize, queries: usize, platform: Platform, leaf: LeafPath) -> Self {
        RtnnExperiment {
            points,
            queries,
            radius: 1.5,
            seed: 0x17da,
            platform,
            leaf,
            gpu: GpuConfig::vulkan_sim_default(),
            verify: true,
            inputs: None,
            trace_dir: None,
        }
    }

    /// TTA+ μop programs: Ray-Box inner + Point-to-Point leaf (Table III).
    pub fn uop_programs() -> Vec<UopProgram> {
        vec![UopProgram::ray_box(), UopProgram::rtnn_leaf()]
    }

    /// The Listing-1 pipeline configuration for radius search.
    ///
    /// # Errors
    ///
    /// Propagates [`tta::pipeline::ConfigError`] for unsupported tests.
    pub fn pipeline(
        gen: tta::pipeline::AcceleratorGen,
        leaf: LeafPath,
    ) -> Result<tta::pipeline::TraversalPipeline, tta::pipeline::ConfigError> {
        use tta::pipeline::{PipelineBuilder, TerminateCond, TestConfig};
        let leaf_cfg = match (leaf, gen) {
            (LeafPath::Shader, _) => TestConfig::Shader,
            (LeafPath::Offloaded, tta::pipeline::AcceleratorGen::TtaPlus) => {
                TestConfig::Uops(UopProgram::rtnn_leaf())
            }
            (LeafPath::Offloaded, _) => TestConfig::PointToPoint,
        };
        PipelineBuilder::new("rtnn-radius-search")
            .decode_r(&[12, 4, 4, 4, 8]) // point | radius | count | visited | pad
            .decode_i(&[4, 4, 24, 24, 4, 4]) // header | left | boxes | right | pad
            .decode_l(&[4, 4, 24, 24, 4, 4])
            .config_i(TestConfig::RayBox)
            .config_l(leaf_cfg)
            .config_terminate(TerminateCond::StackEmpty)
            .build(gen)
    }

    /// Runs the experiment — a single-chunk
    /// [`crate::session::QuerySession`] stepped to completion.
    ///
    /// # Panics
    ///
    /// Panics when `verify` is set and sampled counts diverge from the
    /// brute-force-checked BVH oracle.
    pub fn run(&self) -> RunResult {
        crate::session::run_to_end(Box::new(self.session(1)))
    }
}

impl CacheableExperiment for RtnnExperiment {
    type Inputs = RtnnInputs;

    fn inputs_key(&self) -> String {
        format!(
            "rtnn/{}/{}/{:08x}/{:#x}",
            self.points,
            self.queries,
            self.radius.to_bits(),
            self.seed
        )
    }

    fn build_inputs(&self) -> RtnnInputs {
        let pts = gen::lidar_points(self.points, self.seed);
        let prims: Vec<BvhPrimitive> = pts
            .iter()
            .map(|&c| BvhPrimitive::Sphere(Sphere::new(c, self.radius)))
            .collect();
        let bvh = Bvh::build(prims);
        let ser = bvh.serialize();
        // Queries: points near the cloud (sensor-frame samples).
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x9e3);
        let queries: Vec<Vec3> = (0..self.queries)
            .map(|_| {
                let r = rng.random_range(0.0f32..1.0).powf(0.6) * 55.0 + 2.0;
                let a = rng.random_range(0.0..std::f32::consts::TAU);
                Vec3::new(r * a.cos(), r * a.sin(), rng.random_range(-0.2..1.5))
            })
            .collect();
        RtnnInputs { queries, bvh, ser }
    }

    fn set_inputs(&mut self, inputs: Arc<RtnnInputs>) {
        self.inputs = Some(inputs);
    }
}

/// RTNN radius searches as a [`QueryWorkload`]: the oracle is the host
/// BVH's neighbour count within `radius`.
pub struct RadiusQueries {
    /// The point cloud, queries and inflated-AABB BVH.
    pub inputs: Arc<RtnnInputs>,
    /// Search radius.
    pub radius: f32,
    /// Where the leaf distance test runs.
    pub leaf: LeafPath,
}

impl QueryWorkload for RadiusQueries {
    type Query = Vec3;
    const RECORD_SIZE: usize = radius_sem::QUERY_RECORD_SIZE;
    const STACK_BYTES: usize = 0;
    const CHECK_STRIDE: usize = 29;

    fn image(&self) -> &MemoryImage {
        &self.inputs.ser.image
    }

    fn aux_offset(&self) -> usize {
        self.inputs.ser.prim_base
    }

    fn query_count(&self) -> usize {
        self.inputs.queries.len()
    }

    fn query(&self, i: usize) -> Vec3 {
        self.inputs.queries[i]
    }

    fn semantics(&self, platform: &Platform, tree_base: u64) -> Box<dyn TraversalSemantics> {
        let plus = platform.is_tta_plus();
        let inner_test = if plus {
            TestKind::Program(0)
        } else {
            TestKind::RayBox
        };
        let leaf_test = match (self.leaf, plus) {
            (LeafPath::Shader, _) => TestKind::IntersectionShader,
            (LeafPath::Offloaded, false) => TestKind::PointToPoint,
            (LeafPath::Offloaded, true) => TestKind::Program(1),
        };
        Box::new(RadiusSearchSemantics {
            tree_base,
            prim_base: tree_base + self.inputs.ser.prim_base as u64,
            inner_test,
            leaf_test,
        })
    }

    /// RTNN has no SIMT kernel in the paper: it always runs on a
    /// ray-tracing accelerator.
    fn simt_kernel(&self) -> Kernel {
        traverse_only_kernel(Self::RECORD_SIZE as u32)
    }

    /// The host radius search counts no visits, so the walk is the
    /// structural cap: one query can visit every node and test every
    /// point.
    fn walk(&self, _: &[Vec3]) -> Walk {
        let bvh = &self.inputs.bvh;
        let nodes = bvh.node_count() as u64;
        Walk::new(1, nodes, nodes, bvh.primitives().len() as u64)
    }

    fn write(&self, gmem: &mut GlobalMemory, addr: u64, point: Vec3) {
        radius_sem::write_radius_record(gmem, addr, point, self.radius);
    }

    fn check(&self, gmem: &GlobalMemory, addr: u64, point: Vec3) -> Result<(), String> {
        let (count, _) = radius_sem::read_radius_result(gmem, addr);
        let oracle = self.inputs.bvh.points_within(point, self.radius).len() as u32;
        if count == oracle {
            Ok(())
        } else {
            Err(format!(
                "radius query at {point}: {count} neighbours, oracle {oracle}"
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rta::RtaConfig;
    use tta::backend::TtaConfig;
    use tta::ttaplus::TtaPlusConfig;

    fn small(mut e: RtnnExperiment) -> RtnnExperiment {
        e.gpu = GpuConfig::small_test();
        e
    }

    #[test]
    fn baseline_rtnn_counts_match_oracle() {
        let e = small(RtnnExperiment::new(
            3000,
            128,
            Platform::BaselineRta(RtaConfig::baseline()),
            LeafPath::Shader,
        ));
        let r = e.run();
        assert!(r.stats.cycles > 0);
        let accel = r.accel.expect("RTNN runs on the RTA");
        assert!(
            accel.shader_lane_instructions > 0,
            "baseline must use shaders"
        );
    }

    #[test]
    fn offloaded_rtnn_beats_shader_rtnn() {
        let base = small(RtnnExperiment::new(
            3000,
            256,
            Platform::BaselineRta(RtaConfig::baseline()),
            LeafPath::Shader,
        ))
        .run();
        let star = small(RtnnExperiment::new(
            3000,
            256,
            Platform::Tta(TtaConfig::default_paper()),
            LeafPath::Offloaded,
        ))
        .run();
        let speedup = star.speedup_over(&base);
        assert!(speedup > 1.0, "*RTNN speedup {speedup:.2} should exceed 1");
        assert_eq!(star.accel.as_ref().unwrap().shader_lane_instructions, 0);
    }

    #[test]
    fn ttaplus_variants_run() {
        for leaf in [LeafPath::Shader, LeafPath::Offloaded] {
            let e = small(RtnnExperiment::new(
                2000,
                128,
                Platform::TtaPlus(
                    TtaPlusConfig::default_paper(),
                    RtnnExperiment::uop_programs(),
                ),
                leaf,
            ));
            let r = e.run();
            assert!(r.stats.cycles > 0);
        }
    }
}

#[cfg(test)]
mod pipeline_tests {
    use super::*;
    use tta::pipeline::AcceleratorGen;

    #[test]
    fn shader_leaf_works_everywhere_offload_needs_tta() {
        for gen in [
            AcceleratorGen::BaselineRta,
            AcceleratorGen::Tta,
            AcceleratorGen::TtaPlus,
        ] {
            assert!(RtnnExperiment::pipeline(gen, LeafPath::Shader).is_ok());
        }
        assert!(
            RtnnExperiment::pipeline(AcceleratorGen::BaselineRta, LeafPath::Offloaded).is_err()
        );
        assert!(RtnnExperiment::pipeline(AcceleratorGen::Tta, LeafPath::Offloaded).is_ok());
        // The 5-μop RTNN leaf has no SQRT: fine even without the SQRT unit.
        assert!(
            RtnnExperiment::pipeline(AcceleratorGen::TtaPlusNoSqrt, LeafPath::Offloaded).is_ok()
        );
    }
}
