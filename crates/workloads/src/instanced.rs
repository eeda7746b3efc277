//! Instanced two-level-BVH ray tracing (TLAS/BLAS) — the scene structure
//! the paper's LumiBench/RTNN workloads use, with R-XFORM ray transforms
//! between the levels (Table III).
//!
//! The scene is a procedural "city": a few distinct building BLASes
//! instanced many times on a grid. Instancing multiplies apparent scene
//! size without growing memory — the reason two-level structures exist.

use geometry::{Ray, Vec3};
use gpu_sim::kernel::Kernel;
use gpu_sim::mem::GlobalMemory;
use gpu_sim::GpuConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rta::bvh_semantics::{read_ray_result, write_ray_record, RAY_RECORD_SIZE};
use rta::engine::TraversalSemantics;
use rta::two_level_semantics::TwoLevelSemantics;
use rta::units::TestKind;
use trees::image::MemoryImage;
use trees::two_level::{Instance, SerializedTwoLevel, TwoLevelScene};
use trees::BvhPrimitive;

use crate::cost::Walk;
use crate::gen;
use crate::kernels::traverse_only_kernel;
use crate::query::QueryWorkload;
use crate::runner::{Platform, RunResult};

/// One instanced-scene experiment.
#[derive(Debug, Clone)]
pub struct InstancedExperiment {
    /// Grid side: `side × side` building instances.
    pub side: usize,
    /// Image width (rays = width × height).
    pub width: usize,
    /// Image height.
    pub height: usize,
    /// RNG seed.
    pub seed: u64,
    /// Hardware platform (RTA, TTA or TTA+ — all support two-level
    /// traversal; the transform runs on the R-XFORM unit / μop).
    pub platform: Platform,
    /// GPU configuration.
    pub gpu: GpuConfig,
    /// Cross-check sampled hits against the host scene oracle.
    pub verify: bool,
}

impl InstancedExperiment {
    /// A default configuration.
    pub fn new(side: usize, platform: Platform) -> Self {
        InstancedExperiment {
            side,
            width: 96,
            height: 64,
            seed: 0x2c17,
            platform,
            gpu: GpuConfig::vulkan_sim_default(),
            verify: true,
        }
    }

    fn scene(&self) -> TwoLevelScene {
        let mut rng = StdRng::seed_from_u64(self.seed);
        // Three building archetypes: tower, slab, blob.
        let blases: Vec<Vec<BvhPrimitive>> = vec![
            gen::blob_mesh(10, 14, self.seed),
            gen::blob_mesh(14, 10, self.seed ^ 1),
            gen::blob_mesh(8, 20, self.seed ^ 2),
        ];
        let mut instances = Vec::new();
        for gx in 0..self.side {
            for gz in 0..self.side {
                instances.push(Instance {
                    translation: Vec3::new(
                        gx as f32 * 30.0 + rng.random_range(-3.0..3.0),
                        rng.random_range(-2.0..2.0),
                        gz as f32 * 30.0 + rng.random_range(-3.0..3.0),
                    ),
                    blas: rng.random_range(0..blases.len()),
                });
            }
        }
        TwoLevelScene::build(blases, instances)
    }

    /// The scene, serialized, and its camera rays.
    pub(crate) fn workload(&self) -> InstancedRays {
        let scene = self.scene();
        let ser = scene.serialize();
        let center = Vec3::new(self.side as f32 * 15.0, 5.0, self.side as f32 * 15.0);
        let eye = center + Vec3::new(-60.0, 40.0, -80.0);
        let rays = gen::camera_rays(self.width, self.height, eye, center);
        InstancedRays { scene, ser, rays }
    }

    /// Runs the experiment: [`InstancedExperiment::session`] with one
    /// chunk, stepped to completion.
    ///
    /// # Panics
    ///
    /// Panics when `verify` is set and sampled hits diverge from the host
    /// oracle, or when run on the pure-SIMT baseline (the two-level walk is
    /// accelerator-only in this reproduction).
    pub fn run(&self) -> RunResult {
        crate::session::run_to_end(Box::new(self.session(1)))
    }
}

/// Camera rays over a [`TwoLevelScene`] as a [`QueryWorkload`]: the query
/// is a ray, the oracle the host scene's closest hit. Like RTNN it runs
/// only on an accelerator.
pub struct InstancedRays {
    /// The host scene (the oracle).
    pub scene: TwoLevelScene,
    /// Its serialized device image.
    pub ser: SerializedTwoLevel,
    /// The camera rays, one per pixel.
    pub rays: Vec<Ray>,
}

impl QueryWorkload for InstancedRays {
    type Query = Ray;
    const RECORD_SIZE: usize = RAY_RECORD_SIZE;
    const STACK_BYTES: usize = 0;
    const CHECK_STRIDE: usize = 83;

    fn image(&self) -> &MemoryImage {
        &self.ser.image
    }

    fn query_count(&self) -> usize {
        self.rays.len()
    }

    fn query(&self, i: usize) -> Ray {
        self.rays[i]
    }

    /// Every generation routes the level transform to the Transform kind:
    /// the fixed-function R-XFORM unit on RTA/TTA, the 1-μop transform
    /// program on TTA+ (the backend maps it automatically).
    fn semantics(&self, _: &Platform, tree_base: u64) -> Vec<Box<dyn TraversalSemantics>> {
        vec![Box::new(TwoLevelSemantics {
            tree_base,
            instance_base: tree_base + self.ser.instance_base as u64,
            restore_addr: tree_base + (self.ser.restore_index * 64) as u64,
            transform_test: TestKind::Transform,
        })]
    }

    /// The two-level walk has no SIMT kernel: it always runs on an
    /// accelerator.
    fn simt_kernel(&self) -> Kernel {
        traverse_only_kernel("traverse_only", RAY_RECORD_SIZE as u32, 0)
    }

    /// The host scene counts no visits, so the walk is the structural cap:
    /// one ray can visit every TLAS node (fewer than two per instance) and
    /// every node of every instance's BLAS, and test every instanced
    /// primitive.
    fn walk(&self, _: &[Ray]) -> Walk {
        let instances = self.scene.instances();
        let (mut nodes, mut prims) = (2 * instances.len(), 0);
        for b in instances.iter().map(|i| &self.scene.blases()[i.blas]) {
            nodes += b.node_count();
            prims += b.primitives().len();
        }
        Walk::new(1, nodes as u64, nodes as u64, prims as u64)
    }

    fn write(&self, gmem: &mut GlobalMemory, addr: u64, ray: Ray) {
        write_ray_record(gmem, addr, &ray);
    }

    fn check(&self, gmem: &GlobalMemory, addr: u64, ray: Ray) -> Result<(), String> {
        let (t, ..) = read_ray_result(gmem, addr);
        match self.scene.closest_hit(&ray) {
            Some(h) if (t - h.t).abs() < 1e-3 * h.t.max(1.0) => Ok(()),
            Some(h) => Err(format!("hit at {t} vs oracle {}", h.t)),
            None if t.is_infinite() => Ok(()),
            None => Err(format!("hit at {t}, oracle misses")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instanced_scene_hits_match_oracle_and_use_rxform() {
        let mut e = InstancedExperiment::new(4, Platform::BaselineRta(rta::RtaConfig::baseline()));
        e.gpu = GpuConfig::small_test();
        e.width = 32;
        e.height = 24;
        let r = e.run(); // verify checks hits
        let accel = r.accel.expect("accelerated");
        let xform = accel.unit("Transform").expect("transform unit present");
        assert!(
            xform.invocations > 0,
            "R-XFORM must run for instanced scenes"
        );
    }

    #[test]
    fn ttaplus_runs_instanced_scenes_too() {
        let mut e = InstancedExperiment::new(
            3,
            Platform::TtaPlus(tta::ttaplus::TtaPlusConfig::default_paper(), vec![]),
        );
        e.gpu = GpuConfig::small_test();
        e.width = 32;
        e.height = 24;
        let r = e.run();
        assert!(r.stats.cycles > 0);
        let accel = r.accel.expect("TTA+ reports");
        assert!(
            accel
                .programs
                .iter()
                .any(|(n, s)| n == "transform" && s.invocations > 0),
            "the R-XFORM builtin must be reported: {:?}",
            accel.programs
        );
    }

    #[test]
    #[should_panic(expected = "requires an RTA")]
    fn simt_baseline_is_rejected() {
        let e = InstancedExperiment::new(2, Platform::BaselineGpu);
        let _ = e.run();
    }
}
