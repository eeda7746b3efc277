//! Instanced two-level-BVH ray tracing (TLAS/BLAS) — the scene structure
//! the paper's LumiBench/RTNN workloads use, with R-XFORM ray transforms
//! between the levels (Table III).
//!
//! The scene is a procedural "city": a few distinct building BLASes
//! instanced many times on a grid. Instancing multiplies apparent scene
//! size without growing memory — the reason two-level structures exist.

use geometry::{Ray, Vec3};
use gpu_sim::GpuConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rta::bvh_semantics::{read_ray_result, write_ray_record, RAY_RECORD_SIZE};
use rta::two_level_semantics::TwoLevelSemantics;
use rta::units::TestKind;
use rta::AccelReport;
use trees::two_level::{Instance, TwoLevelScene};
use trees::BvhPrimitive;

use crate::gen;
use crate::lumibench::rt_kernel_for;
use crate::runner::{attach_platform, build_gpu, Platform, RunResult};

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

    /// Runs the experiment.
    ///
    /// # Panics
    ///
    /// Panics when `verify` is set and sampled hits diverge from the host
    /// oracle, or when run on the pure-SIMT baseline (the two-level walk is
    /// accelerator-only in this reproduction).
    pub fn run(&self) -> RunResult {
        assert!(
            self.platform.has_accelerator(),
            "the instanced workload requires an RTA/TTA/TTA+ platform"
        );
        let scene = self.scene();
        let ser = scene.serialize();
        let n = self.width * self.height;

        let mem = (ser.image.len() + n * RAY_RECORD_SIZE + (1 << 21)).next_power_of_two();
        let mut gpu = build_gpu(&self.gpu, mem);
        let tree_base = gpu.gmem.alloc(ser.image.len(), 64);
        gpu.gmem.write_bytes(tree_base, ser.image.as_bytes());
        let instance_base = tree_base + ser.instance_base as u64;
        let restore_addr = tree_base + (ser.restore_index * 64) as u64;
        let qbase = gpu.gmem.alloc(n * RAY_RECORD_SIZE, 64);

        let center = Vec3::new(self.side as f32 * 15.0, 5.0, self.side as f32 * 15.0);
        let eye = center + Vec3::new(-60.0, 40.0, -80.0);
        let rays: Vec<Ray> = gen::camera_rays(self.width, self.height, eye, center);
        for (i, r) in rays.iter().enumerate() {
            write_ray_record(&mut gpu.gmem, qbase + (i * RAY_RECORD_SIZE) as u64, r);
        }

        // All generations route the level transform to the Transform kind:
        // the fixed-function R-XFORM unit on RTA/TTA, the 1-μop transform
        // program on TTA+ (the backend maps it automatically).
        let transform_test = TestKind::Transform;
        attach_platform(&mut gpu, &self.platform, move || {
            vec![Box::new(TwoLevelSemantics {
                tree_base,
                instance_base,
                restore_addr,
                transform_test,
            })]
        });

        let kernel = rt_kernel_for(0);
        let stats = gpu.launch(&kernel, n, &[qbase as u32, tree_base as u32]);

        if self.verify {
            for (i, r) in rays.iter().enumerate().step_by(83) {
                let (t, ..) = read_ray_result(&gpu.gmem, qbase + (i * RAY_RECORD_SIZE) as u64);
                match scene.closest_hit(r) {
                    Some(h) => assert!(
                        (t - h.t).abs() < 1e-3 * h.t.max(1.0),
                        "ray {i}: {t} vs {}",
                        h.t
                    ),
                    None => assert!(t.is_infinite(), "ray {i} should miss"),
                }
            }
        }

        RunResult {
            label: format!(
                "Instanced {}x{} {}",
                self.side,
                self.side,
                self.platform.label()
            ),
            stats,
            accel: AccelReport::harvest(&gpu),
            serve: None,
            fleet: None,
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
