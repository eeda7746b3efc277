//! LumiBench-like ray-tracing workloads (Fig. 16 / Fig. 17).
//!
//! LumiBench's art assets are not redistributable, so each workload here is
//! a procedural scene with the *behavioural* feature the paper's subset
//! exercises; WKND_PT is reproduced faithfully since the "Ray Tracing in
//! One Weekend" scene is itself procedural:
//!
//! | workload | behaviour | scene |
//! |----------|-----------|-------|
//! | `BlobPt` | path tracing (incoherent bounces) | tessellated blob mesh |
//! | `BlobAo` | ambient occlusion (short any-hit rays) | blob mesh |
//! | `ShipSh` | shadows over long thin primitives | rigging slivers + hull |
//! | `BlobRf` | mirror reflections | blob mesh |
//! | `WkndPt` | procedural-sphere path tracing | the WKND sphere field |
//! | `LeafAm` | alpha masking (shader'd any-hit) | dense foliage slab |

use std::sync::Arc;

use geometry::{Ray, Vec3};
use gpu_sim::absint::{AccessMode, ContractLen, MemContract};
use gpu_sim::isa::SReg;
use gpu_sim::kernel::{Kernel, KernelBuilder};
use gpu_sim::GpuConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rta::bvh_semantics::RAY_RECORD_SIZE;
use trees::bvh::SerializedBvh;
use trees::{Bvh, BvhPrimitive};
use tta::programs::UopProgram;

use crate::cacheable::CacheableExperiment;
use crate::gen;
use crate::kernels::params;
use crate::runner::{Platform, RunResult};

/// The evaluated ray-tracing workloads (the LumiBench representative
/// subset's behaviours).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RtWorkload {
    /// Path tracing over a triangle mesh.
    BlobPt,
    /// Ambient occlusion.
    BlobAo,
    /// Shadow rays over long thin primitives (the SHIP pathology).
    ShipSh,
    /// Mirror reflections.
    BlobRf,
    /// Procedural-sphere path tracing ("Ray Tracing in One Weekend").
    WkndPt,
    /// Alpha-masked any-hit (foliage).
    LeafAm,
}

impl RtWorkload {
    /// All workloads in display order.
    pub const ALL: [RtWorkload; 6] = [
        RtWorkload::BlobPt,
        RtWorkload::BlobAo,
        RtWorkload::ShipSh,
        RtWorkload::BlobRf,
        RtWorkload::WkndPt,
        RtWorkload::LeafAm,
    ];

    /// Figure label.
    pub fn name(self) -> &'static str {
        match self {
            RtWorkload::BlobPt => "BLOB_PT",
            RtWorkload::BlobAo => "BLOB_AO",
            RtWorkload::ShipSh => "SHIP_SH",
            RtWorkload::BlobRf => "BLOB_RF",
            RtWorkload::WkndPt => "WKND_PT",
            RtWorkload::LeafAm => "LEAF_AM",
        }
    }

    /// `true` for the procedural-sphere scene.
    pub fn uses_spheres(self) -> bool {
        matches!(self, RtWorkload::WkndPt)
    }

    /// Secondary passes after a primary pass that hits something: SHIP_SH
    /// casts shadow rays toward four lights, one pass each; every other
    /// workload runs one pass.
    pub fn secondary_rounds(self) -> usize {
        if self == RtWorkload::ShipSh {
            4
        } else {
            1
        }
    }
}

impl std::fmt::Display for RtWorkload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One ray-tracing experiment.
#[derive(Debug, Clone)]
pub struct RtExperiment {
    /// Which workload.
    pub workload: RtWorkload,
    /// Image width (primary rays = width × height).
    pub width: usize,
    /// Image height.
    pub height: usize,
    /// Hardware platform ([`Platform::BaselineRta`] or TTA/TTA+).
    pub platform: Platform,
    /// Apply the SATO traversal-order optimisation to any-hit passes
    /// (\*SHIP_SH; requires a programmable platform).
    pub sato: bool,
    /// Offload the Ray-Sphere test to a TTA+ μop program instead of the
    /// intersection shader (\*WKND_PT; requires TTA+).
    pub offload_sphere: bool,
    /// RNG seed.
    pub seed: u64,
    /// Scene size multiplier (1.0 = DRAM-bound paper-like scenes).
    pub detail: f64,
    /// GPU configuration.
    pub gpu: GpuConfig,
    /// Fig. 17 "Perf. RT" limit: accelerator node fetches complete in one
    /// cycle (what an ideal prefetcher approaches).
    pub perfect_node_fetch: bool,
    /// Cross-check primary-hit results against the host BVH oracle.
    pub verify: bool,
    /// Pre-built inputs shared across runs (see [`crate::cacheable`]);
    /// `None` rebuilds them from the configuration.
    pub inputs: Option<Arc<RtInputs>>,
}

/// The expensive immutable inputs of an [`RtExperiment`]: the built and
/// serialized scene BVH (the scene primitives live inside the BVH).
#[derive(Debug)]
pub struct RtInputs {
    /// The host BVH (camera framing + verification oracle).
    pub bvh: Bvh,
    /// Its serialized device image.
    pub ser: SerializedBvh,
}

impl RtExperiment {
    /// A default experiment at a small image resolution.
    pub fn new(workload: RtWorkload, platform: Platform) -> Self {
        RtExperiment {
            workload,
            width: 64,
            height: 48,
            platform,
            sato: false,
            offload_sphere: false,
            seed: 0x10e1,
            detail: 1.0,
            gpu: GpuConfig::vulkan_sim_default(),
            perfect_node_fetch: false,
            verify: true,
            inputs: None,
        }
    }

    /// μop programs a TTA+ platform should register for this experiment:
    /// index 0 = Ray-Sphere (used when `offload_sphere`).
    pub fn uop_programs() -> Vec<UopProgram> {
        vec![UopProgram::ray_sphere_leaf()]
    }

    fn scene(&self) -> Vec<BvhPrimitive> {
        // Scene sizes follow `detail`: at the default (1.0) the triangle
        // scenes exceed the 3 MB L2 so traversal is DRAM-bound, as in the
        // paper's evaluation; unit tests shrink `detail` for speed. WKND is
        // inherently small (it is *the* procedural sphere scene).
        let d = self.detail;
        let di = |v: usize| ((v as f64 * d) as usize).max(8);
        match self.workload {
            RtWorkload::BlobPt | RtWorkload::BlobAo | RtWorkload::BlobRf => {
                gen::blob_mesh(di(128), di(256), self.seed)
            }
            RtWorkload::ShipSh => gen::rigging_mesh(di(3000), self.seed),
            RtWorkload::WkndPt => gen::wknd_spheres(11, self.seed),
            RtWorkload::LeafAm => foliage_mesh(di(16000), self.seed),
        }
    }

    pub(crate) fn camera(&self, bvh: &Bvh) -> (Vec3, Vec3) {
        let b = bvh.bounds();
        let c = b.center();
        let ext = b.extent().max_component();
        (c + Vec3::new(0.3 * ext, 0.35 * ext, -1.2 * ext), c)
    }

    /// Runs the experiment (primary pass + one secondary pass whose ray
    /// type depends on the workload) — a [`crate::session::RtSession`]
    /// stepped to completion.
    ///
    /// # Panics
    ///
    /// Panics when `verify` is set and the primary pass disagrees with the
    /// host BVH oracle, or when `sato`/`offload_sphere` are combined with a
    /// platform that cannot express them.
    pub fn run(&self) -> RunResult {
        crate::session::run_to_end(Box::new(self.session()))
    }

    // Secondary pass(es): workload-dependent ray type. (On the SIMT
    // baseline, any-hit passes run the same closest-hit kernel — a
    // slightly pessimistic but standard formulation for a kernel without
    // early-exit support.) The shadows workload shoots one pass per
    // light: shadow rays dominate it, as in the paper.
    pub(crate) fn secondary_rays(
        &self,
        surfels: &[(Vec3, Vec3, Vec3)],
        round: u32,
    ) -> (Vec<Ray>, u16) {
        match self.workload {
            RtWorkload::BlobPt | RtWorkload::WkndPt => {
                // Diffuse bounce: incoherent hemisphere rays, closest-hit.
                let pts: Vec<(Vec3, Vec3)> = surfels.iter().map(|&(p, n, _)| (p, n)).collect();
                (gen::hemisphere_rays(&pts, self.seed), 0)
            }
            RtWorkload::BlobAo => {
                let pts: Vec<(Vec3, Vec3)> = surfels.iter().map(|&(p, n, _)| (p, n)).collect();
                let mut rays = gen::hemisphere_rays(&pts, self.seed);
                for r in &mut rays {
                    r.tmax = 6.0; // short AO rays
                }
                (rays, 1)
            }
            RtWorkload::ShipSh | RtWorkload::LeafAm => {
                // Lights circle the scene; one shadow pass per light.
                let angle = round as f32 * 1.7 + 0.4;
                let light = Vec3::new(90.0 * angle.cos(), 80.0, 90.0 * angle.sin());
                let pts: Vec<Vec3> = surfels.iter().map(|&(p, ..)| p).collect();
                (gen::shadow_rays(&pts, light), 1)
            }
            RtWorkload::BlobRf => {
                let rays = surfels
                    .iter()
                    .map(|&(p, n, d)| {
                        let refl = d - n * (2.0 * d.dot(n));
                        Ray::new(p, refl.normalized())
                    })
                    .collect();
                (rays, 0)
            }
        }
    }
}

impl CacheableExperiment for RtExperiment {
    type Inputs = RtInputs;

    fn inputs_key(&self) -> String {
        format!(
            "rt/{}/{:016x}/{:#x}",
            self.workload,
            self.detail.to_bits(),
            self.seed
        )
    }

    fn build_inputs(&self) -> RtInputs {
        let bvh = Bvh::build(self.scene());
        let ser = bvh.serialize();
        RtInputs { bvh, ser }
    }

    fn set_inputs(&mut self, inputs: Arc<RtInputs>) {
        self.inputs = Some(inputs);
    }
}

/// Memory contracts for [`rt_kernel_for`]: 48-byte ray records and a
/// `tree_bytes` BVH pool. Like the other offload kernels it performs no
/// explicit loads or stores itself.
pub fn rt_contracts(tree_bytes: u64) -> Vec<MemContract> {
    vec![
        MemContract {
            name: "queries",
            base_param: params::QUERIES,
            len: ContractLen::BytesPerThread(RAY_RECORD_SIZE as u64),
            mode: AccessMode::WriteExclusivePerThread {
                stride: RAY_RECORD_SIZE as u64,
            },
        },
        MemContract {
            name: "tree",
            base_param: params::TREE,
            len: ContractLen::Bytes(tree_bytes),
            mode: AccessMode::ReadShared,
        },
    ]
}

/// Traversal kernel bound to a specific pipeline (0 = closest, 1 = any).
/// Public so other accelerated ray workloads (e.g. the instanced scenes)
/// can reuse it.
pub fn rt_kernel_for(pipeline: u16) -> Kernel {
    let mut k = KernelBuilder::new(format!("rt_pipeline{pipeline}"));
    let tid = k.reg();
    let q = k.reg();
    let root = k.reg();
    let off = k.reg();
    k.mov_sreg(tid, SReg::ThreadId);
    k.mov_sreg(q, SReg::Param(params::QUERIES));
    k.mov_sreg(root, SReg::Param(params::TREE));
    k.imul_imm(off, tid, RAY_RECORD_SIZE as u32);
    k.iadd(q, q, off);
    k.traverse(q, root, pipeline);
    k.exit();
    k.build()
}

/// Surface normal of a hit primitive, flipped to face the incoming ray.
pub(crate) fn prim_normal(bvh: &Bvh, prim: usize, point: Vec3, incoming: Vec3) -> Vec3 {
    let n = match bvh.primitives()[prim] {
        BvhPrimitive::Triangle(t) => t.normal().normalized(),
        BvhPrimitive::Sphere(s) => s.normal_at(point),
    };
    if n.dot(incoming) > 0.0 {
        -n
    } else {
        n
    }
}

/// Dense foliage slab: many small overlapping triangles (the alpha-mask
/// workload's geometric signature).
fn foliage_mesh(n: usize, seed: u64) -> Vec<BvhPrimitive> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xf01a);
    let mut tris = Vec::with_capacity(n);
    for _ in 0..n {
        let c = Vec3::new(
            rng.random_range(-30.0..30.0),
            rng.random_range(0.0..20.0),
            rng.random_range(-30.0..30.0),
        );
        let mut jitter = || {
            Vec3::new(
                rng.random_range(-1.5..1.5),
                rng.random_range(-1.5..1.5),
                rng.random_range(-1.5..1.5),
            )
        };
        let a = c + jitter();
        let b = c + jitter();
        tris.push(BvhPrimitive::Triangle(geometry::Triangle::new(c, a, b)));
    }
    tris
}

#[cfg(test)]
mod tests {
    use super::*;
    use rta::RtaConfig;
    use tta::ttaplus::TtaPlusConfig;

    fn small(mut e: RtExperiment) -> RtExperiment {
        e.gpu = GpuConfig::small_test();
        e.width = 32;
        e.height = 24;
        e.detail = 0.05;
        e
    }

    #[test]
    fn all_workloads_run_on_baseline_rta() {
        for w in RtWorkload::ALL {
            let e = small(RtExperiment::new(
                w,
                Platform::BaselineRta(RtaConfig::baseline()),
            ));
            let r = e.run(); // verify checks primary hits against the oracle
            assert!(r.stats.cycles > 0, "{w} produced no cycles");
        }
    }

    #[test]
    fn ttaplus_slowdown_is_moderate_on_triangles() {
        let base = small(RtExperiment::new(
            RtWorkload::BlobPt,
            Platform::BaselineRta(RtaConfig::baseline()),
        ))
        .run();
        let plus = small(RtExperiment::new(
            RtWorkload::BlobPt,
            Platform::TtaPlus(TtaPlusConfig::default_paper(), RtExperiment::uop_programs()),
        ))
        .run();
        let slowdown = plus.cycles() as f64 / base.cycles() as f64;
        // At unit-test scale the scene is cache-resident and the camera
        // rays are coherent — the worst case for TTA+'s serialized μops —
        // so the band here is wide; the fig16 harness checks the paper's
        // ~8% number at realistic scale.
        assert!(
            (0.9..4.5).contains(&slowdown),
            "TTA+ RT slowdown {slowdown:.2} out of the plausible band"
        );
    }

    #[test]
    fn wknd_offload_beats_shader_on_ttaplus() {
        let shader = small(RtExperiment::new(
            RtWorkload::WkndPt,
            Platform::TtaPlus(TtaPlusConfig::default_paper(), RtExperiment::uop_programs()),
        ))
        .run();
        let mut star = small(RtExperiment::new(
            RtWorkload::WkndPt,
            Platform::TtaPlus(TtaPlusConfig::default_paper(), RtExperiment::uop_programs()),
        ));
        star.offload_sphere = true;
        let star = star.run();
        assert!(
            star.cycles() < shader.cycles(),
            "*WKND_PT ({}) must beat shader WKND_PT ({})",
            star.cycles(),
            shader.cycles()
        );
    }

    #[test]
    #[should_panic(expected = "SATO")]
    fn sato_requires_ttaplus() {
        let mut e = small(RtExperiment::new(
            RtWorkload::ShipSh,
            Platform::BaselineRta(RtaConfig::baseline()),
        ));
        e.sato = true;
        let _ = e.run();
    }
}
