//! The Barnes-Hut N-Body experiment (2D and 3D, Fig. 12 top), including
//! the merged-kernel optimisation of §V-A.

use std::sync::Arc;

use geometry::Vec3;
use gpu_sim::mem::GlobalMemory;
use gpu_sim::GpuConfig;
use rta::engine::TraversalSemantics;
use trees::barnes_hut::SerializedBarnesHut;
use trees::image::MemoryImage;
use trees::{BarnesHutTree, Particle};
use tta::nbody_sem::{self, BarnesHutSemantics, QUERY_RECORD_SIZE};
use tta::pipeline::{
    AcceleratorGen, ConfigError, PipelineBuilder, TerminateCond, TestConfig, TraversalPipeline,
};
use tta::programs::UopProgram;

use crate::cacheable::CacheableExperiment;
use crate::cost::Walk;
use crate::gen;
use crate::kernels::{nbody_force_kernel, params, THREAD_STACK_BYTES};
use crate::query::QueryWorkload;
use crate::runner::{Platform, RunResult};
use gpu_sim::isa::SReg;
use gpu_sim::kernel::{Kernel, KernelBuilder};

/// One N-Body experiment configuration.
#[derive(Debug, Clone)]
pub struct NBodyExperiment {
    /// Spatial dimensions: 2 (quadtree) or 3 (octree).
    pub dims: usize,
    /// Number of bodies.
    pub bodies: usize,
    /// Barnes-Hut opening angle θ.
    pub theta: f32,
    /// RNG seed.
    pub seed: u64,
    /// Hardware platform.
    pub platform: Platform,
    /// GPU configuration.
    pub gpu: GpuConfig,
    /// Run the post-traversal integration, and if so, merged or split.
    pub post: PostProcess,
    /// Cross-check sampled forces against the host oracle.
    pub verify: bool,
    /// Pre-built inputs shared across runs (see [`crate::cacheable`]);
    /// `None` rebuilds them from the configuration.
    pub inputs: Option<Arc<NBodyInputs>>,
    /// When set, a Chrome trace of the run is written to this directory
    /// (file name derived from the run label).
    pub trace_dir: Option<std::path::PathBuf>,
}

/// The expensive immutable inputs of an [`NBodyExperiment`]: the particle
/// set plus the built and serialized Barnes-Hut tree.
#[derive(Debug)]
pub struct NBodyInputs {
    /// Generated bodies.
    pub particles: Vec<Particle>,
    /// The host tree (the verification oracle).
    pub tree: BarnesHutTree,
    /// Its serialized device image.
    pub ser: SerializedBarnesHut,
}

/// How the post-traversal integration kernel runs (§V-A's merged-kernel
/// study: merging lets the TTA and the cores work in parallel).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PostProcess {
    /// Traversal only (the Fig. 12 force-kernel comparison).
    None,
    /// Separate integration launch after the traversal kernel.
    Split,
    /// One kernel: traverse, then integrate in the same thread — other
    /// warps integrate while the accelerator traverses.
    Merged,
}

impl NBodyExperiment {
    /// A default configuration.
    pub fn new(dims: usize, bodies: usize, platform: Platform) -> Self {
        NBodyExperiment {
            dims,
            bodies,
            theta: 0.5,
            seed: 0xb0d1,
            platform,
            gpu: GpuConfig::vulkan_sim_default(),
            post: PostProcess::None,
            verify: true,
            inputs: None,
            trace_dir: None,
        }
    }

    /// TTA+ μop programs: the Point-to-Point opening test and the force
    /// computation (Table III rows 3–4), those of the TTA+
    /// [`pipeline`](Self::pipeline).
    pub fn uop_programs() -> Vec<UopProgram> {
        Self::pipeline(AcceleratorGen::TtaPlus).unwrap().programs()
    }

    /// The Listing-1 pipeline for the Barnes-Hut walk; a [`ConfigError`]
    /// when `gen` cannot run it, notably on TTA+ without the SQRT unit the
    /// force program needs.
    pub fn pipeline(gen: AcceleratorGen) -> Result<TraversalPipeline, ConfigError> {
        let (inner, leaf) = if gen.is_tta_plus() {
            (
                TestConfig::Uops(UopProgram::point_to_point_inner()),
                TestConfig::Uops(UopProgram::nbody_force_leaf()),
            )
        } else {
            // On TTA the SQRT-dependent force runs on the cores.
            (TestConfig::PointToPoint, TestConfig::Shader)
        };
        PipelineBuilder::new("barnes-hut-force")
            .decode_r(&[12, 4, 12, 4]) // pos | theta | out force | visited
            .decode_i(&[4, 4, 12, 4, 4]) // header | first child | com | mass | width
            .decode_l(&[4, 4, 12, 4, 4])
            .config_i(inner)
            .config_l(leaf)
            .config_terminate(TerminateCond::StackEmpty)
            .build(gen)
    }

    /// Runs the experiment — a [`crate::session::QuerySession`] stepped
    /// through its launch plan.
    ///
    /// # Panics
    ///
    /// Panics when `verify` is set and sampled forces diverge from the
    /// host Barnes-Hut oracle.
    pub fn run(&self) -> RunResult {
        crate::session::run_to_end(Box::new(self.session()))
    }
}

impl CacheableExperiment for NBodyExperiment {
    type Inputs = NBodyInputs;

    fn inputs_key(&self) -> String {
        format!("nbody/{}d/{}/{:#x}", self.dims, self.bodies, self.seed)
    }

    fn build_inputs(&self) -> NBodyInputs {
        let particles = gen::nbody_particles(self.bodies, self.dims, self.seed);
        let tree = BarnesHutTree::build(&particles, self.dims);
        let ser = tree.serialize();
        NBodyInputs {
            particles,
            tree,
            ser,
        }
    }

    fn set_inputs(&mut self, inputs: Arc<NBodyInputs>) {
        self.inputs = Some(inputs);
    }
}

/// Barnes-Hut force queries as a [`QueryWorkload`]: each query is a body
/// position, the oracle the host tree's force at opening angle `theta`.
pub struct ForceQueries {
    /// The bodies and the Barnes-Hut tree.
    pub inputs: Arc<NBodyInputs>,
    /// Opening angle θ.
    pub theta: f32,
}

impl QueryWorkload for ForceQueries {
    type Query = Vec3;
    const RECORD_SIZE: usize = QUERY_RECORD_SIZE;
    const STACK_BYTES: usize = THREAD_STACK_BYTES as usize;
    const CHECK_STRIDE: usize = 61;

    fn image(&self) -> &MemoryImage {
        &self.inputs.ser.image
    }

    fn aux_offset(&self) -> usize {
        self.inputs.ser.particle_base
    }

    fn query_count(&self) -> usize {
        self.inputs.particles.len()
    }

    fn query(&self, i: usize) -> Vec3 {
        self.inputs.particles[i].pos
    }

    /// TTA's SQRT-dependent force accumulations run as cheap deferred core
    /// work, not full intersection-shader round-trips.
    fn platform(&self, platform: &Platform) -> Platform {
        match platform {
            Platform::Tta(cfg) => {
                let mut cfg = cfg.clone();
                cfg.rta.shader_callback_latency = 120;
                cfg.rta.shader_interval = 2;
                cfg.rta.shader_instructions = 12;
                Platform::Tta(cfg)
            }
            other => other.clone(),
        }
    }

    fn semantics(&self, platform: &Platform, tree_base: u64) -> Vec<Box<dyn TraversalSemantics>> {
        let (open_test, force_test) = platform.declared_tests(NBodyExperiment::pipeline);
        vec![Box::new(BarnesHutSemantics {
            tree_base,
            particle_base: tree_base + self.inputs.ser.particle_base as u64,
            open_test,
            force_test,
        })]
    }

    fn simt_kernel(&self) -> Kernel {
        nbody_force_kernel()
    }

    /// Every particle lives in exactly one leaf, so one query's leaf
    /// rounds are bounded by the whole particle set.
    fn walk(&self, queries: &[Vec3]) -> Walk {
        let tree = &self.inputs.tree;
        let visits = queries
            .iter()
            .map(|&p| tree.force_on_counted(p, self.theta).1 as u64)
            .max()
            .unwrap_or(1);
        let bodies = self.inputs.particles.len() as u64;
        Walk::new(visits, visits, tree.node_count() as u64, bodies)
    }

    fn write(&self, gmem: &mut GlobalMemory, addr: u64, pos: Vec3) {
        nbody_sem::write_nbody_record(gmem, addr, pos, self.theta);
    }

    fn check(&self, gmem: &GlobalMemory, addr: u64, pos: Vec3) -> Result<(), String> {
        let (force, _) = nbody_sem::read_nbody_result(gmem, addr);
        let oracle = self.inputs.tree.force_on(pos, self.theta);
        if (force - oracle).length() <= 2e-2 * oracle.length().max(1.0) {
            Ok(())
        } else {
            Err(format!("body at {pos}: force {force} vs oracle {oracle}"))
        }
    }
}

/// The merged kernel: offload the traversal, then integrate in-thread —
/// other warps integrate while the accelerator traverses (§V-A).
pub fn merged_traverse_integrate_kernel() -> Kernel {
    let mut k = KernelBuilder::new("nbody_merged");
    let tid = k.reg();
    let q = k.reg();
    let root = k.reg();
    let off = k.reg();
    let vaddr = k.reg();
    k.mov_sreg(tid, SReg::ThreadId);
    k.mov_sreg(q, SReg::Param(params::QUERIES));
    k.mov_sreg(root, SReg::Param(params::TREE));
    k.imul_imm(off, tid, QUERY_RECORD_SIZE as u32);
    k.iadd(q, q, off);
    k.traverse(q, root, 0);
    k.mov_sreg(vaddr, SReg::Param(params::AUX));
    k.imul_imm(off, tid, 12);
    k.iadd(vaddr, vaddr, off);
    crate::kernels::emit_integrate(&mut k, q, vaddr);
    k.exit();
    k.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tta::backend::TtaConfig;
    use tta::ttaplus::TtaPlusConfig;

    fn small(mut e: NBodyExperiment) -> NBodyExperiment {
        e.gpu = GpuConfig::small_test();
        e
    }

    #[test]
    fn baseline_kernel_matches_oracle() {
        let e = small(NBodyExperiment::new(3, 800, Platform::BaselineGpu));
        let r = e.run(); // verify panics on mismatch
        assert!(r.stats.cycles > 0);
        assert!(r.stats.flops > 0);
    }

    #[test]
    fn tta_and_ttaplus_match_oracle_and_speed_up() {
        let base = small(NBodyExperiment::new(3, 800, Platform::BaselineGpu)).run();
        let tta = small(NBodyExperiment::new(
            3,
            800,
            Platform::Tta(TtaConfig::default_paper()),
        ))
        .run();
        let plus = small(NBodyExperiment::new(
            3,
            800,
            Platform::TtaPlus(
                TtaPlusConfig::default_paper(),
                NBodyExperiment::uop_programs(),
            ),
        ))
        .run();
        let s_tta = tta.speedup_over(&base);
        let s_plus = plus.speedup_over(&base);
        assert!(s_tta > 0.8, "TTA N-Body speedup {s_tta:.2}");
        assert!(s_plus > 0.8, "TTA+ N-Body speedup {s_plus:.2}");
    }

    #[test]
    fn merged_beats_split() {
        let mk = |post| {
            let mut e = small(NBodyExperiment::new(
                2,
                1200,
                Platform::TtaPlus(
                    TtaPlusConfig::default_paper(),
                    NBodyExperiment::uop_programs(),
                ),
            ));
            // Integrating warps must not starve traversal submission: give
            // the SM headroom (the paper's config has 32 warps/SM).
            e.gpu.max_warps_per_sm = 16;
            e.post = post;
            e.run()
        };
        let split = mk(PostProcess::Split);
        let merged = mk(PostProcess::Merged);
        assert!(
            merged.cycles() < split.cycles(),
            "merged ({}) must beat split ({})",
            merged.cycles(),
            split.cycles()
        );
    }

    #[test]
    fn quadtree_2d_also_works() {
        let e = small(NBodyExperiment::new(
            2,
            600,
            Platform::Tta(TtaConfig::default_paper()),
        ));
        let r = e.run();
        assert!(r.accel.is_some());
    }
}

#[cfg(test)]
mod pipeline_tests {
    use super::*;

    #[test]
    fn force_program_needs_full_ttaplus() {
        assert!(NBodyExperiment::pipeline(AcceleratorGen::Tta).is_ok());
        assert!(NBodyExperiment::pipeline(AcceleratorGen::TtaPlus).is_ok());
        // Without the SQRT unit the force program is rejected.
        assert!(NBodyExperiment::pipeline(AcceleratorGen::TtaPlusNoSqrt).is_err());
    }
}
