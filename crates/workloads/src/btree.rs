//! The B-Tree / B\*Tree / B+Tree index-search experiment (the paper's
//! flagship workload: up to 5.4× speedup, Fig. 12 top).

use std::sync::Arc;

use gpu_sim::kernel::Kernel;
use gpu_sim::mem::GlobalMemory;
use gpu_sim::GpuConfig;
use rta::engine::TraversalSemantics;
use trees::btree::SerializedBTree;
use trees::image::MemoryImage;
use trees::{BTree, BTreeFlavor};
use tta::btree_sem::{self, BTreeSemantics};
use tta::pipeline::{
    AcceleratorGen, ConfigError, PipelineBuilder, TerminateCond, TestConfig, TraversalPipeline,
};
use tta::programs::UopProgram;

use crate::cacheable::CacheableExperiment;
use crate::cost::Walk;
use crate::gen;
use crate::kernels::btree_search_kernel;
use crate::query::QueryWorkload;
use crate::runner::{Platform, RunResult};

/// One B-Tree experiment configuration.
#[derive(Debug, Clone)]
pub struct BTreeExperiment {
    /// Tree variant.
    pub flavor: BTreeFlavor,
    /// Number of keys in the tree (the Fig. 12 x-axis).
    pub keys: usize,
    /// Number of queries (one GPU thread / TTA ray each).
    pub queries: usize,
    /// RNG seed.
    pub seed: u64,
    /// Hardware platform.
    pub platform: Platform,
    /// GPU configuration.
    pub gpu: GpuConfig,
    /// Sort the queries before launch — the software coherence optimisation
    /// (à la Harmonia) that makes neighbouring threads walk similar paths.
    /// An ablation knob: it narrows the baseline's divergence penalty.
    pub sort_queries: bool,
    /// When `true`, cross-check a sample of results against the host
    /// oracle (cheap; panics on divergence).
    pub verify: bool,
    /// Pre-built inputs shared across runs (see [`crate::cacheable`]);
    /// `None` rebuilds them from the configuration.
    pub inputs: Option<Arc<BTreeInputs>>,
    /// When set, a Chrome trace of the run is written to this directory
    /// (file name derived from the run label).
    pub trace_dir: Option<std::path::PathBuf>,
}

/// The expensive immutable inputs of a [`BTreeExperiment`]: generated
/// keys/queries plus the built and serialized tree.
#[derive(Debug)]
pub struct BTreeInputs {
    /// Indexed keys.
    pub keys: Vec<u32>,
    /// Query keys, in generation order (unsorted).
    pub queries: Vec<u32>,
    /// The host tree (the verification oracle).
    pub tree: BTree,
    /// Its serialized device image.
    pub ser: SerializedBTree,
}

impl BTreeExperiment {
    /// A default configuration for the given variant/platform.
    pub fn new(flavor: BTreeFlavor, keys: usize, queries: usize, platform: Platform) -> Self {
        BTreeExperiment {
            flavor,
            keys,
            queries,
            seed: 0x5eed,
            platform,
            gpu: GpuConfig::vulkan_sim_default(),
            sort_queries: false,
            verify: true,
            inputs: None,
            trace_dir: None,
        }
    }

    /// The TTA+ μop programs this workload registers (Table III rows 1–2):
    /// those of its TTA+ [`pipeline`](Self::pipeline).
    pub fn uop_programs() -> Vec<UopProgram> {
        Self::pipeline(AcceleratorGen::TtaPlus).unwrap().programs()
    }

    /// The Listing-1 pipeline this workload submits: the tests the engine
    /// runs on `gen`, or a [`ConfigError`] when `gen` cannot execute them
    /// (Query-Key on a baseline RTA).
    pub fn pipeline(gen: AcceleratorGen) -> Result<TraversalPipeline, ConfigError> {
        let (inner, leaf) = if gen.is_tta_plus() {
            (
                TestConfig::Uops(UopProgram::query_key_inner()),
                TestConfig::Uops(UopProgram::query_key_leaf()),
            )
        } else {
            (TestConfig::QueryKey, TestConfig::QueryKey)
        };
        PipelineBuilder::new("btree-search")
            .decode_r(&[4, 4, 4, 4]) // key | found | visited | pad
            .decode_i(&[4, 4, 32, 24]) // header | first child | keys | pad
            .decode_l(&[4, 4, 32, 24])
            .config_i(inner)
            .config_l(leaf)
            .config_terminate(TerminateCond::StackEmpty)
            .build(gen)
    }

    /// Runs the experiment — a single-chunk
    /// [`crate::session::QuerySession`] stepped to completion.
    ///
    /// # Panics
    ///
    /// Panics when `verify` is set and the simulated results disagree with
    /// the host-side search oracle.
    pub fn run(&self) -> RunResult {
        crate::session::run_to_end(Box::new(self.session(1)))
    }
}

impl CacheableExperiment for BTreeExperiment {
    type Inputs = BTreeInputs;

    fn inputs_key(&self) -> String {
        format!(
            "btree/{:?}/{}/{}/{:#x}",
            self.flavor, self.keys, self.queries, self.seed
        )
    }

    fn build_inputs(&self) -> BTreeInputs {
        let keys = gen::btree_keys(self.keys, self.seed);
        let queries = gen::btree_queries(&keys, self.queries, self.seed);
        let tree = BTree::bulk_load(self.flavor, &keys);
        let ser = tree.serialize();
        BTreeInputs {
            keys,
            queries,
            tree,
            ser,
        }
    }

    fn set_inputs(&mut self, inputs: Arc<BTreeInputs>) {
        self.inputs = Some(inputs);
    }
}

/// B-Tree key lookups as a [`QueryWorkload`]: the query is the key, the
/// oracle the host tree's search (found flag and path length).
pub struct BTreeLookups(pub Arc<BTreeInputs>);

impl QueryWorkload for BTreeLookups {
    type Query = u32;
    const RECORD_SIZE: usize = btree_sem::QUERY_RECORD_SIZE;
    const STACK_BYTES: usize = 0;
    const CHECK_STRIDE: usize = 17;

    fn image(&self) -> &MemoryImage {
        &self.0.ser.image
    }

    fn query_count(&self) -> usize {
        self.0.queries.len()
    }

    fn query(&self, i: usize) -> u32 {
        self.0.queries[i]
    }

    fn semantics(&self, platform: &Platform, tree_base: u64) -> Vec<Box<dyn TraversalSemantics>> {
        let (inner_test, leaf_test) = platform.declared_tests(BTreeExperiment::pipeline);
        vec![Box::new(BTreeSemantics {
            tree_base,
            bplus: self.0.ser.flavor == BTreeFlavor::BPlus,
            inner_test,
            leaf_test,
        })]
    }

    fn simt_kernel(&self) -> Kernel {
        btree_search_kernel(self.0.ser.flavor == BTreeFlavor::BPlus)
    }

    fn walk(&self, queries: &[u32]) -> Walk {
        let tree = &self.0.tree;
        let visits = queries
            .iter()
            .map(|&q| tree.search(q).nodes_visited as u64)
            .max()
            .unwrap_or(1);
        Walk::new(visits, visits, tree.node_count() as u64, 0)
    }

    fn write(&self, gmem: &mut GlobalMemory, addr: u64, key: u32) {
        btree_sem::write_query_record(gmem, addr, key);
    }

    fn check(&self, gmem: &GlobalMemory, addr: u64, key: u32) -> Result<(), String> {
        let (found, visited) = btree_sem::read_query_result(gmem, addr);
        let oracle = self.0.tree.search(key);
        if found != oracle.found {
            Err(format!(
                "{:?} query {key} found mismatch",
                self.0.ser.flavor
            ))
        } else if visited as usize != oracle.nodes_visited {
            Err(format!("{:?} query {key} path mismatch", self.0.ser.flavor))
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tta::backend::TtaConfig;
    use tta::ttaplus::TtaPlusConfig;

    fn small_gpu() -> GpuConfig {
        GpuConfig::small_test()
    }

    #[test]
    fn baseline_kernel_matches_oracle_all_flavors() {
        for flavor in BTreeFlavor::ALL {
            let mut e = BTreeExperiment::new(flavor, 2000, 256, Platform::BaselineGpu);
            e.gpu = small_gpu();
            let r = e.run(); // verify=true cross-checks against the oracle
            assert!(r.stats.cycles > 0);
            assert!(r.accel.is_none());
        }
    }

    #[test]
    fn tta_beats_baseline() {
        let mut base = BTreeExperiment::new(BTreeFlavor::BTree, 4000, 512, Platform::BaselineGpu);
        base.gpu = small_gpu();
        let mut tta = BTreeExperiment::new(
            BTreeFlavor::BTree,
            4000,
            512,
            Platform::Tta(TtaConfig::default_paper()),
        );
        tta.gpu = small_gpu();
        let rb = base.run();
        let rt = tta.run();
        let speedup = rt.speedup_over(&rb);
        assert!(speedup > 1.2, "TTA speedup only {speedup:.2}x");
        // Offload eliminates most dynamic instructions (the 91% claim).
        assert!(rt.stats.mix.total() * 4 < rb.stats.mix.total());
    }

    #[test]
    fn ttaplus_close_to_tta() {
        let mk = |p: Platform| {
            let mut e = BTreeExperiment::new(BTreeFlavor::BStar, 4000, 512, p);
            e.gpu = small_gpu();
            e.run()
        };
        let tta = mk(Platform::Tta(TtaConfig::default_paper()));
        let plus = mk(Platform::TtaPlus(
            TtaPlusConfig::default_paper(),
            BTreeExperiment::uop_programs(),
        ));
        let ratio = plus.cycles() as f64 / tta.cycles() as f64;
        assert!(
            (0.8..1.8).contains(&ratio),
            "TTA+ should be slightly slower than TTA, got ratio {ratio:.2}"
        );
    }
}

#[cfg(test)]
mod pipeline_tests {
    use super::*;
    use tta::btree_sem::QUERY_RECORD_SIZE;

    #[test]
    fn pipeline_validates_per_generation() {
        // TTA and TTA+ accept the configuration; the baseline RTA cannot
        // run Query-Key tests.
        assert!(BTreeExperiment::pipeline(AcceleratorGen::Tta).is_ok());
        assert!(BTreeExperiment::pipeline(AcceleratorGen::TtaPlus).is_ok());
        assert!(BTreeExperiment::pipeline(AcceleratorGen::BaselineRta).is_err());
    }

    #[test]
    fn pipeline_kinds_match_what_run_configures() {
        use rta::units::TestKind;
        let p = BTreeExperiment::pipeline(AcceleratorGen::Tta).unwrap();
        assert_eq!(p.test_kinds(), (TestKind::QueryKey, TestKind::QueryKey));
        for gen in [AcceleratorGen::TtaPlus, AcceleratorGen::TtaPlusNoSqrt] {
            let p = BTreeExperiment::pipeline(gen).unwrap();
            assert_eq!(p.test_kinds(), (TestKind::Program(0), TestKind::Program(1)));
            assert_eq!(p.programs(), BTreeExperiment::uop_programs());
        }
        assert_eq!(p.ray_layout().total_bytes(), QUERY_RECORD_SIZE);
    }
}
