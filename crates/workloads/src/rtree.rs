//! R-Tree spatial range-query experiment — the extension workload.
//!
//! The paper's introduction motivates R-Trees as an indexing workload; this
//! driver evaluates them the same way the paper evaluates the B-Tree
//! family: a baseline SIMT kernel (stack-based range query in the mini-ISA)
//! against the TTA (MBR overlap on the Ray-Box unit) and TTA+ (Ray-Box μop
//! program).

use std::sync::Arc;

use geometry::{Aabb, Vec3};
use gpu_sim::isa::{Cmp, SReg};
use gpu_sim::kernel::{Kernel, KernelBuilder};
use gpu_sim::mem::GlobalMemory;
use gpu_sim::GpuConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rta::engine::TraversalSemantics;
use trees::image::MemoryImage;
use trees::rtree::{RTree, RTreeEntry, SerializedRTree, ENTRY_STRIDE, RTREE_FANOUT};
use tta::pipeline::{
    AcceleratorGen, ConfigError, PipelineBuilder, TerminateCond, TestConfig, TraversalPipeline,
};
use tta::programs::UopProgram;
use tta::rtree_sem::{read_range_result, write_range_record, RTreeSemantics, QUERY_RECORD_SIZE};

use crate::cacheable::CacheableExperiment;
use crate::cost::Walk;
use crate::kernels::{params, Stack, THREAD_STACK_BYTES};
use crate::query::QueryWorkload;
use crate::runner::{Platform, RunResult};

/// One R-Tree experiment configuration.
#[derive(Debug, Clone)]
pub struct RTreeExperiment {
    /// Number of indexed rectangles.
    pub rects: usize,
    /// Number of range queries.
    pub queries: usize,
    /// Query edge length relative to the average rectangle spacing.
    pub query_extent: f32,
    /// RNG seed.
    pub seed: u64,
    /// Hardware platform.
    pub platform: Platform,
    /// GPU configuration.
    pub gpu: GpuConfig,
    /// Cross-check sampled counts against the host R-Tree oracle.
    pub verify: bool,
    /// Pre-built inputs shared across runs (see [`crate::cacheable`]);
    /// `None` rebuilds them from the configuration.
    pub inputs: Option<Arc<RTreeInputs>>,
}

/// The expensive immutable inputs of an [`RTreeExperiment`]: the indexed
/// rectangles, the range queries, and the built/serialized R-Tree.
#[derive(Debug)]
pub struct RTreeInputs {
    /// Indexed rectangles.
    pub entries: Vec<RTreeEntry>,
    /// Range queries.
    pub queries: Vec<Aabb>,
    /// The host tree (the verification oracle).
    pub tree: RTree,
    /// Its serialized device image.
    pub ser: SerializedRTree,
}

impl RTreeExperiment {
    /// A default configuration.
    pub fn new(rects: usize, queries: usize, platform: Platform) -> Self {
        RTreeExperiment {
            rects,
            queries,
            query_extent: 6.0,
            seed: 0x41ee,
            platform,
            gpu: GpuConfig::vulkan_sim_default(),
            verify: true,
            inputs: None,
        }
    }

    /// TTA+ μop programs: one Ray-Box for both inner and leaf overlap
    /// tests, that of the TTA+ [`pipeline`](Self::pipeline).
    pub fn uop_programs() -> Vec<UopProgram> {
        Self::pipeline(AcceleratorGen::TtaPlus).unwrap().programs()
    }

    /// The Listing-1 pipeline for range queries: the MBR overlap test of
    /// inner nodes and leaf entries alike runs on the Ray-Box unit, or as
    /// the Table III Ray-Box program on TTA+. It builds on every generation.
    pub fn pipeline(gen: AcceleratorGen) -> Result<TraversalPipeline, ConfigError> {
        let test = if gen.is_tta_plus() {
            TestConfig::Uops(UopProgram::ray_box())
        } else {
            TestConfig::RayBox
        };
        PipelineBuilder::new("rtree-range")
            .decode_r(&[12, 12, 4, 4]) // box min | box max | count | visited
            .decode_i(&[4, 4, 12, 12, 32]) // header | first child | mbr min | mbr max | reserved
            .decode_l(&[4, 4, 12, 12, 32])
            .config_i(test.clone())
            .config_l(test)
            .config_terminate(TerminateCond::StackEmpty)
            .build(gen)
    }

    fn dataset(&self) -> (Vec<RTreeEntry>, Vec<Aabb>) {
        let mut rng = StdRng::seed_from_u64(self.seed);
        // Geo-tagged-object-like data: clustered rectangles on a plane.
        let nclusters = 12.max(self.rects / 4000);
        let centers: Vec<(f32, f32)> = (0..nclusters)
            .map(|_| {
                (
                    rng.random_range(-500.0..500.0),
                    rng.random_range(-500.0..500.0),
                )
            })
            .collect();
        let entries: Vec<RTreeEntry> = (0..self.rects)
            .map(|i| {
                let (cx, cy) = centers[i % nclusters];
                let x = cx + rng.random_range(-60.0f32..60.0);
                let y = cy + rng.random_range(-60.0f32..60.0);
                let w = rng.random_range(0.2f32..3.0);
                let h = rng.random_range(0.2f32..3.0);
                RTreeEntry {
                    rect: Aabb::new(Vec3::new(x, y, 0.0), Vec3::new(x + w, y + h, 1.0)),
                    id: i as u32,
                }
            })
            .collect();
        let queries: Vec<Aabb> = (0..self.queries)
            .map(|_| {
                let (cx, cy) = centers[rng.random_range(0..nclusters)];
                let x = cx + rng.random_range(-70.0f32..70.0);
                let y = cy + rng.random_range(-70.0f32..70.0);
                let e = rng.random_range(0.5..self.query_extent);
                Aabb::new(Vec3::new(x, y, -1.0), Vec3::new(x + e, y + e, 2.0))
            })
            .collect();
        (entries, queries)
    }

    /// Runs the experiment — a single-chunk
    /// [`crate::session::QuerySession`] stepped to completion.
    ///
    /// # Panics
    ///
    /// Panics when `verify` is set and sampled counts diverge from the
    /// host R-Tree oracle.
    pub fn run(&self) -> RunResult {
        crate::session::run_to_end(Box::new(self.session(1)))
    }
}

impl CacheableExperiment for RTreeExperiment {
    type Inputs = RTreeInputs;

    fn inputs_key(&self) -> String {
        format!(
            "rtree/{}/{}/{:08x}/{:#x}",
            self.rects,
            self.queries,
            self.query_extent.to_bits(),
            self.seed
        )
    }

    fn build_inputs(&self) -> RTreeInputs {
        let (entries, queries) = self.dataset();
        let tree = RTree::bulk_load(&entries);
        let ser = tree.serialize();
        RTreeInputs {
            entries,
            queries,
            tree,
            ser,
        }
    }

    fn set_inputs(&mut self, inputs: Arc<RTreeInputs>) {
        self.inputs = Some(inputs);
    }
}

/// R-Tree range queries as a [`QueryWorkload`]: the oracle is the host
/// tree's counted range query (hit count and nodes visited).
pub struct RTreeRanges(pub Arc<RTreeInputs>);

impl QueryWorkload for RTreeRanges {
    type Query = Aabb;
    const RECORD_SIZE: usize = QUERY_RECORD_SIZE;
    const STACK_BYTES: usize = THREAD_STACK_BYTES as usize;
    const CHECK_STRIDE: usize = 23;

    fn image(&self) -> &MemoryImage {
        &self.0.ser.image
    }

    fn aux_offset(&self) -> usize {
        self.0.ser.entry_base
    }

    fn query_count(&self) -> usize {
        self.0.queries.len()
    }

    fn query(&self, i: usize) -> Aabb {
        self.0.queries[i]
    }

    fn semantics(&self, platform: &Platform, tree_base: u64) -> Vec<Box<dyn TraversalSemantics>> {
        let (inner_test, leaf_test) = platform.declared_tests(RTreeExperiment::pipeline);
        vec![Box::new(RTreeSemantics {
            tree_base,
            entry_base: tree_base + self.0.ser.entry_base as u64,
            inner_test,
            leaf_test,
        })]
    }

    fn simt_kernel(&self) -> Kernel {
        rtree_range_kernel()
    }

    /// Each visited node tests at most a fanout of children or leaf
    /// entries on top of its own fetch.
    fn walk(&self, queries: &[Aabb]) -> Walk {
        let tree = &self.0.tree;
        let visits = queries
            .iter()
            .map(|q| tree.range_query_counted(q).1 as u64)
            .max()
            .unwrap_or(1);
        let items = visits * RTREE_FANOUT as u64;
        Walk::new(visits, visits, tree.node_count() as u64, items)
    }

    fn write(&self, gmem: &mut GlobalMemory, addr: u64, q: Aabb) {
        write_range_record(gmem, addr, &q);
    }

    fn check(&self, gmem: &GlobalMemory, addr: u64, q: Aabb) -> Result<(), String> {
        let (count, visited) = read_range_result(gmem, addr);
        let (oracle, ovisited) = self.0.tree.range_query_counted(&q);
        if count as usize != oracle.len() {
            Err(format!(
                "range {q:?}: {count} hits, oracle {}",
                oracle.len()
            ))
        } else if visited as usize != ovisited {
            Err(format!("range {q:?}: visited {visited}, oracle {ovisited}"))
        } else {
            Ok(())
        }
    }
}

/// Baseline SIMT R-Tree range-query kernel: stack-based walk with inline
/// MBR/entry overlap tests.
pub fn rtree_range_kernel() -> Kernel {
    let mut k = KernelBuilder::new("rtree_range");
    let tid = k.reg();
    let qaddr = k.reg();
    let tree = k.reg();
    let ents = k.reg();
    let sp = k.reg();
    let base = k.reg();
    let node = k.reg();
    let qminx = k.reg();
    let qminy = k.reg();
    let qminz = k.reg();
    let qmaxx = k.reg();
    let qmaxy = k.reg();
    let qmaxz = k.reg();
    let count = k.reg();
    let visited = k.reg();
    let header = k.reg();
    let kind = k.reg();
    let n = k.reg();
    let first = k.reg();
    let cond = k.reg();
    let ok = k.reg();
    let tmp = k.reg();
    let a = k.reg();
    let j = k.reg();

    k.mov_sreg(tid, SReg::ThreadId);
    k.mov_sreg(qaddr, SReg::Param(params::QUERIES));
    k.imul_imm(tmp, tid, QUERY_RECORD_SIZE as u32);
    k.iadd(qaddr, qaddr, tmp);
    k.mov_sreg(tree, SReg::Param(params::TREE));
    k.mov_sreg(ents, SReg::Param(params::AUX));
    k.mov_sreg(base, SReg::Param(params::STACKS));
    k.imul_imm(tmp, tid, THREAD_STACK_BYTES);
    k.iadd(base, base, tmp);
    k.mov(sp, base);
    let stack = Stack { sp, base };

    k.load(qminx, qaddr, 0);
    k.load(qminy, qaddr, 4);
    k.load(qminz, qaddr, 8);
    k.load(qmaxx, qaddr, 12);
    k.load(qmaxy, qaddr, 16);
    k.load(qmaxz, qaddr, 20);
    k.mov_imm(count, 0);
    k.mov_imm(visited, 0);

    stack.push(&mut k, tree);

    // Emits the box-overlap test of the box at `addr + off` against the
    // query, leaving 0/1 in `ok`.
    let overlap = |k: &mut KernelBuilder, addr, off: i32, ok, tmp, a| {
        // qmin.x <= box.max.x
        k.load(a, addr, off + 12);
        k.fcmp(Cmp::Le, ok, qminx, a);
        // qmax.x >= box.min.x
        k.load(a, addr, off);
        k.fcmp(Cmp::Ge, tmp, qmaxx, a);
        k.and(ok, ok, tmp);
        k.load(a, addr, off + 16);
        k.fcmp(Cmp::Le, tmp, qminy, a);
        k.and(ok, ok, tmp);
        k.load(a, addr, off + 4);
        k.fcmp(Cmp::Ge, tmp, qmaxy, a);
        k.and(ok, ok, tmp);
        k.load(a, addr, off + 20);
        k.fcmp(Cmp::Le, tmp, qminz, a);
        k.and(ok, ok, tmp);
        k.load(a, addr, off + 8);
        k.fcmp(Cmp::Ge, tmp, qmaxz, a);
        k.and(ok, ok, tmp);
    };

    let walk = stack.begin_walk(&mut k, cond, node);
    k.iadd_imm(visited, visited, 1);

    k.load(header, node, 0);
    k.and_imm(kind, header, 0xff);
    k.shr_imm(n, header, 8);
    k.and_imm(n, n, 0xff);
    k.load(first, node, 4);

    overlap(&mut k, node, 8, ok, tmp, a);
    let hit_tok = k.begin_if_nz(ok);
    {
        k.mov_imm(tmp, 1);
        k.icmp(Cmp::Eq, cond, kind, tmp);
        let mut leaf_tok = k.begin_if_nz(cond);
        {
            // Leaf: test each entry rectangle.
            let eaddr = k.reg();
            k.mov_imm(j, 0);
            let mut scan = k.begin_loop();
            k.icmp(Cmp::Lt, cond, j, n);
            k.break_if_z(cond, &mut scan);
            k.iadd(eaddr, first, j);
            k.imul_imm(eaddr, eaddr, ENTRY_STRIDE as u32);
            k.iadd(eaddr, eaddr, ents);
            overlap(&mut k, eaddr, 0, ok, tmp, a);
            let in_tok = k.begin_if_nz(ok);
            k.iadd_imm(count, count, 1);
            k.end_if(in_tok);
            k.iadd_imm(j, j, 1);
            k.end_loop(scan);
        }
        k.begin_else(&mut leaf_tok);
        {
            // Inner: push all children.
            let caddr = k.reg();
            k.mov_imm(j, 0);
            let mut push = k.begin_loop();
            k.icmp(Cmp::Lt, cond, j, n);
            k.break_if_z(cond, &mut push);
            k.iadd(caddr, first, j);
            k.shl_imm(caddr, caddr, 6);
            k.iadd(caddr, caddr, tree);
            stack.push(&mut k, caddr);
            k.iadd_imm(j, j, 1);
            k.end_loop(push);
        }
        k.end_if(leaf_tok);
    }
    k.end_if(hit_tok);
    k.end_loop(walk);

    k.store(count, qaddr, 24);
    k.store(visited, qaddr, 28);
    k.exit();
    k.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tta::backend::TtaConfig;
    use tta::ttaplus::TtaPlusConfig;

    fn small(mut e: RTreeExperiment) -> RTreeExperiment {
        e.gpu = GpuConfig::small_test();
        e
    }

    #[test]
    fn baseline_kernel_matches_oracle() {
        let e = small(RTreeExperiment::new(4_000, 256, Platform::BaselineGpu));
        let r = e.run(); // verify checks counts and visit counts
        assert!(r.stats.cycles > 0);
        assert!(
            r.stats.simt_efficiency() < 0.95,
            "range queries should diverge"
        );
    }

    #[test]
    fn tta_matches_oracle_and_speeds_up() {
        let base = small(RTreeExperiment::new(4_000, 512, Platform::BaselineGpu)).run();
        let tta = small(RTreeExperiment::new(
            4_000,
            512,
            Platform::Tta(TtaConfig::default_paper()),
        ))
        .run();
        let s = tta.speedup_over(&base);
        assert!(s > 1.0, "R-Tree TTA speedup {s:.2}");
    }

    #[test]
    fn ttaplus_matches_oracle() {
        let e = small(RTreeExperiment::new(
            3_000,
            256,
            Platform::TtaPlus(
                TtaPlusConfig::default_paper(),
                RTreeExperiment::uop_programs(),
            ),
        ));
        let r = e.run();
        assert!(r.accel.is_some());
    }
}
