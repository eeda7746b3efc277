//! One query device per tree workload.
//!
//! B-Tree lookups, R-Tree range queries, RTNN radius searches and
//! Barnes-Hut force queries share one shape: a serialized tree image in
//! global memory, one fixed-size record per query slot (plus one traversal
//! stack per slot for the stack-based SIMT kernels), a traversal semantics
//! per platform, and a host oracle for the results. A [`QueryWorkload`]
//! impl states only what differs between them; a [`QueryDevice`] does the
//! shared setup once. The closed-batch sessions
//! ([`QuerySession`](crate::session::QuerySession)) and the serving
//! backends of `tta-serve` are both built on it, so they lay out memory,
//! launch and check results the same way.

use gpu_sim::kernel::Kernel;
use gpu_sim::mem::GlobalMemory;
use gpu_sim::{Gpu, GpuConfig, SimStats};
use rta::engine::TraversalSemantics;
use trace::TraceHandle;
use trees::image::MemoryImage;

use crate::btree::traverse_only_kernel;
use crate::cost::Walk;
use crate::runner::{attach_platform, build_gpu, Platform};

/// What one tree-query workload contributes to a [`QueryDevice`].
pub trait QueryWorkload {
    /// One query, as the record writer and the host oracle see it.
    type Query: Copy;
    /// Bytes of one query/result record.
    const RECORD_SIZE: usize;
    /// Bytes of one per-slot traversal stack; 0 when no kernel keeps its
    /// stack in memory.
    const STACK_BYTES: usize;
    /// The oracle checks every `CHECK_STRIDE`-th slot of a launch.
    const CHECK_STRIDE: usize;

    /// The serialized tree image.
    fn image(&self) -> &MemoryImage;
    /// Byte offset inside the image of the pool that launch parameter
    /// [`AUX`](crate::kernels::params::AUX) points at (leaf entries,
    /// primitives, particles); 0 when no kernel reads it.
    fn aux_offset(&self) -> usize;
    /// Size of the query universe.
    fn query_count(&self) -> usize;
    /// Query `i` of the universe.
    fn query(&self, i: usize) -> Self::Query;
    /// The platform as attached. The default is `platform` itself; a
    /// workload that bills part of its work differently overrides it.
    fn platform(&self, platform: &Platform) -> Platform {
        platform.clone()
    }
    /// The traversal semantics (pipeline 0) for `platform` over the image
    /// loaded at `tree_base`.
    fn semantics(&self, platform: &Platform, tree_base: u64) -> Box<dyn TraversalSemantics>;
    /// The kernel the SIMT cores run on a platform without an accelerator.
    fn simt_kernel(&self) -> Kernel;
    /// Walks the host oracle over `queries` for the bounds the cost model
    /// derives every kernel's facts from.
    fn walk(&self, queries: &[Self::Query]) -> Walk;
    /// Writes `q` into the record at `addr` and clears its result fields.
    fn write(&self, gmem: &mut GlobalMemory, addr: u64, q: Self::Query);
    /// Checks the result in the record at `addr` against the oracle's
    /// answer for `q`.
    ///
    /// # Errors
    ///
    /// A description of the mismatch.
    fn check(&self, gmem: &GlobalMemory, addr: u64, q: Self::Query) -> Result<(), String>;
}

/// A simulated GPU set up for one [`QueryWorkload`]: the tree image, `slots`
/// query records and stacks, the platform attached and the kernel picked.
pub struct QueryDevice<W: QueryWorkload> {
    /// The workload the device serves.
    pub workload: W,
    /// The simulated GPU.
    pub gpu: Gpu,
    /// The kernel one launch runs: the traverse-only offload on an
    /// accelerator, the workload's SIMT kernel otherwise.
    pub(crate) kernel: Kernel,
    /// Address of the tree image.
    pub(crate) tree_base: u64,
    /// Address of slot 0's record.
    pub(crate) qbase: u64,
    /// Address of slot 0's stack (0 without stacks).
    pub(crate) stacks: u64,
    /// Address of the extra per-slot buffer (0 when none was asked for).
    pub(crate) extra: u64,
}

impl<W: QueryWorkload> QueryDevice<W> {
    /// Sizes memory, builds the GPU, writes the tree image, allocates
    /// `slots` records and stacks (then `extra_slot_bytes` more per slot
    /// when non-zero), attaches `platform` and picks the kernel.
    pub fn open(
        workload: W,
        platform: &Platform,
        cfg: &GpuConfig,
        slots: usize,
        extra_slot_bytes: usize,
        trace: TraceHandle,
    ) -> Self {
        let image = workload.image();
        let per_slot = W::RECORD_SIZE + W::STACK_BYTES + extra_slot_bytes;
        let mem = (image.len() + slots * per_slot + (1 << 20)).next_power_of_two();
        let mut gpu = build_gpu(cfg, mem);
        gpu.set_trace(trace);
        let tree_base = gpu.gmem.alloc(image.len(), 64);
        gpu.gmem.write_bytes(tree_base, image.as_bytes());
        let qbase = gpu.gmem.alloc(slots * W::RECORD_SIZE, 64);
        let mut alloc = |bytes: usize| match bytes {
            0 => 0,
            b => gpu.gmem.alloc(slots * b, 64),
        };
        let stacks = alloc(W::STACK_BYTES);
        let extra = alloc(extra_slot_bytes);
        let attached = workload.platform(platform);
        attach_platform(&mut gpu, &attached, || {
            vec![workload.semantics(&attached, tree_base)]
        });
        let kernel = if platform.has_accelerator() {
            traverse_only_kernel(W::RECORD_SIZE as u32)
        } else {
            workload.simt_kernel()
        };
        QueryDevice {
            workload,
            gpu,
            kernel,
            tree_base,
            qbase,
            stacks,
            extra,
        }
    }

    /// Address of `slot`'s record.
    pub(crate) fn slot_addr(&self, slot: usize) -> u64 {
        self.qbase + (slot * W::RECORD_SIZE) as u64
    }

    /// Launch parameters for a launch whose thread 0 serves `start`.
    pub(crate) fn params(&self, start: usize) -> [u32; 4] {
        [
            self.slot_addr(start) as u32,
            self.tree_base as u32,
            (self.stacks + (start * W::STACK_BYTES) as u64) as u32,
            (self.tree_base + self.workload.aux_offset() as u64) as u32,
        ]
    }

    /// Writes `q` into `slot`.
    pub fn write(&mut self, slot: usize, q: W::Query) {
        let addr = self.slot_addr(slot);
        self.workload.write(&mut self.gpu.gmem, addr, q);
    }

    /// Runs the device kernel over slots `start..start + len`.
    pub fn launch(&mut self, start: usize, len: usize) -> SimStats {
        let params = self.params(start);
        self.gpu.launch(&self.kernel, len, &params)
    }

    /// Checks every [`QueryWorkload::CHECK_STRIDE`]-th of `queries`, held
    /// in slots `0..queries.len()`, against the oracle.
    ///
    /// # Errors
    ///
    /// The first mismatch, with its slot.
    pub fn check(&self, queries: &[W::Query]) -> Result<(), String> {
        queries
            .iter()
            .enumerate()
            .step_by(W::CHECK_STRIDE)
            .try_for_each(|(slot, &q)| {
                self.workload
                    .check(&self.gpu.gmem, self.slot_addr(slot), q)
                    .map_err(|e| format!("slot {slot}: {e}"))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::btree::{BTreeExperiment, BTreeLookups};
    use crate::cacheable::CacheableExperiment;
    use crate::nbody::{ForceQueries, NBodyExperiment};
    use crate::rtnn::{LeafPath, RadiusQueries, RtnnExperiment};
    use crate::rtree::{RTreeExperiment, RTreeRanges};
    use std::sync::Arc;
    use trees::BTreeFlavor;
    use tta::backend::TtaConfig;
    use tta::ttaplus::TtaPlusConfig;

    /// Runs one launch over two sampling strides of queries, checks that
    /// the oracle accepts it, then inverts every byte of the second sampled
    /// record and checks that the oracle rejects that slot.
    fn assert_oracle_rejects_a_wrong_answer<W: QueryWorkload>(w: W, platform: Platform) {
        let n = 2 * W::CHECK_STRIDE + 1;
        assert!(w.query_count() >= n, "too few queries for two samples");
        let queries: Vec<W::Query> = (0..n).map(|i| w.query(i)).collect();
        let cfg = GpuConfig::small_test();
        let mut dev = QueryDevice::open(w, &platform, &cfg, n, 0, TraceHandle::default());
        for (slot, &q) in queries.iter().enumerate() {
            dev.write(slot, q);
        }
        dev.launch(0, n);
        dev.check(&queries)
            .expect("the simulated answers match the oracle");

        let addr = dev.slot_addr(W::CHECK_STRIDE);
        let wrong: Vec<u8> = dev
            .gpu
            .gmem
            .read_bytes(addr, W::RECORD_SIZE)
            .iter()
            .map(|b| !b)
            .collect();
        dev.gpu.gmem.write_bytes(addr, &wrong);
        let err = dev.check(&queries).expect_err("a wrong answer must fail");
        assert!(
            err.starts_with(&format!("slot {}:", W::CHECK_STRIDE)),
            "{err}"
        );
    }

    #[test]
    fn btree_oracle_rejects_a_wrong_answer() {
        let e = BTreeExperiment::new(BTreeFlavor::BPlus, 2000, 64, Platform::BaselineGpu);
        let w = BTreeLookups(Arc::new(e.build_inputs()));
        assert_oracle_rejects_a_wrong_answer(w, Platform::BaselineGpu);
    }

    #[test]
    fn rtree_oracle_rejects_a_wrong_answer() {
        let e = RTreeExperiment::new(2000, 64, Platform::BaselineGpu);
        let w = RTreeRanges(Arc::new(e.build_inputs()));
        let plus = Platform::TtaPlus(
            TtaPlusConfig::default_paper(),
            RTreeExperiment::uop_programs(),
        );
        assert_oracle_rejects_a_wrong_answer(w, plus);
    }

    #[test]
    fn rtnn_oracle_rejects_a_wrong_answer() {
        let tta = Platform::Tta(TtaConfig::default_paper());
        let e = RtnnExperiment::new(2000, 64, tta.clone(), LeafPath::Offloaded);
        let w = RadiusQueries {
            inputs: Arc::new(e.build_inputs()),
            radius: e.radius,
            leaf: e.leaf,
        };
        assert_oracle_rejects_a_wrong_answer(w, tta);
    }

    #[test]
    fn nbody_oracle_rejects_a_wrong_answer() {
        let tta = Platform::Tta(TtaConfig::default_paper());
        let e = NBodyExperiment::new(3, 300, tta.clone());
        let w = ForceQueries {
            inputs: Arc::new(e.build_inputs()),
            theta: e.theta,
        };
        assert_oracle_rejects_a_wrong_answer(w, tta);
    }
}
