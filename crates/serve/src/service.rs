//! The serving backend: one generic [`QueryService`] over any
//! [`QueryWorkload`] — B-Tree lookups, RTNN radius searches and
//! Barnes-Hut force queries today — served from a persistent simulated
//! GPU.
//!
//! The device is the [`QueryDevice`] the closed-batch sessions in
//! `tta-workloads` use, so the tree image, record layout, platform
//! attachment, kernel and oracle are the same code. A service sizes the
//! device for the *largest batch* rather than the whole query set: every
//! `run_batch` rewrites the slots for the batch's queries and launches one
//! kernel. The GPU persists across batches, so caches stay warm and
//! accelerator counters accumulate over the serving run — exactly what an
//! online server would see.

use gpu_sim::{GpuConfig, SimStats};
use tta::backend::TtaConfig;
use tta::programs::UopProgram;
use tta::ttaplus::TtaPlusConfig;
use workloads::query::{QueryDevice, QueryWorkload};
use workloads::{AccelReport, Platform};

use crate::engine::BatchService;

/// Which hardware serves the queries. The concrete [`Platform`] depends on
/// the workload: `Base` means the SIMT cores for B-Tree and N-Body but the
/// unmodified RTA for RTNN (which has no SIMT kernel in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeBackend {
    /// The workload's paper baseline (SIMT cores, or plain RTA for RTNN).
    Base,
    /// TTA: modified fixed-function units (paper defaults).
    Tta,
    /// TTA+: OP units + crossbar running the workload's μop programs.
    TtaPlus,
}

impl ServeBackend {
    /// All backends, in journal order.
    pub const ALL: [ServeBackend; 3] =
        [ServeBackend::Base, ServeBackend::Tta, ServeBackend::TtaPlus];

    /// The platform this backend means for a workload whose baseline is
    /// `base` and whose TTA+ μop programs are `programs`.
    pub fn platform(self, base: Platform, programs: Vec<UopProgram>) -> Platform {
        match self {
            ServeBackend::Base => base,
            ServeBackend::Tta => Platform::Tta(TtaConfig::default_paper()),
            ServeBackend::TtaPlus => Platform::TtaPlus(TtaPlusConfig::default_paper(), programs),
        }
    }
}

/// A serving backend: a [`QueryDevice`] with one slot per query of the
/// largest batch.
pub struct QueryService<W: QueryWorkload> {
    dev: QueryDevice<W>,
    max_batch: usize,
    verify: bool,
    label: String,
}

impl<W: QueryWorkload> QueryService<W> {
    /// Builds the device: tree image, `max_batch` query slots, and
    /// `platform` attached. `verify` checks the sampled oracle on every
    /// batch.
    ///
    /// # Panics
    ///
    /// Panics when `max_batch` is zero.
    pub fn new(
        workload: W,
        platform: &Platform,
        gpu: &GpuConfig,
        max_batch: usize,
        verify: bool,
    ) -> Self {
        assert!(max_batch > 0, "serving needs a positive batch bound");
        QueryService {
            dev: QueryDevice::open(
                workload,
                platform,
                gpu,
                max_batch,
                0,
                trace::TraceHandle::default(),
            ),
            max_batch,
            verify,
            label: platform.label().to_owned(),
        }
    }
}

impl<W: QueryWorkload> BatchService for QueryService<W> {
    fn label(&self) -> String {
        self.label.clone()
    }

    fn query_count(&self) -> usize {
        self.dev.workload.query_count()
    }

    fn warp_width(&self) -> usize {
        self.dev.gpu.cfg.warp_width
    }

    fn accel_report(&self) -> Option<AccelReport> {
        AccelReport::harvest(&self.dev.gpu)
    }

    fn set_trace(&mut self, trace: trace::TraceHandle) {
        self.dev.gpu.set_trace(trace);
    }

    fn export_state(&self) -> gpu_sim::StateBag {
        self.dev.gpu.export_state()
    }

    fn import_state(&mut self, bag: &gpu_sim::StateBag) -> Result<(), gpu_sim::BagError> {
        self.dev.gpu.import_state(bag)
    }

    fn run_batch(&mut self, ids: &[usize]) -> SimStats {
        assert!(!ids.is_empty() && ids.len() <= self.max_batch);
        let n = self.query_count();
        let queries: Vec<W::Query> = ids
            .iter()
            .map(|&id| self.dev.workload.query(id % n))
            .collect();
        for (slot, &q) in queries.iter().enumerate() {
            self.dev.write(slot, q);
        }
        let stats = self.dev.launch(0, ids.len());
        if self.verify {
            if let Err(e) = self.dev.check(&queries) {
                panic!("served on {}: {e}", self.label);
            }
        }
        stats
    }
}
