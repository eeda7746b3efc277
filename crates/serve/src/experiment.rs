//! The sweepable serving experiment: one (workload, backend, policy,
//! arrival rate) point, runnable through the harness like any closed-batch
//! experiment and cacheable via [`CacheableExperiment`].

use std::path::Path;
use std::sync::Arc;

use gpu_sim::GpuConfig;
use rta::RtaConfig;
use trees::BTreeFlavor;
use workloads::btree::{BTreeExperiment, BTreeInputs, BTreeLookups};
use workloads::cacheable::inputs_or_build;
use workloads::nbody::{ForceQueries, NBodyExperiment, NBodyInputs};
use workloads::rtnn::{LeafPath, RadiusQueries, RtnnExperiment, RtnnInputs};
use workloads::runner::sum_stats;
use workloads::{CacheableExperiment, Platform, RunResult};

use crate::engine::{BatchService, ServeConfig};
use crate::metrics::summarize;
use crate::policy::BatchPolicy;
use crate::service::{QueryService, ServeBackend};
use crate::session::{drive_segments, ServeSession};

/// Which query workload the server hosts, with its tree parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeWorkload {
    /// B-Tree key lookups over a `keys`-key index; the stream draws from
    /// `universe` distinct query keys.
    BTree {
        /// Tree variant.
        flavor: BTreeFlavor,
        /// Indexed keys.
        keys: usize,
        /// Distinct query keys the stream cycles through.
        universe: usize,
    },
    /// RTNN radius searches over a `points`-point cloud.
    Rtnn {
        /// Point-cloud size.
        points: usize,
        /// Distinct query points the stream cycles through.
        universe: usize,
        /// Search radius.
        radius: f32,
    },
    /// Barnes-Hut force queries against a `bodies`-body tree (the bodies
    /// themselves are the query universe).
    NBody {
        /// Spatial dimensions (2 or 3).
        dims: usize,
        /// Number of bodies.
        bodies: usize,
        /// Opening angle θ.
        theta: f32,
    },
}

impl ServeWorkload {
    /// Short name for labels and cache keys.
    pub fn name(&self) -> &'static str {
        match self {
            ServeWorkload::BTree { .. } => "btree",
            ServeWorkload::Rtnn { .. } => "rtnn",
            ServeWorkload::NBody { .. } => "nbody",
        }
    }

    /// The cache key of this workload's inputs under `seed`. Namespaced
    /// under `serve/` so keys never collide with the closed-batch
    /// experiments' inputs in a shared cache; serve and fleet experiments
    /// over the same workload and seed share one tree image.
    pub fn inputs_key(&self, seed: u64) -> String {
        match self {
            ServeWorkload::BTree {
                flavor,
                keys,
                universe,
            } => format!("serve/btree/{flavor:?}/{keys}/{universe}/{seed:#x}"),
            ServeWorkload::Rtnn {
                points,
                universe,
                radius,
            } => format!(
                "serve/rtnn/{points}/{universe}/{:08x}/{seed:#x}",
                radius.to_bits()
            ),
            ServeWorkload::NBody {
                dims,
                bodies,
                theta,
            } => format!(
                "serve/nbody/{dims}d/{bodies}/{:08x}/{seed:#x}",
                theta.to_bits()
            ),
        }
    }

    /// Builds this workload's inputs (generated data and serialized tree)
    /// under `seed`.
    pub fn build_inputs(&self, seed: u64) -> ServeInputs {
        match self {
            ServeWorkload::BTree {
                flavor,
                keys,
                universe,
            } => {
                let mut e = BTreeExperiment::new(*flavor, *keys, *universe, Platform::BaselineGpu);
                e.seed = seed;
                ServeInputs::BTree(Arc::new(e.build_inputs()))
            }
            ServeWorkload::Rtnn {
                points,
                universe,
                radius,
            } => {
                let mut e = RtnnExperiment::new(
                    *points,
                    *universe,
                    Platform::BaselineGpu,
                    LeafPath::Offloaded,
                );
                e.radius = *radius;
                e.seed = seed;
                ServeInputs::Rtnn(Arc::new(e.build_inputs()))
            }
            ServeWorkload::NBody { dims, bodies, .. } => {
                let mut e = NBodyExperiment::new(*dims, *bodies, Platform::BaselineGpu);
                e.seed = seed;
                ServeInputs::NBody(Arc::new(e.build_inputs()))
            }
        }
    }
}

/// Pre-built immutable inputs of a [`ServeExperiment`] — the underlying
/// workload's generated data and serialized tree, shared across every
/// (backend, policy, rate) point of a sweep.
#[derive(Debug)]
pub enum ServeInputs {
    /// B-Tree inputs.
    BTree(Arc<BTreeInputs>),
    /// RTNN inputs.
    Rtnn(Arc<RtnnInputs>),
    /// N-Body inputs.
    NBody(Arc<NBodyInputs>),
}

/// Builds one persistent warm [`BatchService`] device for `workload` on
/// `backend` — the same construction [`ServeExperiment::run`] performs,
/// exposed so `tta-fleet` can stand up N identical devices sharing one
/// [`ServeInputs`] tree image.
///
/// # Panics
///
/// Panics when `inputs` does not match `workload`.
pub fn build_service(
    workload: &ServeWorkload,
    backend: ServeBackend,
    inputs: &ServeInputs,
    gpu: &GpuConfig,
    max_batch: usize,
    verify: bool,
) -> Box<dyn BatchService> {
    match (workload, inputs) {
        (ServeWorkload::BTree { .. }, ServeInputs::BTree(i)) => Box::new(QueryService::new(
            BTreeLookups(Arc::clone(i)),
            &backend.platform(Platform::BaselineGpu, BTreeExperiment::uop_programs()),
            gpu,
            max_batch,
            verify,
        )),
        (ServeWorkload::Rtnn { radius, .. }, ServeInputs::Rtnn(i)) => {
            // `Base` is the paper's RTNN baseline: the plain RTA with the
            // exact distance check in an intersection shader; TTA/TTA+
            // offload the leaf test.
            let leaf = match backend {
                ServeBackend::Base => LeafPath::Shader,
                _ => LeafPath::Offloaded,
            };
            let w = RadiusQueries {
                inputs: Arc::clone(i),
                radius: *radius,
                leaf,
            };
            let base = Platform::BaselineRta(RtaConfig::baseline());
            let platform = backend.platform(base, RtnnExperiment::uop_programs());
            Box::new(QueryService::new(w, &platform, gpu, max_batch, verify))
        }
        (ServeWorkload::NBody { theta, .. }, ServeInputs::NBody(i)) => {
            let w = ForceQueries {
                inputs: Arc::clone(i),
                theta: *theta,
            };
            let platform = backend.platform(Platform::BaselineGpu, NBodyExperiment::uop_programs());
            Box::new(QueryService::new(w, &platform, gpu, max_batch, verify))
        }
        _ => panic!("serve inputs do not match the configured workload"),
    }
}

/// One serving-experiment configuration: a seeded open-loop query stream
/// offered to one backend under one batching policy.
#[derive(Debug, Clone)]
pub struct ServeExperiment {
    /// Hosted workload.
    pub workload: ServeWorkload,
    /// Hardware backend.
    pub backend: ServeBackend,
    /// Batch-formation policy.
    pub policy: BatchPolicy,
    /// Queue bound for backpressure (`None` = unbounded, never drops).
    pub queue_capacity: Option<usize>,
    /// Number of queries the stream offers.
    pub offered: usize,
    /// Mean inter-arrival time of the Poisson stream, in cycles.
    pub arrival_mean_cycles: f64,
    /// RNG seed (tree data and arrival stream both derive from it).
    pub seed: u64,
    /// GPU configuration.
    pub gpu: GpuConfig,
    /// Cross-check sampled batch results against the host oracle.
    pub verify: bool,
    /// Pre-built inputs shared across runs (see [`CacheableExperiment`]);
    /// `None` rebuilds them from the configuration.
    pub inputs: Option<Arc<ServeInputs>>,
    /// When set, a Chrome trace of the serving run is written to this
    /// directory (file name derived from the run label).
    pub trace_dir: Option<std::path::PathBuf>,
}

impl ServeExperiment {
    /// A default configuration for the given point in the serving grid.
    pub fn new(
        workload: ServeWorkload,
        backend: ServeBackend,
        policy: BatchPolicy,
        offered: usize,
        arrival_mean_cycles: f64,
    ) -> Self {
        ServeExperiment {
            workload,
            backend,
            policy,
            queue_capacity: None,
            offered,
            arrival_mean_cycles,
            seed: 0x5e7e,
            gpu: GpuConfig::vulkan_sim_default(),
            verify: true,
            inputs: None,
            trace_dir: None,
        }
    }

    /// Runs the serving experiment: generates the arrival stream, drives
    /// the virtual-clock engine, and folds the outcome into a
    /// [`RunResult`] whose `serve` section carries the latency summary.
    ///
    /// # Panics
    ///
    /// Panics when `verify` is set and a sampled batch result diverges
    /// from the host oracle, or when attached inputs mismatch the
    /// configured workload.
    pub fn run(&self) -> RunResult {
        self.run_segments(1, self.trace_dir.as_deref())
    }

    /// Runs the experiment as `segments` horizon shards through
    /// [`drive_segments`]: at each cut the session and backend state move
    /// onto a **fresh** service and session built from configuration.
    /// The result is identical to [`run`](ServeExperiment::run) (the
    /// differential tests in `tta-snap` assert journal byte-equality).
    /// Tracing is disabled in sharded mode; `trace_dir` is ignored.
    ///
    /// # Panics
    ///
    /// Panics when `segments` is zero, or as [`run`](ServeExperiment::run).
    pub fn run_sharded(&self, segments: usize) -> RunResult {
        assert!(segments >= 1, "horizon sharding needs at least one segment");
        self.run_segments(segments, None)
    }

    /// The body of [`run`](ServeExperiment::run) (one segment, traced
    /// into `trace_dir`) and [`run_sharded`](ServeExperiment::run_sharded).
    fn run_segments(&self, segments: usize, trace_dir: Option<&Path>) -> RunResult {
        let inputs = inputs_or_build(self, self.inputs.as_ref());
        let arrivals =
            workloads::gen::exponential_arrivals(self.offered, self.arrival_mean_cycles, self.seed);
        let (trace, sink) = workloads::runner::trace_pair(trace_dir);
        let cfg = ServeConfig {
            policy: self.policy.clone(),
            queue_capacity: self.queue_capacity,
            trace,
        };
        let (mut services, session) = drive_segments(
            segments,
            &arrivals,
            || {
                let max_batch = self.policy.max_batch(self.gpu.warp_width);
                let (w, b) = (&self.workload, self.backend);
                let mut svc = build_service(w, b, &inputs, &self.gpu, max_batch, self.verify);
                let session = ServeSession::new(svc.as_mut(), cfg.clone(), arrivals.clone());
                (vec![svc], session)
            },
            |s, svcs, stop| s.run_until(svcs[0].as_mut(), stop),
            ServeSession::export_state,
            ServeSession::import_state,
        );
        let svc = &mut services[0];
        let outcome = session.finish(svc.as_mut());
        let summary = summarize(
            &self.policy.label(),
            &svc.label(),
            self.arrival_mean_cycles,
            &outcome,
        );
        let label = format!(
            "serve {} {} {} mean{}",
            self.workload.name(),
            svc.label(),
            self.policy.label(),
            self.arrival_mean_cycles
        );
        if let (Some(dir), Some(sink)) = (trace_dir, &sink) {
            workloads::runner::write_trace(dir, &label, sink);
        }
        RunResult {
            label,
            stats: sum_stats(&outcome.launch_stats),
            accel: svc.accel_report(),
            serve: Some(summary),
            fleet: None,
        }
    }
}

impl CacheableExperiment for ServeExperiment {
    type Inputs = ServeInputs;

    fn inputs_key(&self) -> String {
        self.workload.inputs_key(self.seed)
    }

    fn build_inputs(&self) -> ServeInputs {
        self.workload.build_inputs(self.seed)
    }

    fn set_inputs(&mut self, inputs: Arc<ServeInputs>) {
        self.inputs = Some(inputs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_btree(policy: BatchPolicy, backend: ServeBackend) -> ServeExperiment {
        let mut e = ServeExperiment::new(
            ServeWorkload::BTree {
                flavor: BTreeFlavor::BTree,
                keys: 2000,
                universe: 256,
            },
            backend,
            policy,
            192,
            150.0,
        );
        e.gpu = GpuConfig::small_test();
        e
    }

    #[test]
    fn btree_serving_verifies_and_reports() {
        let e = small_btree(BatchPolicy::SizeTriggered { batch: 32 }, ServeBackend::Base);
        let r = e.run(); // verify=true cross-checks every batch
        let s = r.serve.expect("serving run must carry a summary");
        assert_eq!(s.offered, 192);
        assert_eq!(s.dropped, 0, "unbounded queue never drops");
        assert_eq!(s.completed, 192);
        assert!(s.batches >= 6);
        assert!(s.p50_latency <= s.p95_latency && s.p95_latency <= s.p99_latency);
        assert!(s.p99_latency <= s.max_latency);
        assert!(s.makespan_cycles > 0);
        assert!(r.stats.cycles > 0, "stats must sum the launches");
    }

    #[test]
    fn tta_backend_serves_with_accelerator() {
        let e = small_btree(BatchPolicy::Continuous { max_warps: 4 }, ServeBackend::Tta);
        let r = e.run();
        assert!(r.accel.is_some(), "TTA serving must harvest accel counters");
        assert_eq!(r.serve.unwrap().backend, "TTA");
    }

    #[test]
    fn cached_inputs_reproduce_the_uncached_run() {
        let mut a = small_btree(BatchPolicy::Continuous { max_warps: 2 }, ServeBackend::Base);
        let b = a.clone();
        a.set_inputs(Arc::new(a.build_inputs()));
        let ra = a.run();
        let rb = b.run();
        assert_eq!(ra.serve, rb.serve, "cached inputs must not change results");
        assert_eq!(ra.stats.cycles, rb.stats.cycles);
    }

    #[test]
    #[should_panic(expected = "do not match")]
    fn mismatched_inputs_panic() {
        let mut e = small_btree(BatchPolicy::SizeTriggered { batch: 8 }, ServeBackend::Base);
        let nbody = ServeExperiment::new(
            ServeWorkload::NBody {
                dims: 2,
                bodies: 300,
                theta: 0.5,
            },
            ServeBackend::Base,
            BatchPolicy::SizeTriggered { batch: 8 },
            16,
            100.0,
        );
        e.set_inputs(Arc::new(nbody.build_inputs()));
        let _ = e.run();
    }
}
