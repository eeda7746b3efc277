//! The sweepable fleet experiment: one (workload, backend, device count,
//! router, policy, rate) point, runnable through the harness and sharing
//! cached [`ServeInputs`] with `tta-serve` sweeps — every device in the
//! fleet mounts the same immutable tree image.

use std::path::Path;
use std::sync::Arc;

use gpu_sim::GpuConfig;
use serve::session::drive_segments;
use serve::{build_service, BatchPolicy, ServeBackend, ServeInputs, ServeWorkload};
use workloads::cacheable::inputs_or_build;
use workloads::runner::sum_stats;
use workloads::{AccelReport, CacheableExperiment, RunResult};

use crate::autoscale::AutoscaleConfig;
use crate::cluster::FleetConfig;
use crate::metrics::summarize;
use crate::router::RouterPolicy;
use crate::session::FleetSession;
use crate::shard::ShardSpec;
use crate::slo::SloConfig;

/// One fleet-experiment configuration.
#[derive(Debug, Clone)]
pub struct FleetExperiment {
    /// Hosted workload (each device serves the same universe).
    pub workload: ServeWorkload,
    /// Hardware backend of every device.
    pub backend: ServeBackend,
    /// Per-device batch-formation policy.
    pub policy: BatchPolicy,
    /// Simulated devices.
    pub devices: usize,
    /// Router policy.
    pub router: RouterPolicy,
    /// Shard partition/replication spec.
    pub shards: ShardSpec,
    /// Per-query remote-shard penalty, in cycles.
    pub shard_miss_penalty: u64,
    /// Priority classes and admission control.
    pub slo: SloConfig,
    /// Warm/cold autoscaling (`None` = all warm).
    pub autoscale: Option<AutoscaleConfig>,
    /// Per-device queue bound.
    pub queue_capacity: Option<usize>,
    /// Queries the stream offers.
    pub offered: usize,
    /// Mean inter-arrival time of the Poisson stream, in cycles.
    pub arrival_mean_cycles: f64,
    /// RNG seed (tree data, arrival stream, class mix, p2c sampler).
    pub seed: u64,
    /// GPU configuration of every device.
    pub gpu: GpuConfig,
    /// Cross-check sampled batch results against the host oracle.
    pub verify: bool,
    /// Pre-built inputs shared across runs (see [`CacheableExperiment`]).
    pub inputs: Option<Arc<ServeInputs>>,
    /// When set, a Chrome trace of the fleet run is written here.
    pub trace_dir: Option<std::path::PathBuf>,
}

impl FleetExperiment {
    /// A default configuration for one point of the fleet grid: one shard
    /// per device, no replication slack, a single uncapped SLO class, and
    /// no autoscaling.
    pub fn new(
        workload: ServeWorkload,
        backend: ServeBackend,
        devices: usize,
        router: RouterPolicy,
        policy: BatchPolicy,
        offered: usize,
        arrival_mean_cycles: f64,
    ) -> Self {
        FleetExperiment {
            workload,
            backend,
            policy,
            devices,
            router,
            shards: ShardSpec::uniform(devices, 1),
            shard_miss_penalty: 0,
            slo: SloConfig::single(u64::MAX),
            autoscale: None,
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

    /// Runs the fleet experiment: stands up `devices` warm services over
    /// one shared tree image, generates the arrival stream and class mix,
    /// drives a [`FleetSession`] to completion (what [`run_fleet`] does),
    /// and folds the outcome into a [`RunResult`] whose `fleet` section
    /// carries the cluster summary.
    ///
    /// # Panics
    ///
    /// Panics when `verify` is set and a sampled batch diverges from the
    /// host oracle, or when attached inputs mismatch the workload.
    ///
    /// [`run_fleet`]: crate::cluster::run_fleet
    pub fn run(&self) -> RunResult {
        self.run_segments(1, self.trace_dir.as_deref())
    }

    /// Runs the fleet as `segments` horizon shards through
    /// [`drive_segments`], exactly as `ServeExperiment::run_sharded` does
    /// for one device: the result is identical to
    /// [`run`](FleetExperiment::run), and `trace_dir` is ignored.
    ///
    /// # Panics
    ///
    /// Panics when `segments` is zero, or as [`run`](FleetExperiment::run).
    pub fn run_sharded(&self, segments: usize) -> RunResult {
        assert!(segments >= 1, "horizon sharding needs at least one segment");
        self.run_segments(segments, None)
    }

    /// The body of [`run`](FleetExperiment::run) (one segment, traced
    /// into `trace_dir`) and [`run_sharded`](FleetExperiment::run_sharded).
    fn run_segments(&self, segments: usize, trace_dir: Option<&Path>) -> RunResult {
        let inputs = inputs_or_build(self, self.inputs.as_ref());
        let arrivals =
            workloads::gen::exponential_arrivals(self.offered, self.arrival_mean_cycles, self.seed);
        let classes =
            workloads::gen::class_assignments(self.offered, &self.slo.weights(), self.seed);
        let (trace, sink) = workloads::runner::trace_pair(trace_dir);
        let cfg = FleetConfig {
            policy: self.policy.clone(),
            router: self.router,
            router_seed: self.seed,
            queue_capacity: self.queue_capacity,
            shards: self.shards.clone(),
            shard_miss_penalty: self.shard_miss_penalty,
            slo: self.slo.clone(),
            autoscale: self.autoscale.clone(),
            trace,
        };
        let (mut services, session) = drive_segments(
            segments,
            &arrivals,
            || {
                let max_batch = self.policy.max_batch(self.gpu.warp_width);
                let (w, b) = (&self.workload, self.backend);
                let mut services: Vec<_> = (0..self.devices)
                    .map(|_| build_service(w, b, &inputs, &self.gpu, max_batch, self.verify))
                    .collect();
                let session = FleetSession::new(
                    &mut services,
                    cfg.clone(),
                    arrivals.clone(),
                    classes.clone(),
                );
                (services, session)
            },
            FleetSession::run_until,
            FleetSession::export_state,
            FleetSession::import_state,
        );
        let outcome = session.finish(&mut services);
        let backend_label = services[0].label();
        let summary = summarize(&cfg, &backend_label, self.arrival_mean_cycles, &outcome);
        let label = format!(
            "fleet {} {} {} d{} {} mean{}",
            self.workload.name(),
            backend_label,
            self.router.label(),
            self.devices,
            self.policy.label(),
            self.arrival_mean_cycles
        );
        if let (Some(dir), Some(sink)) = (trace_dir, &sink) {
            workloads::runner::write_trace(dir, &label, sink);
        }
        let all_stats: Vec<_> = outcome
            .per_device
            .iter()
            .flat_map(|d| d.launch_stats.iter().cloned())
            .collect();
        RunResult {
            label,
            stats: sum_stats(&all_stats),
            accel: AccelReport::merge(services.iter().filter_map(|s| s.accel_report())),
            serve: None,
            fleet: Some(summary),
        }
    }
}

impl CacheableExperiment for FleetExperiment {
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
