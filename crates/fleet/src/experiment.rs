//! The sweepable fleet experiment: one (workload, backend, device count,
//! router, policy, rate) point, runnable through the harness and sharing
//! cached [`ServeInputs`] with `tta-serve` sweeps — every device in the
//! fleet mounts the same immutable tree image.

use std::path::Path;
use std::sync::Arc;

use gpu_sim::GpuConfig;
use serve::{build_service, BatchPolicy, BatchService, ServeBackend, ServeInputs, ServeWorkload};
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

    /// The equivalent single-device serve experiment — the fleet reuses
    /// its input cache key and builder so one tree image feeds both.
    fn serve_proxy(&self) -> serve::ServeExperiment {
        let mut e = serve::ServeExperiment::new(
            self.workload.clone(),
            self.backend,
            self.policy.clone(),
            self.offered,
            self.arrival_mean_cycles,
        );
        e.seed = self.seed;
        e
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

    /// Runs the fleet as `segments` horizon shards: the virtual horizon is
    /// cut at evenly spaced cycles, and at each cut the full cluster state
    /// (session clock/router/autoscaler/engines + every device's GPU) is
    /// exported, **fresh** services and a fresh session are built from the
    /// configuration, and the snapshot is restored onto them before
    /// continuing. The result is identical to
    /// [`run`](FleetExperiment::run) — the differential tests in
    /// `tta-snap` assert journal byte-equality.
    ///
    /// Tracing is disabled in sharded mode (spans would split across
    /// segments); `trace_dir` is ignored. `segments == 1` degenerates to a
    /// straight-line run.
    ///
    /// # Panics
    ///
    /// Panics when `segments` is zero, when `verify` is set and a sampled
    /// batch diverges from the host oracle, or when attached inputs
    /// mismatch the workload.
    pub fn run_sharded(&self, segments: usize) -> RunResult {
        assert!(segments >= 1, "horizon sharding needs at least one segment");
        self.run_segments(segments, None)
    }

    /// The body of [`run`](FleetExperiment::run) (one segment, traced
    /// into `trace_dir`) and [`run_sharded`](FleetExperiment::run_sharded).
    fn run_segments(&self, segments: usize, trace_dir: Option<&Path>) -> RunResult {
        let inputs = match &self.inputs {
            Some(i) => Arc::clone(i),
            None => Arc::new(self.build_inputs()),
        };
        let max_batch = self.policy.max_batch(self.gpu.warp_width);
        let build_fleet = || -> Vec<Box<dyn BatchService>> {
            (0..self.devices)
                .map(|_| {
                    build_service(
                        &self.workload,
                        self.backend,
                        &inputs,
                        &self.gpu,
                        max_batch,
                        self.verify,
                    )
                })
                .collect()
        };
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
        let mut services = build_fleet();
        let mut session = FleetSession::new(
            &mut services,
            cfg.clone(),
            arrivals.clone(),
            classes.clone(),
        );
        let last = arrivals.last().copied().unwrap_or(0);
        for k in 1..segments as u64 {
            let stop = last * k / segments as u64;
            if session.run_until(&mut services, Some(stop)) {
                break;
            }
            let mut fresh = build_fleet();
            let mut fresh_session =
                FleetSession::new(&mut fresh, cfg.clone(), arrivals.clone(), classes.clone());
            for (svc, old) in fresh.iter_mut().zip(&services) {
                svc.import_state(&old.export_state())
                    .expect("device snapshot fits an identically built backend");
            }
            fresh_session
                .import_state(&session.export_state())
                .expect("cluster snapshot fits an identical configuration");
            services = fresh;
            session = fresh_session;
        }
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
        self.serve_proxy().inputs_key()
    }

    fn build_inputs(&self) -> ServeInputs {
        self.serve_proxy().build_inputs()
    }

    fn set_inputs(&mut self, inputs: Arc<ServeInputs>) {
        self.inputs = Some(inputs);
    }
}
