//! The multi-device virtual-clock cluster loop.
//!
//! One global clock, the serving [`Clock`](serve::session::Clock), drives
//! N [`DeviceEngine`](serve::DeviceEngine)s (the per-device half of the
//! `tta-serve` loop): arrivals are admitted (or dropped) by SLO class,
//! routed to a warm device, batched by that device's policy, and executed
//! on its persistent backend. Shard misses and cold starts are charged
//! *inside* the launch they burden, so every device keeps the exact
//! partition `busy + queue_wait + idle == horizon` — and the cluster total
//! is `devices × horizon`.
//!
//! Devices are advanced and launched in ascending id order at every clock
//! step, and all routing/scaling state is a function of virtual-clock
//! state, so a fleet run is byte-deterministic at any host thread count.

use gpu_sim::SimStats;
use serve::BatchService;
use trace::TraceHandle;

use crate::autoscale::AutoscaleConfig;
use crate::router::RouterPolicy;
use crate::shard::ShardSpec;
use crate::slo::SloConfig;

/// Fleet configuration: everything above the per-device batch policy.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Batch-formation policy, identical on every device.
    pub policy: serve::BatchPolicy,
    /// Router policy.
    pub router: RouterPolicy,
    /// Seed for the router's p2c sampler.
    pub router_seed: u64,
    /// Per-device queue bound (`None` = unbounded, no queue drops).
    pub queue_capacity: Option<usize>,
    /// Shard partition/replication spec.
    pub shards: ShardSpec,
    /// Cycles added to a launch per query whose shard is not resident on
    /// the serving device (remote shard fetch).
    pub shard_miss_penalty: u64,
    /// Priority classes and admission control.
    pub slo: SloConfig,
    /// Warm/cold autoscaling (`None` = all devices always warm).
    pub autoscale: Option<AutoscaleConfig>,
    /// Trace sink (router decisions, per-device queue/batch lifecycles).
    pub trace: TraceHandle,
}

/// Per-query outcome of a fleet run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetQueryOutcome {
    /// Arrival cycle.
    pub arrival: u64,
    /// Completion cycle (`None` = dropped at admission or by a bounded
    /// device queue).
    pub completion: Option<u64>,
    /// Serving device (`None` when dropped).
    pub device: Option<usize>,
    /// SLO class index.
    pub class: usize,
    /// Shard the query's universe entry lives in.
    pub shard: usize,
    /// Whether the serving device held the shard (false = shard miss).
    pub local: bool,
}

impl FleetQueryOutcome {
    /// Arrival-to-completion latency (`None` if dropped).
    pub fn latency(&self) -> Option<u64> {
        self.completion.map(|c| c - self.arrival)
    }
}

/// Raw per-device accounting of a fleet run.
#[derive(Debug, Clone)]
pub struct FleetDeviceReport {
    /// Queries the router sent to this device (admitted or queue-dropped):
    /// `completed + dropped == routed`.
    pub routed: u64,
    /// Batches launched.
    pub batches: u64,
    /// Queries completed.
    pub completed: u64,
    /// Queries dropped by this device's bounded queue.
    pub dropped: u64,
    /// Busy cycles (batch execution, including miss/cold-start overhead).
    pub busy_cycles: u64,
    /// Device-free cycles with queries waiting on the policy.
    pub queue_wait_cycles: u64,
    /// Device-free cycles with an empty queue (including parked time).
    pub idle_cycles: u64,
    /// Deepest the device queue ever got.
    pub max_queue_depth: usize,
    /// Queries this device served without holding their shard.
    pub shard_misses: u64,
    /// Cold-start transitions this device paid for.
    pub cold_starts: u64,
    /// Per-launch simulator stats, in launch order.
    pub launch_stats: Vec<SimStats>,
}

/// Everything a fleet run produced.
#[derive(Debug, Clone)]
pub struct FleetOutcome {
    /// One entry per offered query, in stream order.
    pub queries: Vec<FleetQueryOutcome>,
    /// One report per device, in device order.
    pub per_device: Vec<FleetDeviceReport>,
    /// Queries rejected by class admission control (never routed).
    pub admission_dropped: u64,
    /// Virtual cycle of the last completion.
    pub makespan: u64,
    /// Cluster horizon: every device's buckets sum to exactly this.
    pub horizon: u64,
}

/// Runs the fleet: one warm [`BatchService`] per device (all hosting the
/// same query universe), an offered arrival stream with per-query class
/// assignments, and the cluster mechanics of [`FleetConfig`].
///
/// Internally this drives a [`crate::session::FleetSession`] to
/// completion — the resumable form used for horizon sharding and
/// snapshot/restore; the journal bytes are identical by construction.
///
/// # Panics
///
/// Panics when `services` is empty or the devices disagree on the query
/// universe, when `arrivals` is unsorted or its length differs from
/// `classes`, or when a class index is out of range.
pub fn run_fleet(
    services: &mut [Box<dyn BatchService>],
    cfg: &FleetConfig,
    arrivals: &[u64],
    classes: &[usize],
) -> FleetOutcome {
    let session = crate::session::FleetSession::new(
        services,
        cfg.clone(),
        arrivals.to_vec(),
        classes.to_vec(),
    );
    session.finish(services)
}
