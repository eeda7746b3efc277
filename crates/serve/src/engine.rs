//! The deterministic virtual-clock serving loop.
//!
//! Time here is *simulated GPU cycles*, never wall clock: arrivals are a
//! precomputed cycle-stamped stream, batches advance the clock by the
//! simulated kernel duration, and every decision is a pure function of
//! (stream, policy, backend). Two runs with the same inputs therefore
//! produce identical outcomes regardless of host, thread count, or load —
//! the property `tests/determinism.rs` asserts on journal bytes.

use std::collections::VecDeque;

use gpu_sim::snapshot::{BagError, StateBag};
use gpu_sim::SimStats;
use trace::{Bucket, CycleAttribution, TraceHandle, Track};

use crate::policy::BatchPolicy;

/// A backend that can execute one batch of queries as a simulated kernel
/// launch. Implementations own the device state (GPU, tree image, query
/// buffers) and keep it across batches — caches stay warm, accelerator
/// counters accumulate.
pub trait BatchService {
    /// Human-readable backend label (e.g. `BASE`, `TTA`).
    fn label(&self) -> String;
    /// Size of the query universe; stream query `i` maps to universe entry
    /// `i % query_count()`.
    fn query_count(&self) -> usize;
    /// Lanes per warp of the underlying device — continuous batching sizes
    /// batches in warps of this width.
    fn warp_width(&self) -> usize;
    /// Runs `ids` (stream query indices) as one kernel launch and returns
    /// the launch's [`SimStats`] (cycles, per-warp completion cycles, …).
    fn run_batch(&mut self, ids: &[usize]) -> SimStats;
    /// Accelerator counters accumulated over every batch served so far
    /// (`None` for backends without an accelerator).
    fn accel_report(&self) -> Option<workloads::AccelReport> {
        None
    }
    /// Installs a trace handle on the underlying device. The default
    /// ignores it; GPU-backed services forward it to their `Gpu`.
    fn set_trace(&mut self, trace: TraceHandle) {
        let _ = trace;
    }
    /// Exports the backend's dynamic state (warm caches, accelerator
    /// counters, query-buffer contents) for a snapshot. The default is an
    /// empty bag — correct for stateless backends; GPU-backed services
    /// forward to [`gpu_sim::Gpu::export_state`].
    fn export_state(&self) -> StateBag {
        StateBag::new()
    }
    /// Restores state exported by
    /// [`export_state`](BatchService::export_state) onto a backend built
    /// from the same configuration.
    ///
    /// # Errors
    ///
    /// [`BagError`] when the bag is malformed or does not fit this
    /// backend's configuration.
    fn import_state(&mut self, bag: &StateBag) -> Result<(), BagError> {
        let _ = bag;
        Ok(())
    }
}

/// Serving-engine configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Batch-formation policy.
    pub policy: BatchPolicy,
    /// Queue bound for backpressure: arrivals beyond this depth are
    /// dropped. `None` (the default) admits everything — the property
    /// tests rely on this meaning zero drops, ever.
    pub queue_capacity: Option<usize>,
    /// Trace sink for queue/batch/launch spans (disabled by default).
    pub trace: TraceHandle,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            policy: BatchPolicy::Continuous { max_warps: 8 },
            queue_capacity: None,
            trace: TraceHandle::default(),
        }
    }
}

/// Per-query outcome of a serving run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryOutcome {
    /// Arrival cycle (from the offered stream).
    pub arrival: u64,
    /// Completion cycle; `None` means the query was dropped at admission
    /// by a bounded queue.
    pub completion: Option<u64>,
}

impl QueryOutcome {
    /// Arrival-to-completion latency in cycles (`None` if dropped).
    pub fn latency(&self) -> Option<u64> {
        self.completion.map(|c| c - self.arrival)
    }
}

/// Everything a serving run produced.
#[derive(Debug, Clone)]
pub struct ServeOutcome {
    /// One entry per offered query, in stream order.
    pub queries: Vec<QueryOutcome>,
    /// Kernel batches launched.
    pub batches: u64,
    /// Deepest the wait queue ever got (measured after each admission).
    pub max_queue_depth: usize,
    /// Queries rejected by backpressure.
    pub dropped: u64,
    /// Virtual cycle at which the last query completed.
    pub makespan: u64,
    /// Per-launch simulator stats, in launch order.
    pub launch_stats: Vec<SimStats>,
    /// Device-free cycles spent with a non-empty queue (waiting for the
    /// batch policy to trigger).
    pub queue_wait_cycles: u64,
    /// Device-free cycles spent with an empty queue (waiting for
    /// arrivals).
    pub idle_cycles: u64,
    /// Virtual cycle at which the device last went quiet. The invariant
    /// `Σ launch cycles + queue_wait_cycles + idle_cycles == horizon`
    /// holds on every run (the serve-side partition).
    pub horizon: u64,
}

/// One device's half of the serving loop: the admission queue, the
/// batch-formation decision, the exclusive-device launch accounting, and
/// the idle/queue-wait attribution — everything *except* the clock and the
/// arrival stream, which [`Clock`](crate::session::Clock) owns.
///
/// [`serve`] drives exactly one engine and `tta-fleet` drives N of them,
/// both on that one clock. The event interface is explicit:
///
/// * [`on_arrival`](DeviceEngine::on_arrival) — a query reaches this
///   device (admitted or dropped by the queue bound);
/// * [`wants_launch`](DeviceEngine::wants_launch) /
///   [`launch`](DeviceEngine::launch) — the policy triggers and a batch
///   executes, returning per-query completion cycles;
/// * [`next_event`](DeviceEngine::next_event) — the next cycle at which
///   this device could act without a new arrival;
/// * [`advance`](DeviceEngine::advance) — the clock moved; attribute the
///   device-free gap to idle or queue-wait;
/// * [`settle`](DeviceEngine::settle) — the run ended at a cluster-wide
///   horizon; extend the idle accounting so the per-device partition
///   `Σ batch + queue_wait + idle == horizon` holds.
///
/// `advance` and `settle` are the clock's to call, never a session's.
#[derive(Debug)]
pub struct DeviceEngine {
    policy: BatchPolicy,
    queue_capacity: Option<usize>,
    warp_width: usize,
    trace: TraceHandle,
    device_track: Track,
    queue_track: Track,
    /// FIFO of (stream id, arrival cycle).
    queue: VecDeque<(usize, u64)>,
    device_free_at: u64,
    launch_stats: Vec<SimStats>,
    batches: u64,
    max_queue_depth: usize,
    dropped: u64,
    completed: u64,
    busy_cycles: u64,
    queue_wait_cycles: u64,
    idle_cycles: u64,
}

impl DeviceEngine {
    /// A fresh engine for one device. `device_track` / `queue_track` name
    /// the trace rows ([`Track::Device`] / [`Track::Queue`] for the
    /// single-device [`serve`] loop, `Track::FleetDevice(i)` /
    /// `Track::FleetQueue(i)` in a fleet).
    pub fn new(
        policy: BatchPolicy,
        queue_capacity: Option<usize>,
        warp_width: usize,
        trace: TraceHandle,
        device_track: Track,
        queue_track: Track,
    ) -> Self {
        DeviceEngine {
            policy,
            queue_capacity,
            warp_width: warp_width.max(1),
            trace,
            device_track,
            queue_track,
            queue: VecDeque::new(),
            device_free_at: 0,
            launch_stats: Vec::new(),
            batches: 0,
            max_queue_depth: 0,
            dropped: 0,
            completed: 0,
            busy_cycles: 0,
            queue_wait_cycles: 0,
            idle_cycles: 0,
        }
    }

    /// Arrival event: query `id` reaches this device at `cycle`. Returns
    /// `false` when the bounded queue rejected it (counted as a drop).
    pub fn on_arrival(&mut self, id: usize, cycle: u64) -> bool {
        let full = self
            .queue_capacity
            .is_some_and(|cap| self.queue.len() >= cap);
        if full {
            self.dropped += 1;
            self.trace
                .instant(self.queue_track, "dropped", cycle, id as u64);
            false
        } else {
            self.queue.push_back((id, cycle));
            self.max_queue_depth = self.max_queue_depth.max(self.queue.len());
            true
        }
    }

    /// Queries currently waiting.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// The cycle at which the in-flight batch (if any) finishes.
    pub fn device_free_at(&self) -> u64 {
        self.device_free_at
    }

    /// Whether the device is free at `now` and the policy triggers a
    /// launch (`drained` = no further arrivals will ever reach this
    /// device, which invokes the flush rule).
    pub fn wants_launch(&self, now: u64, drained: bool) -> bool {
        self.device_free_at <= now
            && !self.queue.is_empty()
            && self
                .policy
                .should_launch(self.queue.len(), self.queue[0].1, now, drained)
    }

    /// Launch event: forms the batch, executes it through `run` (the
    /// driver's wrapper around [`BatchService::run_batch`], where a fleet
    /// adds shard-miss and cold-start overheads to the returned stats),
    /// accounts it, and returns `(stream id, completion cycle)` per query.
    /// Call only when [`wants_launch`](DeviceEngine::wants_launch).
    ///
    /// # Panics
    ///
    /// Panics when the policy uses per-warp accounting and the backend
    /// reports fewer warp-completion slots than the batch needs.
    pub fn launch(
        &mut self,
        now: u64,
        run: &mut dyn FnMut(&[usize]) -> SimStats,
    ) -> Vec<(usize, u64)> {
        let n = self.policy.take(self.queue.len(), self.warp_width);
        let batch: Vec<(usize, u64)> = self.queue.drain(..n).collect();
        let ids: Vec<usize> = batch.iter().map(|&(id, _)| id).collect();
        let stats = run(&ids);
        let per_warp = self.policy.per_warp_accounting();
        if per_warp {
            let warps_needed = batch.len().div_ceil(self.warp_width);
            assert!(
                stats.warp_completions.len() >= warps_needed,
                "backend reported {} warp completions for a {}-query batch \
                 (warp width {})",
                stats.warp_completions.len(),
                batch.len(),
                self.warp_width
            );
        }
        let mut completions = Vec::with_capacity(batch.len());
        for (i, &(id, arrival)) in batch.iter().enumerate() {
            let done = if per_warp {
                now + stats.warp_completions[i / self.warp_width]
            } else {
                now + stats.cycles
            };
            completions.push((id, done));
            // Per-query lifecycle: the two async spans meet at the
            // launch cycle, so wait + service == recorded latency.
            let q = id as u64;
            self.trace
                .async_span(self.queue_track, "queue_wait", 2 * q, arrival, now, q);
            self.trace
                .async_span(self.queue_track, "service", 2 * q + 1, now, done, q);
        }
        self.trace.span_arg(
            self.device_track,
            "batch",
            now,
            now + stats.cycles,
            batch.len() as u64,
        );
        self.device_free_at = now + stats.cycles;
        self.batches += 1;
        self.completed += batch.len() as u64;
        self.busy_cycles += stats.cycles;
        self.launch_stats.push(stats);
        completions
    }

    /// The next cycle at which this device could act without a new
    /// arrival: the in-flight batch finishing, or a policy deadline
    /// (clamped to `now + 1` so the clock always advances). `None` when
    /// the queue is empty — only an arrival can wake an empty device.
    pub fn next_event(&self, now: u64) -> Option<u64> {
        if self.queue.is_empty() {
            return None;
        }
        if self.device_free_at > now {
            Some(self.device_free_at)
        } else {
            self.policy
                .next_deadline(self.queue[0].1)
                .map(|d| d.max(now + 1))
        }
    }

    /// Clock-advance event: attribute the device-free part of `[from, to)`
    /// to idle (empty queue) or queue-wait (policy not yet triggered). The
    /// busy part up to [`device_free_at`](DeviceEngine::device_free_at) is
    /// already covered by the launch's own cycle count. The caller
    /// guarantees no arrival lands strictly inside the gap, so the queue
    /// state is constant over it.
    pub fn advance(&mut self, from: u64, to: u64) {
        let free_from = self.device_free_at.clamp(from, to);
        let idle = to - free_from;
        if idle > 0 {
            if self.queue.is_empty() {
                self.idle_cycles += idle;
            } else {
                self.queue_wait_cycles += idle;
            }
        }
    }

    /// End-of-run event: the run's horizon is `horizon` (at least this
    /// device's own quiet point). Extends idle accounting so that
    /// `Σ batch + queue_wait + idle == horizon` holds exactly, emits the
    /// attribution counters when tracing, and returns the partition's
    /// checked buckets `(busy, queue_wait, idle)`.
    ///
    /// # Panics
    ///
    /// Panics (debug) when the partition does not hold — an accounting bug,
    /// never data-dependent.
    pub fn settle(&mut self, horizon: u64) -> (u64, u64, u64) {
        debug_assert!(self.queue.is_empty(), "settle with queries still queued");
        debug_assert!(horizon >= self.device_free_at, "horizon before busy end");
        // The driver advanced us to its final clock; anything between our
        // own quiet point and the cluster horizon is idle time.
        let accounted = self.busy_cycles + self.queue_wait_cycles + self.idle_cycles;
        debug_assert!(horizon >= accounted, "buckets exceed the horizon");
        self.idle_cycles += horizon - accounted;
        if self.trace.enabled() {
            let mut attr = CycleAttribution::default();
            attr.add(Bucket::QueueWait, self.queue_wait_cycles);
            attr.add(Bucket::DeviceIdle, self.idle_cycles);
            self.trace.counters(self.device_track, &attr, horizon);
        }
        (self.busy_cycles, self.queue_wait_cycles, self.idle_cycles)
    }

    /// Batches launched so far.
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Queries completed so far.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Queries rejected by the queue bound so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Deepest the queue ever got (measured after each admission).
    pub fn max_queue_depth(&self) -> usize {
        self.max_queue_depth
    }

    /// Per-launch simulator stats, in launch order (consumes the engine).
    pub fn into_launch_stats(self) -> Vec<SimStats> {
        self.launch_stats
    }

    // Snapshot support: queue contents, accounting counters, per-launch
    // stats. Policy, trace handle and track ids are configuration; restore
    // overlays onto an engine built with the same `DeviceEngine::new`
    // arguments. `queue_ids` sizes the queue, so `queue_arrivals` must
    // then match it.
    gpu_sim::snap_fields! {
        pub fn export_state / import_state;
        queue_ids: queue[..].0,
        #[host] queue_arrivals: queue[..].1,
        device_free_at,
        batches,
        max_queue_depth,
        dropped,
        completed,
        busy_cycles,
        queue_wait_cycles,
        idle_cycles,
        launch_stats,
    }
}

gpu_sim::snap_state!(DeviceEngine);

/// Runs the serving loop: admits `arrivals` (cycle stamps, ascending) into
/// a FIFO queue, forms batches per `cfg.policy`, executes them on `svc`,
/// and accounts per-query completion.
///
/// The device is exclusive — one batch in flight at a time; the next
/// launch waits for the previous one to finish. Size/deadline policies are
/// batch-synchronous (every query in a batch completes when the kernel
/// does); continuous batching credits each query with its *warp's*
/// completion cycle inside the launch.
///
/// Internally this drives a [`crate::session::ServeSession`] to
/// completion on the shared serving clock. The journal bytes this
/// produces are part of the determinism contract.
///
/// # Panics
///
/// Panics if `arrivals` is not sorted ascending, or if the backend reports
/// fewer per-warp completion slots than the batch needs.
pub fn serve(svc: &mut dyn BatchService, cfg: &ServeConfig, arrivals: &[u64]) -> ServeOutcome {
    let session = crate::session::ServeSession::new(svc, cfg.clone(), arrivals.to_vec());
    session.finish(svc)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fake backend: every batch takes `base + per_query × n` cycles and
    /// reports evenly-spread warp completions.
    struct FakeService {
        universe: usize,
        base: u64,
        per_query: u64,
        batches_seen: Vec<Vec<usize>>,
    }

    impl BatchService for FakeService {
        fn label(&self) -> String {
            "FAKE".into()
        }
        fn query_count(&self) -> usize {
            self.universe
        }
        fn warp_width(&self) -> usize {
            4
        }
        fn run_batch(&mut self, ids: &[usize]) -> SimStats {
            self.batches_seen.push(ids.to_vec());
            let cycles = self.base + self.per_query * ids.len() as u64;
            let warps = ids.len().div_ceil(4);
            SimStats {
                cycles,
                warp_size: 4,
                // Warp w finishes at base + per_query × (queries through w).
                warp_completions: (1..=warps)
                    .map(|w| self.base + self.per_query * ((w * 4).min(ids.len()) as u64))
                    .collect(),
                ..Default::default()
            }
        }
    }

    fn fake(universe: usize) -> FakeService {
        FakeService {
            universe,
            base: 100,
            per_query: 10,
            batches_seen: Vec::new(),
        }
    }

    #[test]
    fn size_triggered_launches_full_batches_then_flushes() {
        let mut svc = fake(64);
        let cfg = ServeConfig {
            policy: BatchPolicy::SizeTriggered { batch: 4 },
            queue_capacity: None,
            trace: TraceHandle::default(),
        };
        // 6 arrivals: one full batch of 4, then a drained flush of 2.
        let arrivals = vec![0, 0, 5, 5, 7, 9];
        let out = serve(&mut svc, &cfg, &arrivals);
        assert_eq!(out.batches, 2);
        assert_eq!(svc.batches_seen[0], vec![0, 1, 2, 3]);
        assert_eq!(svc.batches_seen[1], vec![4, 5]);
        assert_eq!(out.dropped, 0);
        // Batch 1 launches at t=5 (4th arrival), takes 100+40=140.
        assert_eq!(out.queries[0].completion, Some(5 + 140));
        // Batch 2 flushes when the device frees at t=145, takes 100+20.
        assert_eq!(out.queries[5].completion, Some(145 + 120));
        assert_eq!(out.makespan, 265);
        assert_eq!(out.launch_stats.len(), 2);
    }

    #[test]
    fn deadline_policy_launches_partial_batch_at_deadline() {
        let mut svc = fake(64);
        let cfg = ServeConfig {
            policy: BatchPolicy::DeadlineTriggered {
                max_wait: 50,
                max_batch: 8,
            },
            queue_capacity: None,
            trace: TraceHandle::default(),
        };
        // Two early arrivals, then a long gap: the deadline (not the
        // drain) must trigger the first launch at t=0+50.
        let arrivals = vec![0, 10, 100_000];
        let out = serve(&mut svc, &cfg, &arrivals);
        assert_eq!(out.batches, 2);
        assert_eq!(svc.batches_seen[0], vec![0, 1]);
        assert_eq!(out.queries[0].completion, Some(50 + 100 + 20));
        assert_eq!(out.queries[1].latency(), Some(160));
    }

    #[test]
    fn continuous_batching_credits_per_warp_completions() {
        let mut svc = fake(64);
        let cfg = ServeConfig {
            policy: BatchPolicy::Continuous { max_warps: 4 },
            queue_capacity: None,
            trace: TraceHandle::default(),
        };
        let arrivals = vec![0; 8]; // two warps' worth, all at t=0
        let out = serve(&mut svc, &cfg, &arrivals);
        assert_eq!(out.batches, 1);
        // Warp 0 (queries 0-3) completes at 100+40, warp 1 at 100+80.
        assert_eq!(out.queries[0].completion, Some(140));
        assert_eq!(out.queries[7].completion, Some(180));
        assert_eq!(out.makespan, 180);
    }

    #[test]
    fn bounded_queue_drops_and_counts() {
        let mut svc = fake(64);
        let cfg = ServeConfig {
            // batch=4 never triggers mid-stream with capacity 2: drops.
            policy: BatchPolicy::SizeTriggered { batch: 4 },
            queue_capacity: Some(2),
            trace: TraceHandle::default(),
        };
        let arrivals = vec![0, 0, 0, 0, 0];
        let out = serve(&mut svc, &cfg, &arrivals);
        assert_eq!(out.dropped, 3);
        assert_eq!(out.max_queue_depth, 2);
        let completed = out
            .queries
            .iter()
            .filter(|q| q.completion.is_some())
            .count();
        assert_eq!(completed, 2);
        assert!(out.queries[4].latency().is_none());
    }

    #[test]
    fn empty_stream_is_a_no_op() {
        let mut svc = fake(8);
        let out = serve(&mut svc, &ServeConfig::default(), &[]);
        assert_eq!(out.batches, 0);
        assert_eq!(out.makespan, 0);
        assert!(out.queries.is_empty());
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_arrivals_panic() {
        let mut svc = fake(8);
        let _ = serve(&mut svc, &ServeConfig::default(), &[5, 3]);
    }
}
