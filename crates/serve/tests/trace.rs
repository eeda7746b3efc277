//! Serve-engine trace tests: the per-query `queue_wait`/`service` spans
//! the virtual-clock engine emits must reconstruct every recorded latency
//! exactly, the batch spans plus the engine's wait/idle counters must
//! partition the serving horizon, and the continuous-batching p99 win the
//! `serve` binary asserts must be reproducible from trace data alone.

use std::sync::Arc;

use gpu_sim::stats::percentile;
use gpu_sim::GpuConfig;
use trace::{check_events, ChromeTraceSink, EventKind, TraceEvent, Track};
use trees::BTreeFlavor;
use tta_serve::{
    build_service, serve, summarize, BatchPolicy, ServeBackend, ServeConfig, ServeInputs,
    ServeWorkload,
};
use workloads::btree::BTreeExperiment;
use workloads::CacheableExperiment;

/// Runs a real B-Tree serving session with a collecting sink and returns
/// (events, outcome).
fn traced_session(
    backend: ServeBackend,
    policy: BatchPolicy,
    arrivals: &[u64],
) -> (Vec<TraceEvent>, tta_serve::ServeOutcome) {
    let gpu = GpuConfig::small_test();
    let seed_exp = BTreeExperiment::new(
        BTreeFlavor::BTree,
        512,
        64,
        workloads::Platform::BaselineGpu,
    );
    let inputs = Arc::new(seed_exp.build_inputs());
    let workload = ServeWorkload::BTree {
        flavor: BTreeFlavor::BTree,
        keys: 512,
        universe: 64,
    };
    let mut svc = build_service(
        &workload,
        backend,
        &ServeInputs::BTree(inputs),
        &gpu,
        policy.max_batch(gpu.warp_width),
        true,
    );
    let (handle, sink) = ChromeTraceSink::shared();
    let cfg = ServeConfig {
        policy,
        queue_capacity: None,
        trace: handle,
    };
    let out = serve(svc.as_mut(), &cfg, arrivals);
    let events = sink.borrow().events().to_vec();
    (events, out)
}

fn arrivals(n: usize, gap: u64) -> Vec<u64> {
    (0..n as u64).map(|i| i * gap).collect()
}

/// The per-query async spans: `queue_wait` is `[arrival, launch)` with id
/// `2q`, `service` is `[launch, done)` with id `2q+1`, so wait + service
/// equals the recorded latency by construction — verified here against
/// the engine's own outcome for every query.
#[test]
fn queue_wait_plus_service_equals_recorded_latency() {
    let (events, out) = traced_session(
        ServeBackend::Tta,
        BatchPolicy::Continuous { max_warps: 2 },
        &arrivals(48, 120),
    );
    check_events(&events).expect("trace invariants hold");

    let span = |want_name: &str, want_id: u64| -> (u64, u64) {
        events
            .iter()
            .find_map(|e| match e.kind {
                EventKind::Async { name, id, end, .. }
                    if e.track == Track::Queue && name == want_name && id == want_id =>
                {
                    Some((e.cycle, end))
                }
                _ => None,
            })
            .unwrap_or_else(|| panic!("missing {want_name} span id {want_id}"))
    };

    for (qi, q) in out.queries.iter().enumerate() {
        let done = q.completion.expect("unbounded queue completes everything");
        let (wait_start, wait_end) = span("queue_wait", 2 * qi as u64);
        let (svc_start, svc_end) = span("service", 2 * qi as u64 + 1);
        assert_eq!(wait_start, q.arrival, "query {qi}: wait starts at arrival");
        assert_eq!(wait_end, svc_start, "query {qi}: service starts at launch");
        assert_eq!(svc_end, done, "query {qi}: service ends at completion");
        assert_eq!(
            (wait_end - wait_start) + (svc_end - svc_start),
            q.latency().unwrap(),
            "query {qi}: wait + service must equal the recorded latency"
        );
    }
}

/// Device-busy batch spans plus the engine's queue-wait and idle counters
/// partition the serving horizon exactly.
#[test]
fn batch_spans_and_gap_counters_partition_the_horizon() {
    let (events, out) = traced_session(
        ServeBackend::Base,
        BatchPolicy::SizeTriggered { batch: 16 },
        &arrivals(48, 150),
    );
    let busy: u64 = events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Span { name, end, .. }
                if matches!(e.track, Track::Device) && name == "batch" =>
            {
                Some(end - e.cycle)
            }
            _ => None,
        })
        .sum();
    assert!(busy > 0, "the session must run batches");
    assert_eq!(
        busy + out.queue_wait_cycles + out.idle_cycles,
        out.horizon,
        "batch spans + queue-wait + idle must partition the horizon"
    );
}

/// The continuous-batching p99 win is recoverable from the trace alone:
/// latencies reconstructed purely from `queue_wait`/`service` spans yield
/// the same p99 as the engine's summary, and the continuous policy beats
/// the size-triggered one at a saturating arrival rate.
#[test]
fn p99_win_reproducible_from_trace_data_alone() {
    // Saturating Poisson stream (the `serve` binary's high-rate shape):
    // fixed 32-query batches queue up while continuous batching's
    // work-conserving refill keeps the device fed.
    let stream = workloads::gen::exponential_arrivals(160, 150.0, 0x5e7e);
    let p99_of = |policy: BatchPolicy| -> (u64, u64) {
        let (events, out) = traced_session(ServeBackend::Tta, policy, &stream);
        let mut trace_latencies: Vec<u64> = Vec::new();
        for qi in 0..out.queries.len() as u64 {
            let find = |want: &str, id: u64| {
                events.iter().find_map(|e| match e.kind {
                    EventKind::Async {
                        name, id: i, end, ..
                    } if e.track == Track::Queue && name == want && i == id => Some((e.cycle, end)),
                    _ => None,
                })
            };
            let (arrival, _) = find("queue_wait", 2 * qi).expect("wait span");
            let (_, done) = find("service", 2 * qi + 1).expect("service span");
            trace_latencies.push(done - arrival);
        }
        let from_trace = percentile(&trace_latencies, 99.0).expect("latencies");
        let summary = summarize("p", "b", 150.0, &out);
        (from_trace, summary.p99_latency)
    };

    let (size_trace, size_summary) = p99_of(BatchPolicy::SizeTriggered { batch: 32 });
    let (cont_trace, cont_summary) = p99_of(BatchPolicy::Continuous { max_warps: 8 });
    assert_eq!(
        size_trace, size_summary,
        "trace-derived p99 matches summary"
    );
    assert_eq!(
        cont_trace, cont_summary,
        "trace-derived p99 matches summary"
    );
    assert!(
        cont_trace < size_trace,
        "continuous batching must win the tail from trace data alone \
         ({cont_trace} vs {size_trace})"
    );
}
