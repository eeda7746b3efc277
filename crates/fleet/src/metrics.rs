//! Folds a [`FleetOutcome`] into the journal-facing
//! [`workloads::FleetSummary`] (the schema-v4 `"fleet"` section).
//!
//! Latencies fold through [`LatencyFold`], the serve summary's fold:
//! percentiles are nearest-rank, so every reported pN is an observed
//! latency, and p99 of a class with fewer than 100 completions is that
//! class's max sample — which keeps tiny per-class rows well-defined.

use serve::metrics::LatencyFold;
use workloads::{FleetClassSummary, FleetDeviceSummary, FleetSummary};

use crate::cluster::{FleetConfig, FleetOutcome};

/// Summarizes one fleet run. `backend` is the device backend label (all
/// devices are identical); `arrival_mean_cycles` is the offered stream's
/// mean inter-arrival time (recorded, not recomputed).
pub fn summarize(
    cfg: &FleetConfig,
    backend: &str,
    arrival_mean_cycles: f64,
    out: &FleetOutcome,
) -> FleetSummary {
    let lat = LatencyFold::of(out.queries.iter().filter_map(|q| q.latency()), out.makespan);
    let completed = lat.completed;
    let offered = out.queries.len() as u64;
    let dropped = offered - completed;
    let slo_misses = out
        .queries
        .iter()
        .filter(|q| {
            q.latency()
                .is_some_and(|l| l > cfg.slo.classes[q.class].deadline_cycles)
        })
        .count() as u64;
    let shard_misses: u64 = out.per_device.iter().map(|d| d.shard_misses).sum();

    let per_device: Vec<FleetDeviceSummary> = out
        .per_device
        .iter()
        .enumerate()
        .map(|(d, r)| FleetDeviceSummary {
            device: d as u64,
            batches: r.batches,
            completed: r.completed,
            dropped: r.dropped,
            busy_cycles: r.busy_cycles,
            queue_wait_cycles: r.queue_wait_cycles,
            idle_cycles: r.idle_cycles,
            max_queue_depth: r.max_queue_depth as u64,
            shard_misses: r.shard_misses,
            cold_starts: r.cold_starts,
        })
        .collect();

    let per_class: Vec<FleetClassSummary> = cfg
        .slo
        .classes
        .iter()
        .enumerate()
        .map(|(c, sc)| {
            let qs: Vec<_> = out.queries.iter().filter(|q| q.class == c).collect();
            let lat: Vec<u64> = qs.iter().filter_map(|q| q.latency()).collect();
            let fold = LatencyFold::of(lat.iter().copied(), out.makespan);
            FleetClassSummary {
                class: sc.name.clone(),
                deadline_cycles: sc.deadline_cycles,
                offered: qs.len() as u64,
                completed: fold.completed,
                dropped: qs.len() as u64 - fold.completed,
                slo_misses: lat.iter().filter(|&&l| l > sc.deadline_cycles).count() as u64,
                p50_latency: fold.p50,
                p99_latency: fold.p99,
                max_latency: fold.max,
            }
        })
        .collect();

    FleetSummary {
        router: cfg.router.label().to_owned(),
        backend: backend.to_owned(),
        policy: cfg.policy.label(),
        devices: out.per_device.len() as u64,
        shards: cfg.shards.shards as u64,
        replication: cfg.shards.replication as u64,
        shard_miss_penalty: cfg.shard_miss_penalty,
        arrival_mean_cycles,
        offered,
        admitted: offered - dropped,
        dropped,
        completed,
        batches: out.per_device.iter().map(|d| d.batches).sum(),
        p50_latency: lat.p50,
        p95_latency: lat.p95,
        p99_latency: lat.p99,
        max_latency: lat.max,
        throughput_qpkc: lat.throughput_qpkc,
        slo_misses,
        shard_hits: completed - shard_misses,
        shard_misses,
        cold_starts: out.per_device.iter().map(|d| d.cold_starts).sum(),
        makespan_cycles: out.makespan,
        horizon_cycles: out.horizon,
        per_device,
        per_class,
    }
}
