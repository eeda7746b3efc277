//! `fleet` — the multi-device serving-cluster smoke grid (the repo's
//! second deployment-question extension; no figure in the paper).
//!
//! Offers seeded Poisson streams — scaled so the *per-device* load stays
//! saturating as the fleet grows — to sharded clusters of persistent warm
//! devices and journals cluster latency, SLO, shard, and autoscale metrics
//! per point (schema-v4 `"fleet"` section):
//!
//! * **Scaling grid**: devices {1, 2, 4, 8} × router {rr, jsq, p2c,
//!   locality} on the B-Tree TTA backend — `2·devices + 1` hash shards
//!   (coprime-ish to the device count, so no router gets accidental
//!   locality from stream order), one hot shard double-replicated, a
//!   nonzero remote-shard penalty, and a two-tier (interactive/bulk)
//!   class mix.
//! * **Backend grid**: BASE / TTA / TTA+ at 4 devices under `rr` and
//!   `p2c` on a **fully replicated** tier at a tighter rate — every query
//!   is local everywhere, so the comparison isolates pure load balancing,
//!   and the claim must hold on every backend.
//! * **Policy rows**: `size32` vs `cont8w` at the same cluster point.
//! * **Autoscale row**: an 8-device cluster starting 2-warm under a
//!   bursty stream, paying real cold starts.
//!
//! Expectations (asserted below, deterministic — drift is a regression):
//! power-of-two-choices beats round-robin on p99 on **every** backend at
//! saturation, and locality-aware routing beats plain JSQ once the
//! remote-shard penalty is nonzero. The journal lands at
//! `results/fleet.journal.json`.

use fleet::{AutoscaleConfig, FleetExperiment, RouterPolicy, ShardSpec, SloConfig};
use serve::{BatchPolicy, ServeBackend, ServeWorkload};
use trees::BTreeFlavor;
use tta_bench::{prepare, Args, InputCache, Report};
use workloads::FleetSummary;

/// Base mean inter-arrival time (cycles) at one device; divided by the
/// device count so per-device pressure stays constant across the grid.
const BASE_MEAN: f64 = 150.0;

fn experiment(
    workload: &ServeWorkload,
    backend: ServeBackend,
    devices: usize,
    router: RouterPolicy,
    policy: BatchPolicy,
    offered: usize,
) -> FleetExperiment {
    let mut e = FleetExperiment::new(
        workload.clone(),
        backend,
        devices,
        router,
        policy,
        offered,
        BASE_MEAN / devices as f64,
    );
    // More shards than devices (and never a multiple of the device
    // count), the first shard hot (double-replicated), and a real penalty
    // for serving a query off its replica set.
    e.shards = ShardSpec {
        shards: 2 * devices + 1,
        replication: 1,
        hot_shards: 1,
        hot_replication: 2.min(devices),
    };
    e.shard_miss_penalty = 400;
    e.slo = SloConfig::two_tier(20_000, 200_000, 48);
    e
}

/// A fully replicated cluster point: one shard everywhere, so routing is
/// a pure load-balancing decision (no miss penalty can confound it). Run
/// at a tighter rate, where balance — not capacity — sets the tail.
fn replicated(
    workload: &ServeWorkload,
    backend: ServeBackend,
    devices: usize,
    router: RouterPolicy,
    policy: BatchPolicy,
    offered: usize,
) -> FleetExperiment {
    let mut e = experiment(workload, backend, devices, router, policy, offered);
    // Per-backend rates that land each backend near (not past) saturation
    // — a faster backend needs a proportionally hotter stream before load
    // balance, rather than raw capacity, sets its tail.
    let factor = match backend {
        ServeBackend::Base => 0.5,
        ServeBackend::Tta => 0.15,
        ServeBackend::TtaPlus => 0.18,
    };
    e.arrival_mean_cycles = factor * BASE_MEAN / devices as f64;
    e.shards = ShardSpec::uniform(1, devices);
    e.shard_miss_penalty = 0;
    e
}

fn main() {
    let args = Args::parse(&["--trace"]);
    let cache = &InputCache::new();
    let mut sweep = args.sweep("fleet");
    let offered = args.sized(512);

    let btree = ServeWorkload::BTree {
        flavor: BTreeFlavor::BTree,
        keys: args.sized(8000),
        universe: 512,
    };
    let cont = BatchPolicy::Continuous { max_warps: 8 };

    // Scaling grid: devices × router on TTA.
    let device_grid = [1usize, 2, 4, 8];
    for &devices in &device_grid {
        for router in RouterPolicy::ALL {
            let mut e = prepare(
                cache,
                experiment(
                    &btree,
                    ServeBackend::Tta,
                    devices,
                    router,
                    cont.clone(),
                    offered,
                ),
            );
            e.trace_dir = args.trace.clone();
            sweep.add(move || e.run());
        }
    }
    // Backend grid: rr vs p2c on every backend at 4 fully replicated
    // devices.
    for backend in [ServeBackend::Base, ServeBackend::Tta, ServeBackend::TtaPlus] {
        for router in [RouterPolicy::RoundRobin, RouterPolicy::PowerOfTwo] {
            let mut e = prepare(
                cache,
                replicated(&btree, backend, 4, router, cont.clone(), offered),
            );
            e.trace_dir = args.trace.clone();
            sweep.add(move || e.run());
        }
    }
    // Policy row: fixed-size batching at the same cluster point.
    {
        let mut e = prepare(
            cache,
            experiment(
                &btree,
                ServeBackend::Tta,
                4,
                RouterPolicy::PowerOfTwo,
                BatchPolicy::SizeTriggered { batch: 32 },
                offered,
            ),
        );
        e.trace_dir = args.trace.clone();
        sweep.add(move || e.run());
    }
    // Autoscale row: 8 devices, 2 warm, queue-depth-driven warm-up with a
    // real cold-start bill.
    {
        let mut e = prepare(
            cache,
            experiment(
                &btree,
                ServeBackend::Tta,
                8,
                RouterPolicy::JoinShortestQueue,
                cont.clone(),
                offered,
            ),
        );
        e.autoscale = Some(AutoscaleConfig {
            min_warm: 2,
            scale_up_depth: 6,
            scale_down_idle: 20_000,
            cold_start_cycles: 2_000,
        });
        e.trace_dir = args.trace.clone();
        sweep.add(move || e.run());
    }

    let outcome = sweep.run();
    let summaries: Vec<FleetSummary> = outcome
        .results
        .iter()
        .map(|r| r.fleet.clone().expect("every fleet run carries a summary"))
        .collect();

    let mut report = Report::new(
        "fleet",
        "Fleet serving: cluster latency by device count, router, and backend",
        "p2c routing wins the p99 tail over rr; locality routing dodges the shard-miss bill",
    );
    report.columns(&[
        "backend", "router", "policy", "devs", "mean", "offered", "drop", "p50", "p99", "max",
        "q/kc", "slo_miss", "miss", "cold",
    ]);
    for s in &summaries {
        report.row(vec![
            s.backend.clone(),
            s.router.clone(),
            s.policy.clone(),
            s.devices.to_string(),
            format!("{}", s.arrival_mean_cycles),
            s.offered.to_string(),
            s.dropped.to_string(),
            s.p50_latency.to_string(),
            s.p99_latency.to_string(),
            s.max_latency.to_string(),
            format!("{:.2}", s.throughput_qpkc),
            s.slo_misses.to_string(),
            s.shard_misses.to_string(),
            s.cold_starts.to_string(),
        ]);
    }
    report.finish();

    // Universal bookkeeping: conservation and the horizon partition are
    // already asserted inside the engines; re-check the journaled form.
    for s in &summaries {
        assert_eq!(s.completed + s.dropped, s.offered, "cluster conservation");
        assert_eq!(s.shard_hits + s.shard_misses, s.completed);
        for d in &s.per_device {
            assert_eq!(
                d.busy_cycles + d.queue_wait_cycles + d.idle_cycles,
                s.horizon_cycles,
                "per-device horizon partition"
            );
        }
        for c in &s.per_class {
            assert_eq!(c.completed + c.dropped, c.offered, "class conservation");
        }
    }

    // `replicated` points carry shards == 1; sharded points carry more.
    let find = |backend: &str, router: &str, devices: u64, sharded: bool| {
        summaries
            .iter()
            .find(|s| {
                s.backend == backend
                    && s.router == router
                    && s.devices == devices
                    && (s.shards > 1) == sharded
                    && s.policy.starts_with("cont")
            })
            .unwrap_or_else(|| panic!("grid point missing: {backend}/{router}/d{devices}"))
    };

    // Load balancing: on the fully replicated tier, p2c beats rr on p99
    // on every backend at saturation.
    for backend in ["BASE", "TTA", "TTA+"] {
        let rr = find(backend, "rr", 4, false).p99_latency;
        let p2c = find(backend, "p2c", 4, false).p99_latency;
        assert!(
            p2c < rr,
            "{backend}: p2c p99 ({p2c}) must beat rr p99 ({rr}) at saturation"
        );
        println!("{backend}: d4 p99 {rr} (rr) -> {p2c} (p2c): OK");
    }
    // Locality: with a nonzero remote-shard penalty, shard-aware routing
    // beats plain JSQ on p99 wherever there is more than one device.
    for &devices in &device_grid[1..] {
        let jsq = find("TTA", "jsq", devices as u64, true);
        let loc = find("TTA", "locality", devices as u64, true);
        assert!(
            loc.shard_misses < jsq.shard_misses,
            "d{devices}: locality must reduce shard misses ({} vs {})",
            loc.shard_misses,
            jsq.shard_misses
        );
        assert!(
            loc.p99_latency < jsq.p99_latency,
            "d{devices}: locality p99 ({}) must beat jsq p99 ({}) under a {}-cycle miss penalty",
            loc.p99_latency,
            jsq.p99_latency,
            loc.shard_miss_penalty
        );
        println!(
            "TTA d{devices}: p99 {} (jsq, {} misses) -> {} (locality, {} misses): OK",
            jsq.p99_latency, jsq.shard_misses, loc.p99_latency, loc.shard_misses
        );
    }
    // The autoscale row actually scaled: cold starts were paid, and the
    // fleet still conserved every query.
    let auto = summaries
        .iter()
        .find(|s| s.cold_starts > 0)
        .expect("the autoscale row must pay at least one cold start");
    println!(
        "autoscale: {} cold starts, p99 {}: OK",
        auto.cold_starts, auto.p99_latency
    );
}
