//! Cluster conservation properties of the fleet loop, checked over a fake
//! (but data-dependent) backend so many configurations stay cheap:
//!
//! * query conservation — `completed + dropped == offered`, per SLO class
//!   and per device;
//! * cycle conservation — every device's `busy + queue_wait + idle`
//!   equals the cluster horizon exactly, so the cluster-wide sum is
//!   `devices × horizon`;
//! * shard accounting — `hits + misses == completed`, and full
//!   replication with locality routing yields zero misses;
//! * the run is a pure function of its inputs;
//! * a one-device fleet without routing choices, penalties or scaling is
//!   a single-device serve run: both drive the same serving clock.

use gpu_sim::SimStats;
use serve::{BatchPolicy, BatchService};
use trace::TraceHandle;
use tta_fleet::{
    run_fleet, AutoscaleConfig, FleetConfig, FleetOutcome, OverloadAction, RouterPolicy, ShardSpec,
    SloClass, SloConfig,
};

/// A fake device: batch cost is data-dependent (so queues across the
/// fleet grow unevenly and the routers have real imbalance to exploit).
struct FakeService {
    universe: usize,
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
        let skew = (ids[0] % 7) as u64 * 25;
        let cycles = 80 + skew + 15 * ids.len() as u64;
        let warps = ids.len().div_ceil(4);
        SimStats {
            cycles,
            warp_size: 4,
            warp_completions: (1..=warps)
                .map(|w| 80 + skew + 15 * ((w * 4).min(ids.len()) as u64))
                .collect(),
            ..Default::default()
        }
    }
}

fn fleet(n: usize) -> Vec<Box<dyn BatchService>> {
    (0..n)
        .map(|_| Box::new(FakeService { universe: 256 }) as Box<dyn BatchService>)
        .collect()
}

fn base_cfg(devices: usize, router: RouterPolicy) -> FleetConfig {
    FleetConfig {
        policy: BatchPolicy::Continuous { max_warps: 4 },
        router,
        router_seed: 0xf1ee7,
        queue_capacity: None,
        shards: ShardSpec::uniform(devices, 1),
        shard_miss_penalty: 100,
        slo: SloConfig::two_tier(3000, 30_000, 16),
        autoscale: None,
        trace: TraceHandle::default(),
    }
}

fn stream(n: usize, mean: f64, weights: &[u32]) -> (Vec<u64>, Vec<usize>) {
    let arrivals = workloads::gen::exponential_arrivals(n, mean, 0xabc);
    let classes = workloads::gen::class_assignments(n, weights, 0xabc);
    (arrivals, classes)
}

fn check_conservation(out: &FleetOutcome, n_classes: usize) {
    let offered = out.queries.len() as u64;
    let completed = out
        .queries
        .iter()
        .filter(|q| q.completion.is_some())
        .count() as u64;
    let dropped = offered - completed;
    // Per class: completed + dropped == offered.
    for c in 0..n_classes {
        let of = out.queries.iter().filter(|q| q.class == c).count();
        let co = out
            .queries
            .iter()
            .filter(|q| q.class == c && q.completion.is_some())
            .count();
        let dr = of - co;
        assert_eq!(co + dr, of, "class {c} conservation");
    }
    // Per device: completed + queue-dropped == routed.
    for (d, r) in out.per_device.iter().enumerate() {
        assert_eq!(r.completed + r.dropped, r.routed, "device {d} conservation");
    }
    // Cluster: routed + admission drops == offered.
    let routed: u64 = out.per_device.iter().map(|r| r.routed).sum();
    assert_eq!(routed + out.admission_dropped, offered);
    let queue_dropped: u64 = out.per_device.iter().map(|r| r.dropped).sum();
    assert_eq!(out.admission_dropped + queue_dropped, dropped);
}

fn check_horizon(out: &FleetOutcome) {
    assert!(
        out.makespan <= out.horizon,
        "completions inside the horizon"
    );
    for (d, r) in out.per_device.iter().enumerate() {
        assert_eq!(
            r.busy_cycles + r.queue_wait_cycles + r.idle_cycles,
            out.horizon,
            "device {d} buckets must partition the cluster horizon"
        );
    }
    let total: u64 = out
        .per_device
        .iter()
        .map(|r| r.busy_cycles + r.queue_wait_cycles + r.idle_cycles)
        .sum();
    assert_eq!(total, out.per_device.len() as u64 * out.horizon);
}

#[test]
fn conservation_holds_across_routers_and_device_counts() {
    for router in RouterPolicy::ALL {
        for devices in [1usize, 3, 4] {
            let cfg = base_cfg(devices, router);
            // Saturating stream with a bounded queue → real drops.
            let mut cfg = cfg;
            cfg.queue_capacity = Some(12);
            let (arrivals, classes) = stream(400, 30.0 / devices as f64, &[3, 1]);
            let out = run_fleet(&mut fleet(devices), &cfg, &arrivals, &classes);
            check_conservation(&out, 2);
            check_horizon(&out);
            // Shard accounting: hits + misses == completed.
            let completed = out
                .queries
                .iter()
                .filter(|q| q.completion.is_some())
                .count() as u64;
            let misses: u64 = out.per_device.iter().map(|r| r.shard_misses).sum();
            let hits = out
                .queries
                .iter()
                .filter(|q| q.completion.is_some() && q.local)
                .count() as u64;
            assert_eq!(hits + misses, completed, "{} d{devices}", router.label());
        }
    }
}

#[test]
fn full_replication_with_locality_routing_never_misses() {
    let devices = 4;
    let mut cfg = base_cfg(devices, RouterPolicy::LocalityAware);
    cfg.shards = ShardSpec::uniform(8, devices); // every device holds everything
    let (arrivals, classes) = stream(300, 10.0, &[1]);
    cfg.slo = SloConfig::single(u64::MAX);
    let out = run_fleet(&mut fleet(devices), &cfg, &arrivals, &classes);
    let misses: u64 = out.per_device.iter().map(|r| r.shard_misses).sum();
    assert_eq!(misses, 0);
    assert!(out
        .queries
        .iter()
        .all(|q| q.local || q.completion.is_none()));
    check_horizon(&out);
}

#[test]
fn autoscaled_bursts_pay_cold_starts_and_still_conserve() {
    let devices = 4;
    let mut cfg = base_cfg(devices, RouterPolicy::JoinShortestQueue);
    cfg.autoscale = Some(AutoscaleConfig {
        min_warm: 1,
        scale_up_depth: 4,
        scale_down_idle: 500,
        cold_start_cycles: 300,
    });
    // Dense burst: one warm device cannot keep up, forcing warm-ups.
    let (arrivals, classes) = stream(300, 6.0, &[3, 1]);
    let out = run_fleet(&mut fleet(devices), &cfg, &arrivals, &classes);
    let cold: u64 = out.per_device.iter().map(|r| r.cold_starts).sum();
    assert!(cold > 0, "the burst must warm at least one device");
    check_conservation(&out, 2);
    check_horizon(&out);
}

#[test]
fn spill_classes_degrade_instead_of_dropping() {
    let devices = 4;
    let mut cfg = base_cfg(devices, RouterPolicy::LocalityAware);
    cfg.slo = SloConfig {
        classes: vec![SloClass {
            name: "spilly".into(),
            deadline_cycles: 2000,
            weight: 1,
            queue_cap: Some(2),
            overload: OverloadAction::Spill,
        }],
    };
    let (arrivals, classes) = stream(300, 8.0, &[1]);
    let out = run_fleet(&mut fleet(devices), &cfg, &arrivals, &classes);
    assert_eq!(out.admission_dropped, 0, "spill admits over the cap");
    assert_eq!(
        out.queries
            .iter()
            .filter(|q| q.completion.is_some())
            .count(),
        300,
        "unbounded queues complete everything"
    );
    assert!(
        out.queries.iter().any(|q| !q.local),
        "spilled queries land off their shard"
    );
    check_horizon(&out);
}

#[test]
fn fleet_runs_are_pure_functions_of_their_inputs() {
    let devices = 3;
    let cfg = base_cfg(devices, RouterPolicy::PowerOfTwo);
    let (arrivals, classes) = stream(200, 15.0, &[3, 1]);
    let a = run_fleet(&mut fleet(devices), &cfg, &arrivals, &classes);
    let b = run_fleet(&mut fleet(devices), &cfg, &arrivals, &classes);
    assert_eq!(a.queries, b.queries);
    assert_eq!(a.horizon, b.horizon);
    assert_eq!(a.makespan, b.makespan);
    for (x, y) in a.per_device.iter().zip(&b.per_device) {
        assert_eq!(x.busy_cycles, y.busy_cycles);
        assert_eq!(x.routed, y.routed);
    }
}

#[test]
fn one_device_fleet_is_a_serve_run() {
    let (arrivals, _) = stream(300, 40.0, &[1]);
    let classes = vec![0; arrivals.len()];
    for policy in [
        BatchPolicy::SizeTriggered { batch: 8 },
        BatchPolicy::DeadlineTriggered {
            max_wait: 200,
            max_batch: 16,
        },
        BatchPolicy::Continuous { max_warps: 4 },
    ] {
        let cfg = FleetConfig {
            policy: policy.clone(),
            router: RouterPolicy::RoundRobin,
            router_seed: 0xf1ee7,
            queue_capacity: None,
            shards: ShardSpec::uniform(1, 1),
            shard_miss_penalty: 0,
            slo: SloConfig::single(u64::MAX),
            autoscale: None,
            trace: TraceHandle::default(),
        };
        let f = run_fleet(&mut fleet(1), &cfg, &arrivals, &classes);
        let serve_cfg = serve::ServeConfig {
            policy: policy.clone(),
            queue_capacity: None,
            trace: TraceHandle::default(),
        };
        let s = serve::serve(&mut FakeService { universe: 256 }, &serve_cfg, &arrivals);

        let label = policy.label();
        let fleet_done: Vec<_> = f.queries.iter().map(|q| q.completion).collect();
        let serve_done: Vec<_> = s.queries.iter().map(|q| q.completion).collect();
        assert_eq!(fleet_done, serve_done, "{label}: per-query completions");
        let d = &f.per_device[0];
        assert_eq!(d.batches, s.batches, "{label}: batch count");
        assert_eq!(d.launch_stats, s.launch_stats, "{label}: launch stats");
        assert_eq!(
            (d.queue_wait_cycles, d.idle_cycles, f.horizon),
            (s.queue_wait_cycles, s.idle_cycles, s.horizon),
            "{label}: queue-wait, idle and horizon"
        );
        assert_eq!(f.makespan, s.makespan, "{label}: makespan");
    }
}
