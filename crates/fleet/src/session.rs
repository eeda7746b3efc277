//! The resumable cluster loop: [`FleetSession`] holds the routing,
//! admission and scaling state and the per-query outcomes of an
//! in-progress fleet run on the shared serving [`Clock`], and can pause
//! at any virtual cycle, export everything into a [`StateBag`], and
//! resume on freshly built hosts.
//!
//! [`run_fleet`](crate::cluster::run_fleet) is a session driven to
//! completion in one call, so the straight-line path and the
//! snapshot/restore path share every line of event logic — journal parity
//! between them is by construction. The clock advance, its exact split at
//! a pause, and the horizon settle are [`Clock`]'s, the same code a
//! single-device serve run uses (see `serve::session` for the argument).
//!
//! [`StateBag`]: gpu_sim::snapshot::StateBag

use std::ops::ControlFlow;

use serve::session::Clock;
use serve::{BatchService, DeviceEngine};
use trace::Track;

use crate::autoscale::Autoscaler;
use crate::cluster::{FleetConfig, FleetDeviceReport, FleetOutcome, FleetQueryOutcome};
use crate::router::Router;
use crate::shard::ShardMap;
use crate::slo::OverloadAction;

/// An in-progress fleet run: the cluster half of the loop (each
/// [`DeviceEngine`] is one device's half), holding the global clock,
/// router, autoscaler, and per-query outcomes.
#[derive(Debug)]
pub struct FleetSession {
    cfg: FleetConfig,
    clock: Clock,
    map: ShardMap,
    engines: Vec<DeviceEngine>,
    router: Router,
    scaler: Autoscaler,
    queries: Vec<FleetQueryOutcome>,
    routed: Vec<u64>,
    in_flight: Vec<usize>,
    shard_misses: Vec<u64>,
    queued_per_class: Vec<usize>,
    admission_dropped: u64,
    makespan: u64,
}

impl FleetSession {
    /// Starts a fleet run over `services` (one per device). No virtual
    /// time passes until [`run_until`](FleetSession::run_until).
    ///
    /// # Panics
    ///
    /// Panics when `services` is empty or the devices disagree on the
    /// query universe, when `arrivals` is unsorted or its length differs
    /// from `classes`, or when a class index is out of range.
    pub fn new(
        services: &mut [Box<dyn BatchService>],
        cfg: FleetConfig,
        arrivals: Vec<u64>,
        classes: Vec<usize>,
    ) -> Self {
        assert!(!services.is_empty(), "fleet needs at least one device");
        assert_eq!(
            arrivals.len(),
            classes.len(),
            "every offered query needs a class"
        );
        let clock = Clock::new(arrivals);
        let n_classes = cfg.slo.classes.len();
        assert!(n_classes > 0, "fleet needs at least one SLO class");
        assert!(
            classes.iter().all(|&c| c < n_classes),
            "class index out of range"
        );
        let universe = services[0].query_count();
        assert!(universe > 0, "backend has an empty query universe");
        assert!(
            services.iter().all(|s| s.query_count() == universe),
            "all devices must host the same query universe"
        );

        let n_dev = services.len();
        // The fleet trace stays at cluster level (router, per-device
        // batch, per-query queue tracks). The shared handle is
        // deliberately NOT wired into the device sims: each backend GPU
        // stamps its singleton tracks with its own sim-local clock, and N
        // devices' clocks would interleave into overlapping spans on one
        // timeline.
        let map = ShardMap::place(universe, n_dev, &cfg.shards);
        let engines: Vec<DeviceEngine> = (0..n_dev)
            .map(|d| {
                DeviceEngine::new(
                    cfg.policy.clone(),
                    cfg.queue_capacity,
                    services[d].warp_width(),
                    cfg.trace.clone(),
                    Track::FleetDevice(d as u32),
                    Track::FleetQueue(d as u32),
                )
            })
            .collect();
        let router = Router::new(cfg.router, cfg.router_seed);
        let scaler = Autoscaler::new(n_dev, cfg.autoscale.clone(), cfg.trace.clone());

        let queries: Vec<FleetQueryOutcome> = clock
            .arrivals()
            .iter()
            .zip(&classes)
            .enumerate()
            .map(|(id, (&t, &c))| FleetQueryOutcome {
                arrival: t,
                completion: None,
                device: None,
                class: c,
                shard: map.shard_of_query(id),
                local: false,
            })
            .collect();

        FleetSession {
            cfg,
            clock,
            map,
            engines,
            router,
            scaler,
            queries,
            routed: vec![0; n_dev],
            in_flight: vec![0; n_dev],
            shard_misses: vec![0; n_dev],
            queued_per_class: vec![0; n_classes],
            admission_dropped: 0,
            makespan: 0,
        }
    }

    /// Whether the stream is drained and every device queue is empty.
    pub fn done(&self) -> bool {
        self.clock.done(&self.engines)
    }

    /// Drives the cluster until it is [`done`](FleetSession::done) or the
    /// next clock advance would pass `stop` (the clock then rests exactly
    /// at `stop`). `None` runs to completion. Returns
    /// [`done`](FleetSession::done).
    ///
    /// # Panics
    ///
    /// Panics when a backend reports fewer per-warp completion slots than
    /// a batch needs.
    pub fn run_until(&mut self, services: &mut [Box<dyn BatchService>], stop: Option<u64>) -> bool {
        assert_eq!(
            services.len(),
            self.engines.len(),
            "device count changed mid-run"
        );
        loop {
            // Admit every arrival that has happened by `now`, in stream
            // order.
            while let Some(id) = self.clock.admit() {
                self.admit(id);
            }
            if self.done() {
                return true;
            }

            // Launch pass, ascending device order.
            let (now, drained) = (self.clock.now, self.clock.drained());
            let mut launched = false;
            for (d, svc) in services.iter_mut().enumerate() {
                if self.engines[d].wants_launch(now, drained) {
                    self.launch(d, svc.as_mut());
                    launched = true;
                }
            }
            if launched {
                continue; // re-check admissions/launches at the same `now`
            }
            if let ControlFlow::Break(done) = self.clock.advance(&mut self.engines, stop) {
                return done;
            }
        }
    }

    /// Admission of arrival `id` at `now`: lazy autoscaling, class
    /// admission control, then routing to a device queue.
    fn admit(&mut self, id: usize) {
        let now = self.clock.now;
        let class = self.queries[id].class;
        let queued_total: usize = self.engines.iter().map(|e| e.queue_len()).sum();
        // Scaling is evaluated lazily at arrival boundaries: parking and
        // warming only matter when there is a query to route.
        let engines = &self.engines;
        self.scaler.maybe_scale_down(now, &mut |d| {
            engines[d].queue_len() == 0 && engines[d].device_free_at() <= now
        });
        self.scaler.maybe_scale_up(queued_total, now);

        let slo_class = &self.cfg.slo.classes[class];
        let over = slo_class
            .queue_cap
            .is_some_and(|cap| self.queued_per_class[class] >= cap);
        let spill = match (over, slo_class.overload) {
            (true, OverloadAction::Drop) => {
                self.admission_dropped += 1;
                self.cfg
                    .trace
                    .instant(Track::Router, "admission_drop", now, class as u64);
                return;
            }
            (true, OverloadAction::Spill) => true,
            (false, _) => false,
        };

        let shard = self.queries[id].shard;
        let active = self.scaler.active();
        let preferred: Vec<usize> = if spill {
            Vec::new() // degraded: locality bypassed
        } else {
            self.map
                .replicas(shard)
                .iter()
                .copied()
                .filter(|&d| self.scaler.is_warm(d))
                .collect()
        };
        let (engines, in_flight) = (&self.engines, &self.in_flight);
        let d = self.router.route(&active, &preferred, &mut |d| {
            engines[d].queue_len()
                + if engines[d].device_free_at() > now {
                    in_flight[d]
                } else {
                    0
                }
        });
        self.cfg
            .trace
            .instant(Track::Router, "route", now, d as u64);
        self.routed[d] += 1;
        if self.engines[d].on_arrival(id, now) {
            self.queued_per_class[class] += 1;
            self.queries[id].device = Some(d);
            self.queries[id].local = self.map.holds(d, shard);
            self.scaler.note_activity(d, now);
        }
    }

    /// Launches device `d`'s next batch at `now`, charging remote-shard
    /// fetches and a pending cold start inside the launch itself so the
    /// busy bucket stays honest.
    fn launch(&mut self, d: usize, svc: &mut dyn BatchService) {
        let cold = self.scaler.take_pending(d);
        let mut misses = 0u64;
        let mut batch_len = 0usize;
        let (map, queries, penalty) = (&self.map, &self.queries, self.cfg.shard_miss_penalty);
        let completions = self.engines[d].launch(self.clock.now, &mut |ids| {
            batch_len = ids.len();
            let mut stats = svc.run_batch(ids);
            misses = ids
                .iter()
                .filter(|&&id| !map.holds(d, queries[id].shard))
                .count() as u64;
            let extra = cold + penalty * misses;
            if extra > 0 {
                stats.cycles += extra;
                for w in &mut stats.warp_completions {
                    *w += extra;
                }
            }
            stats
        });
        self.shard_misses[d] += misses;
        self.in_flight[d] = batch_len;
        for (id, done) in completions {
            self.queries[id].completion = Some(done);
            self.makespan = self.makespan.max(done);
            self.queued_per_class[self.queries[id].class] -= 1;
        }
        self.scaler
            .note_activity(d, self.engines[d].device_free_at());
    }

    /// Runs to completion, settles every device against the cluster
    /// horizon, and assembles the [`FleetOutcome`].
    ///
    /// # Panics
    ///
    /// Panics (debug) when a device's buckets fail to partition the
    /// cluster horizon.
    pub fn finish(mut self, services: &mut [Box<dyn BatchService>]) -> FleetOutcome {
        self.run_until(services, None);
        let (horizon, buckets) = self.clock.settle(&mut self.engines);
        let per_device = self
            .engines
            .into_iter()
            .zip(buckets)
            .enumerate()
            .map(|(d, (e, (busy, queue_wait, idle)))| FleetDeviceReport {
                routed: self.routed[d],
                batches: e.batches(),
                completed: e.completed(),
                dropped: e.dropped(),
                busy_cycles: busy,
                queue_wait_cycles: queue_wait,
                idle_cycles: idle,
                max_queue_depth: e.max_queue_depth(),
                shard_misses: self.shard_misses[d],
                cold_starts: self.scaler.cold_starts(d),
                launch_stats: e.into_launch_stats(),
            })
            .collect();

        FleetOutcome {
            queries: self.queries,
            per_device,
            admission_dropped: self.admission_dropped,
            makespan: self.makespan,
            horizon,
        }
    }

    // Snapshot support: clock, cursors, per-query outcomes, per-device
    // counters, every engine, the router, and the autoscaler. The offered
    // stream, shard map, and config are reconstructed on restore and
    // represented only by the stream's length and identity hash. Backend
    // state is *not* included — snapshot each device separately via
    // `BatchService::export_state`.
    gpu_sim::snap_fields! {
        pub fn export_state / import_state;
        #[check] stream_len: clock.stream_len(),
        #[check] stream_fnv: stream_fnv(),
        now: clock.now,
        next_arrival: clock.next_arrival,
        makespan,
        admission_dropped,
        #[host] completions: queries[..].completion,
        #[host] devices: queries[..].device,
        #[host] local: queries[..].local,
        #[host] routed,
        #[host] in_flight,
        #[host] shard_misses,
        #[host] queued_per_class,
        #[host] engines,
        router,
        scaler,
    }

    /// Identity hash of the offered stream (stamps and class assignments)
    /// — guards a session snapshot against being resumed onto different
    /// inputs.
    fn stream_fnv(&self) -> u64 {
        self.clock
            .stream_fnv(self.queries.iter().map(|q| q.class as u64))
    }
}
