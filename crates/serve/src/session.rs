//! The one serving clock, the horizon-shard loop, and the resumable
//! single-device loop.
//!
//! [`Clock`] owns the arrival stream, `now` and the arrival cursor;
//! [`ServeSession`] runs it over one [`DeviceEngine`] and `tta-fleet`'s
//! session over N. Pausing is exact: the clock only ever advances to the
//! *next event* (an arrival, a device freeing, a policy deadline), and a
//! pause at `stop` splits one advance `now → t` into `now → stop` and
//! `stop → t`. [`DeviceEngine::advance`] is additive over such splits
//! and no event can fire strictly inside `(now, t)`, so a resumed run
//! replays the identical event sequence. [`serve`](crate::serve) and
//! [`drive_segments`] share every line of event logic, so journal parity
//! between straight-line and snapshot/restore runs is by construction
//! (the differential tests in `tta-snap` assert it byte-for-byte).

use std::ops::ControlFlow;

use gpu_sim::snapshot::{fnv1a_64, BagError, StateBag};
use trace::Track;

use crate::engine::{BatchService, DeviceEngine, QueryOutcome, ServeConfig, ServeOutcome};

/// The virtual clock of a serving run. Its cursor fields are public so
/// session field lists can snapshot them.
#[derive(Debug)]
pub struct Clock {
    arrivals: Vec<u64>,
    /// The current virtual cycle.
    pub now: u64,
    /// Stream index of the next arrival to admit.
    pub next_arrival: usize,
}

impl Clock {
    /// A clock at cycle 0 over `arrivals`.
    ///
    /// # Panics
    ///
    /// Panics if `arrivals` is not sorted ascending.
    pub fn new(arrivals: Vec<u64>) -> Self {
        assert!(
            arrivals.windows(2).all(|w| w[0] <= w[1]),
            "arrival stream must be sorted by cycle"
        );
        Clock {
            arrivals,
            now: 0,
            next_arrival: 0,
        }
    }

    /// The offered arrival stream, sorted ascending.
    pub fn arrivals(&self) -> &[u64] {
        &self.arrivals
    }

    /// Number of offered arrivals.
    pub fn stream_len(&self) -> usize {
        self.arrivals.len()
    }

    /// Identity hash of the stream followed by `tail` (a session's own
    /// per-query inputs): guards a snapshot against different inputs.
    pub fn stream_fnv(&self, tail: impl IntoIterator<Item = u64>) -> u64 {
        let stream = self.arrivals.iter().copied().chain(tail);
        fnv1a_64(&stream.flat_map(u64::to_le_bytes).collect::<Vec<u8>>())
    }

    /// Admits the next arrival due by `now` and returns its stream index.
    /// The clock never steps past an arrival, so it is admitted at
    /// exactly its own cycle.
    pub fn admit(&mut self) -> Option<usize> {
        let id = self.next_arrival;
        let due = self.arrivals.get(id).is_some_and(|&t| t <= self.now);
        due.then(|| {
            self.next_arrival += 1;
            id
        })
    }

    /// Whether every arrival has been admitted.
    pub fn drained(&self) -> bool {
        self.next_arrival >= self.arrivals.len()
    }

    /// Whether the stream is drained and every engine's queue is empty.
    pub fn done(&self, engines: &[DeviceEngine]) -> bool {
        self.drained() && engines.iter().all(|e| e.queue_len() == 0)
    }

    /// Advances the clock and `engines` to the next event, or exactly to
    /// `stop` when that event lies past it. Breaks with the session's
    /// result: `false` on a pause, `true` when no event remains.
    pub fn advance(
        &mut self,
        engines: &mut [DeviceEngine],
        stop: Option<u64>,
    ) -> ControlFlow<bool> {
        let now = self.now;
        let arrival = self.arrivals.get(self.next_arrival).copied();
        let next = engines
            .iter()
            .filter_map(|e| e.next_event(now))
            .chain(arrival)
            .min();
        // Unreachable in practice: a drained non-empty queue always
        // triggers the flush rule. Defensive exit, not a hang.
        let Some(t) = next else {
            return ControlFlow::Break(true);
        };
        debug_assert!(t > now, "virtual clock must advance");
        let to = stop.map_or(t, |s| t.min(s.max(now)));
        for e in engines.iter_mut() {
            e.advance(now, to);
        }
        self.now = to;
        if to < t {
            ControlFlow::Break(false)
        } else {
            ControlFlow::Continue(())
        }
    }

    /// Ends the run at the horizon, the latest of `now` and every
    /// device's quiet point: each engine is advanced to it and settled,
    /// and its `(busy, queue_wait, idle)` buckets partition it exactly
    /// (debug-asserted).
    pub fn settle(&self, engines: &mut [DeviceEngine]) -> (u64, Vec<(u64, u64, u64)>) {
        let horizon = engines
            .iter()
            .fold(self.now, |h, e| h.max(e.device_free_at()));
        let mut buckets = Vec::with_capacity(engines.len());
        for (d, e) in engines.iter_mut().enumerate() {
            e.advance(self.now, horizon);
            let (busy, wait, idle) = e.settle(horizon);
            debug_assert_eq!(
                busy + wait + idle,
                horizon,
                "device {d} must partition the horizon"
            );
            buckets.push((busy, wait, idle));
        }
        (horizon, buckets)
    }
}

/// The horizon-shard loop of both serving experiments. `build` stands
/// up fresh services and a session from configuration; `run_until`
/// drives a session until done or paused. The horizon is cut at
/// `last * k / segments` (`last` = the final arrival stamp); at each cut
/// the services and the session are exported onto freshly built ones.
/// The final segment is the caller's `finish`.
///
/// # Panics
///
/// Panics when a snapshot does not fit the freshly built host.
pub fn drive_segments<S>(
    segments: usize,
    arrivals: &[u64],
    build: impl Fn() -> (Vec<Box<dyn BatchService>>, S),
    run_until: impl Fn(&mut S, &mut [Box<dyn BatchService>], Option<u64>) -> bool,
    export: fn(&S) -> StateBag,
    import: fn(&mut S, &StateBag) -> Result<(), BagError>,
) -> (Vec<Box<dyn BatchService>>, S) {
    let (mut services, mut session) = build();
    let last = arrivals.last().copied().unwrap_or(0);
    for k in 1..segments as u64 {
        if run_until(
            &mut session,
            &mut services,
            Some(last * k / segments as u64),
        ) {
            break;
        }
        let (mut fresh, mut fresh_session) = build();
        for (svc, old) in fresh.iter_mut().zip(&services) {
            svc.import_state(&old.export_state())
                .expect("device snapshot fits an identically built backend");
        }
        import(&mut fresh_session, &export(&session))
            .expect("session snapshot fits an identical stream and configuration");
        (services, session) = (fresh, fresh_session);
    }
    (services, session)
}

/// An in-progress serving run over one device: the driver half of the
/// loop ([`DeviceEngine`] is the device half), holding the virtual clock
/// and per-query completions.
#[derive(Debug)]
pub struct ServeSession {
    clock: Clock,
    engine: DeviceEngine,
    queries: Vec<QueryOutcome>,
    makespan: u64,
}

impl ServeSession {
    /// Starts a serving run: validates the stream, wires the trace into
    /// the backend, and stands up the device engine. No virtual time
    /// passes until [`run_until`](ServeSession::run_until).
    ///
    /// # Panics
    ///
    /// Panics if `arrivals` is not sorted ascending or the backend's query
    /// universe is empty.
    pub fn new(svc: &mut dyn BatchService, cfg: ServeConfig, arrivals: Vec<u64>) -> Self {
        let clock = Clock::new(arrivals);
        assert!(svc.query_count() > 0, "backend has an empty query universe");
        svc.set_trace(cfg.trace.clone());
        let engine = DeviceEngine::new(
            cfg.policy,
            cfg.queue_capacity,
            svc.warp_width(),
            cfg.trace,
            Track::Device,
            Track::Queue,
        );
        let queries = clock
            .arrivals()
            .iter()
            .map(|&t| QueryOutcome {
                arrival: t,
                completion: None,
            })
            .collect();
        ServeSession {
            clock,
            engine,
            queries,
            makespan: 0,
        }
    }

    /// The current virtual cycle.
    pub fn now(&self) -> u64 {
        self.clock.now
    }

    /// Whether the stream is drained and the queue empty (the in-flight
    /// batch, if any, is accounted via the horizon at
    /// [`finish`](ServeSession::finish)).
    pub fn done(&self) -> bool {
        self.clock.done(std::slice::from_ref(&self.engine))
    }

    /// Drives the loop until it is [`done`](ServeSession::done) or the
    /// next clock advance would pass `stop` (the clock then rests exactly
    /// at `stop`; every event at cycles ≤ `stop` has executed). `None`
    /// runs to completion. Returns [`done`](ServeSession::done).
    ///
    /// # Panics
    ///
    /// Panics when the backend reports fewer per-warp completion slots
    /// than a batch needs.
    pub fn run_until(&mut self, svc: &mut dyn BatchService, stop: Option<u64>) -> bool {
        loop {
            while let Some(id) = self.clock.admit() {
                self.engine.on_arrival(id, self.clock.now);
            }
            if self.done() {
                return true;
            }
            // Launch if the device is free and the policy triggers.
            let now = self.clock.now;
            if self.engine.wants_launch(now, self.clock.drained()) {
                for (qi, done) in self.engine.launch(now, &mut |ids| svc.run_batch(ids)) {
                    self.queries[qi].completion = Some(done);
                    self.makespan = self.makespan.max(done);
                }
                continue; // re-admit at the same `now` before advancing
            }
            let engines = std::slice::from_mut(&mut self.engine);
            if let ControlFlow::Break(done) = self.clock.advance(engines, stop) {
                return done;
            }
        }
    }

    /// Runs to completion, settles the horizon partition, and assembles
    /// the [`ServeOutcome`].
    ///
    /// # Panics
    ///
    /// Panics (debug) when the busy/queue-wait/idle buckets fail to
    /// partition the horizon — an accounting bug, never data-dependent.
    pub fn finish(mut self, svc: &mut dyn BatchService) -> ServeOutcome {
        self.run_until(svc, None);
        let (horizon, buckets) = self.clock.settle(std::slice::from_mut(&mut self.engine));
        let (_, queue_wait_cycles, idle_cycles) = buckets[0];
        ServeOutcome {
            queries: self.queries,
            batches: self.engine.batches(),
            max_queue_depth: self.engine.max_queue_depth(),
            dropped: self.engine.dropped(),
            makespan: self.makespan,
            launch_stats: self.engine.into_launch_stats(),
            queue_wait_cycles,
            idle_cycles,
            horizon,
        }
    }

    // Snapshot support. The arrival stream itself is configuration
    // (regenerated from the experiment seed on restore) and is represented
    // only by its length and identity hash; the backend's state is *not*
    // included — snapshot it separately via `BatchService::export_state`.
    gpu_sim::snap_fields! {
        pub fn export_state / import_state;
        #[check] stream_len: clock.stream_len(),
        #[check] stream_fnv: clock.stream_fnv(None),
        now: clock.now,
        next_arrival: clock.next_arrival,
        makespan,
        #[host] completions: queries[..].completion,
        engine,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::snapshot::BagError;
    use gpu_sim::SimStats;
    use trace::TraceHandle;

    /// Deterministic fake backend (same shape as the engine tests').
    struct FakeService {
        universe: usize,
        base: u64,
        per_query: u64,
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
            let cycles = self.base + self.per_query * ids.len() as u64;
            let warps = ids.len().div_ceil(4);
            SimStats {
                cycles,
                warp_size: 4,
                warp_completions: (1..=warps)
                    .map(|w| self.base + self.per_query * ((w * 4).min(ids.len()) as u64))
                    .collect(),
                ..Default::default()
            }
        }
    }

    fn fake() -> FakeService {
        FakeService {
            universe: 64,
            base: 100,
            per_query: 10,
        }
    }

    fn cfg() -> ServeConfig {
        ServeConfig {
            policy: crate::policy::BatchPolicy::SizeTriggered { batch: 4 },
            queue_capacity: None,
            trace: TraceHandle::default(),
        }
    }

    fn arrivals() -> Vec<u64> {
        vec![0, 0, 5, 5, 7, 9, 400, 405, 410, 415, 900]
    }

    fn straight_line() -> ServeOutcome {
        let mut svc = fake();
        ServeSession::new(&mut svc, cfg(), arrivals()).finish(&mut svc)
    }

    #[test]
    fn pause_resume_at_many_cuts_matches_straight_line() {
        let want = straight_line();
        for stop in [0u64, 1, 5, 144, 145, 300, 401, 899, 10_000] {
            let mut svc = fake();
            let mut s = ServeSession::new(&mut svc, cfg(), arrivals());
            s.run_until(&mut svc, Some(stop));
            assert_eq!(s.now().min(stop), s.now(), "clock never passes the stop");
            let got = s.finish(&mut svc);
            assert_eq!(got.queries, want.queries, "cut at {stop}");
            assert_eq!(got.launch_stats, want.launch_stats, "cut at {stop}");
            assert_eq!(
                (got.batches, got.makespan, got.horizon),
                (want.batches, want.makespan, want.horizon),
                "cut at {stop}"
            );
            assert_eq!(
                (got.queue_wait_cycles, got.idle_cycles),
                (want.queue_wait_cycles, want.idle_cycles),
                "cut at {stop}: advance splitting must be exact"
            );
        }
    }

    #[test]
    fn export_import_resumes_on_a_fresh_session() {
        let want = straight_line();
        for stop in [3u64, 145, 500, 902] {
            let mut svc = fake();
            let mut s = ServeSession::new(&mut svc, cfg(), arrivals());
            s.run_until(&mut svc, Some(stop));
            let snap = s.export_state();
            drop(s);

            let mut svc2 = fake(); // FakeService is stateless across batches
            let mut r = ServeSession::new(&mut svc2, cfg(), arrivals());
            r.import_state(&snap).expect("snapshot fits");
            assert_eq!(r.export_state(), snap, "export/import is lossless");
            let got = r.finish(&mut svc2);
            assert_eq!(got.queries, want.queries, "cut at {stop}");
            assert_eq!(got.launch_stats, want.launch_stats, "cut at {stop}");
            assert_eq!(got.horizon, want.horizon, "cut at {stop}");
        }
    }

    #[test]
    fn wrong_stream_is_rejected() {
        let mut svc = fake();
        let mut s = ServeSession::new(&mut svc, cfg(), arrivals());
        s.run_until(&mut svc, Some(100));
        let snap = s.export_state();

        let mut other = ServeSession::new(&mut svc, cfg(), vec![1, 2, 3]);
        assert!(matches!(
            other.import_state(&snap),
            Err(BagError::Mismatch(_))
        ));
        // Same length, different stamps: the identity hash catches it.
        let mut shifted = arrivals();
        shifted[3] += 1;
        let mut other = ServeSession::new(&mut svc, cfg(), shifted);
        assert!(matches!(
            other.import_state(&snap),
            Err(BagError::Mismatch(_))
        ));
    }
}
