//! The resumable serving loop: [`ServeSession`] owns the virtual clock,
//! the arrival cursor, and the per-query outcomes of an in-progress
//! serving run, and can pause at any virtual cycle, export its state into
//! a [`StateBag`], and resume on a freshly built host.
//!
//! [`serve`](crate::serve) is a session driven to completion in one call,
//! so the straight-line path and the snapshot/restore path share every
//! line of event logic — journal parity between them is by construction,
//! and the differential tests in `tta-snap` assert it byte-for-byte.
//!
//! Pausing is exact, not approximate: the clock only ever advances to the
//! *next event* (an arrival, the device freeing, a policy deadline), and a
//! pause at `stop` splits one clock advance `now → t` into `now → stop`
//! and `stop → t`. [`DeviceEngine::advance`] is additive over such splits
//! and no event can fire strictly inside `(now, t)`, so a resumed run
//! replays the identical event sequence.

use gpu_sim::snapshot::fnv1a_64;
use trace::Track;

use crate::engine::{BatchService, DeviceEngine, QueryOutcome, ServeConfig, ServeOutcome};

/// An in-progress serving run over one device: the driver half of the
/// loop ([`DeviceEngine`] is the device half), holding the virtual clock,
/// the arrival cursor, and per-query completions.
#[derive(Debug)]
pub struct ServeSession {
    arrivals: Vec<u64>,
    engine: DeviceEngine,
    queries: Vec<QueryOutcome>,
    makespan: u64,
    now: u64,
    next_arrival: usize,
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
        assert!(
            arrivals.windows(2).all(|w| w[0] <= w[1]),
            "arrival stream must be sorted by cycle"
        );
        assert!(svc.query_count() > 0, "backend has an empty query universe");
        svc.set_trace(cfg.trace.clone());
        let engine = DeviceEngine::new(
            cfg.policy.clone(),
            cfg.queue_capacity,
            svc.warp_width(),
            cfg.trace.clone(),
            Track::Device,
            Track::Queue,
        );
        let queries = arrivals
            .iter()
            .map(|&t| QueryOutcome {
                arrival: t,
                completion: None,
            })
            .collect();
        ServeSession {
            arrivals,
            engine,
            queries,
            makespan: 0,
            now: 0,
            next_arrival: 0,
        }
    }

    /// The current virtual cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Whether the stream is drained and the queue empty (the in-flight
    /// batch, if any, is accounted via the horizon at
    /// [`finish`](ServeSession::finish)).
    pub fn done(&self) -> bool {
        self.next_arrival >= self.arrivals.len() && self.engine.queue_len() == 0
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
        let stop = stop.map(|s| s.max(self.now));
        loop {
            // Admit every arrival that has happened by `now`.
            while self.next_arrival < self.arrivals.len()
                && self.arrivals[self.next_arrival] <= self.now
            {
                self.engine
                    .on_arrival(self.next_arrival, self.arrivals[self.next_arrival]);
                self.next_arrival += 1;
            }
            let drained = self.next_arrival >= self.arrivals.len();
            if drained && self.engine.queue_len() == 0 {
                return true;
            }

            // Launch if the device is free and the policy triggers.
            if self.engine.wants_launch(self.now, drained) {
                let completions = self.engine.launch(self.now, &mut |ids| svc.run_batch(ids));
                for (qi, done) in completions {
                    self.queries[qi].completion = Some(done);
                    self.makespan = self.makespan.max(done);
                }
                continue; // re-admit at the same `now` before advancing
            }

            // Advance the clock to the next event: an arrival, the device
            // becoming free, or a policy deadline.
            let mut next: Option<u64> = (!drained).then(|| self.arrivals[self.next_arrival]);
            if let Some(e) = self.engine.next_event(self.now) {
                next = Some(next.map_or(e, |t| t.min(e)));
            }
            match next {
                Some(t) => {
                    debug_assert!(t > self.now, "virtual clock must advance");
                    if let Some(s) = stop {
                        if t > s {
                            // Pause: split the advance at the stop cycle.
                            self.engine.advance(self.now, s);
                            self.now = s;
                            return false;
                        }
                    }
                    self.engine.advance(self.now, t);
                    self.now = t;
                }
                // Unreachable in practice: a drained non-empty queue
                // always triggers the flush rule above. Defensive exit,
                // not a hang.
                None => return true,
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
        let horizon = self.now.max(self.engine.device_free_at());
        let (busy, queue_wait_cycles, idle_cycles) = self.engine.settle(horizon);
        debug_assert_eq!(
            busy + queue_wait_cycles + idle_cycles,
            horizon,
            "serve-side buckets must partition the horizon"
        );
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
        #[check] stream_len: arrivals.len(),
        #[check] stream_fnv: stream_fnv(),
        now,
        next_arrival,
        makespan,
        #[host] completions: queries[..].completion,
        engine,
    }

    /// Identity hash of the arrival stream — guards a session snapshot
    /// against being resumed onto a different stream.
    fn stream_fnv(&self) -> u64 {
        let bytes: Vec<u8> = self.arrivals.iter().flat_map(|v| v.to_le_bytes()).collect();
        fnv1a_64(&bytes)
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
