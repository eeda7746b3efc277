//! Warm/cold replica autoscaling on the virtual clock.
//!
//! Devices are **warm** (routable) or **cold** (parked: not routable,
//! accruing idle cycles). The scaler warms the lowest-id cold device when
//! the cluster backlog exceeds a per-warm-device depth threshold, and
//! parks the highest-id warm device (down to `min_warm`) once it has sat
//! idle past a quiesce window. Warming is not free: the next batch the
//! newly warm device launches is charged `cold_start_cycles` of overhead —
//! inside its busy bucket, so the per-device horizon partition
//! `busy + queue_wait + idle == horizon` survives scaling.
//!
//! Everything here keys off virtual-clock state only, keeping scaling
//! decisions byte-deterministic.

use trace::{TraceHandle, Track};

/// Autoscaler tuning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AutoscaleConfig {
    /// Devices that are always kept warm (≥ 1).
    pub min_warm: usize,
    /// Warm another device when total queued queries exceed
    /// `scale_up_depth × warm_count`.
    pub scale_up_depth: usize,
    /// Park a warm device after this many cycles idle with an empty queue.
    pub scale_down_idle: u64,
    /// Overhead charged to the first batch a device launches after
    /// warming (model: re-uploading the tree image / JIT re-warm).
    pub cold_start_cycles: u64,
}

/// Tracks each device's warm/cold state. With no config every device is
/// permanently warm and the scaler is inert.
#[derive(Debug)]
pub struct Autoscaler {
    cfg: Option<AutoscaleConfig>,
    warm: Vec<bool>,
    /// Last cycle each device was routed to or finished a batch.
    last_active: Vec<u64>,
    /// Cold-start cycles awaiting the device's next launch.
    pending: Vec<u64>,
    cold_starts: Vec<u64>,
    trace: TraceHandle,
}

impl Autoscaler {
    /// A scaler over `devices` devices. `None` disables scaling (all
    /// warm). With `Some(cfg)`, devices `0..min_warm` start warm.
    ///
    /// # Panics
    ///
    /// Panics when a config requests zero always-warm devices.
    pub fn new(devices: usize, cfg: Option<AutoscaleConfig>, trace: TraceHandle) -> Self {
        let warm = match &cfg {
            None => vec![true; devices],
            Some(c) => {
                assert!(c.min_warm >= 1, "autoscaler needs at least one warm device");
                (0..devices).map(|d| d < c.min_warm).collect()
            }
        };
        Autoscaler {
            cfg,
            warm,
            last_active: vec![0; devices],
            pending: vec![0; devices],
            cold_starts: vec![0; devices],
            trace,
        }
    }

    /// Ascending ids of the currently warm (routable) devices.
    pub fn active(&self) -> Vec<usize> {
        (0..self.warm.len()).filter(|&d| self.warm[d]).collect()
    }

    /// Whether `device` is warm.
    pub fn is_warm(&self, device: usize) -> bool {
        self.warm[device]
    }

    /// Records routing/launch activity on `device` at `cycle` (resets its
    /// idle-quiesce window).
    pub fn note_activity(&mut self, device: usize, cycle: u64) {
        self.last_active[device] = self.last_active[device].max(cycle);
    }

    /// Warms the lowest-id cold device when the backlog (`queued_total`
    /// across all devices) exceeds the configured per-warm-device depth.
    /// Returns the warmed device, if any.
    pub fn maybe_scale_up(&mut self, queued_total: usize, now: u64) -> Option<usize> {
        let cfg = self.cfg.as_ref()?;
        let warm_count = self.warm.iter().filter(|&&w| w).count();
        if queued_total < cfg.scale_up_depth * warm_count {
            return None;
        }
        let d = (0..self.warm.len()).find(|&d| !self.warm[d])?;
        self.warm[d] = true;
        self.pending[d] += cfg.cold_start_cycles;
        self.cold_starts[d] += 1;
        self.last_active[d] = now;
        self.trace.instant(Track::Router, "scale_up", now, d as u64);
        Some(d)
    }

    /// Parks warm devices (highest id first, never below `min_warm`) that
    /// have been quiet past the quiesce window. `idle` reports whether a
    /// device is parkable *right now* (empty queue, no batch in flight).
    pub fn maybe_scale_down(&mut self, now: u64, idle: &mut dyn FnMut(usize) -> bool) {
        let Some(cfg) = self.cfg.as_ref() else {
            return;
        };
        let mut warm_count = self.warm.iter().filter(|&&w| w).count();
        for d in (cfg.min_warm..self.warm.len()).rev() {
            if warm_count <= cfg.min_warm {
                break;
            }
            if self.warm[d]
                && idle(d)
                && now.saturating_sub(self.last_active[d]) >= cfg.scale_down_idle
            {
                self.warm[d] = false;
                self.pending[d] = 0;
                warm_count -= 1;
                self.trace
                    .instant(Track::Router, "scale_down", now, d as u64);
            }
        }
    }

    /// Takes the cold-start overhead to charge to `device`'s next launch
    /// (zero once consumed).
    pub fn take_pending(&mut self, device: usize) -> u64 {
        std::mem::take(&mut self.pending[device])
    }

    /// Warm-up transitions `device` has paid for so far.
    pub fn cold_starts(&self, device: usize) -> u64 {
        self.cold_starts[device]
    }

    // Snapshot support: warm flags, per-device activity stamps, pending
    // cold-start charges, and cold-start counters. The config
    // (thresholds, windows) is reconstructed on restore.
    gpu_sim::snap_fields! {
        pub fn export_state / import_state;
        #[host] warm,
        #[host] last_active,
        #[host] pending,
        #[host] cold_starts,
    }
}

gpu_sim::snap_state!(Autoscaler);

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> AutoscaleConfig {
        AutoscaleConfig {
            min_warm: 1,
            scale_up_depth: 4,
            scale_down_idle: 1000,
            cold_start_cycles: 500,
        }
    }

    #[test]
    fn disabled_scaler_keeps_everything_warm() {
        let s = Autoscaler::new(4, None, TraceHandle::default());
        assert_eq!(s.active(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn scales_up_on_backlog_and_charges_the_cold_start() {
        let mut s = Autoscaler::new(3, Some(cfg()), TraceHandle::default());
        assert_eq!(s.active(), vec![0]);
        assert_eq!(s.maybe_scale_up(3, 100), None, "below depth threshold");
        assert_eq!(s.maybe_scale_up(4, 100), Some(1));
        assert_eq!(s.active(), vec![0, 1]);
        assert_eq!(s.take_pending(1), 500);
        assert_eq!(s.take_pending(1), 0, "charged once");
        assert_eq!(s.cold_starts(1), 1);
    }

    #[test]
    fn scales_down_idle_devices_but_keeps_min_warm() {
        let mut s = Autoscaler::new(2, Some(cfg()), TraceHandle::default());
        s.maybe_scale_up(100, 0);
        assert_eq!(s.active(), vec![0, 1]);
        s.note_activity(1, 200);
        s.maybe_scale_down(900, &mut |_| true);
        assert_eq!(s.active(), vec![0, 1], "quiesce window not elapsed");
        s.maybe_scale_down(1200, &mut |_| true);
        assert_eq!(s.active(), vec![0], "device 1 parked");
        s.maybe_scale_down(10_000, &mut |_| true);
        assert_eq!(s.active(), vec![0], "min_warm floor holds");
    }

    #[test]
    fn busy_devices_are_never_parked() {
        let mut s = Autoscaler::new(2, Some(cfg()), TraceHandle::default());
        s.maybe_scale_up(100, 0);
        s.maybe_scale_down(100_000, &mut |_| false);
        assert_eq!(s.active(), vec![0, 1]);
    }
}
