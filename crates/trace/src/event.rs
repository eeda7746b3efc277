//! The event model: tracks, event kinds, and the cycle-attribution
//! histogram.
//!
//! Every [`TraceEvent`] is stamped with the *simulated* cycle at which it
//! occurred, never with wall-clock time. Emission order is fully
//! determined by the simulation itself, so a trace is byte-identical
//! across hosts and across harness worker-thread counts (the same
//! contract the run journal keeps).

use crate::json::{Json, Object, COMPACT};

/// The simulated resource an event belongs to.
///
/// Tracks map onto rows in a Chrome trace viewer: the category (variant)
/// becomes the process, the index becomes the thread. Synchronous
/// [`EventKind::Span`]s on one track never overlap; asynchronous spans
/// (memory requests, μop programs, queries) may.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Track {
    /// The whole device: one span per `Gpu::launch`, plus attribution
    /// counters.
    Gpu,
    /// One streaming multiprocessor: issue/stall/retire/divergence
    /// instants. Event cycles on an `Sm` track are non-decreasing.
    Sm(u32),
    /// The traversal accelerator attached to SM `n`: busy spans and
    /// per-ray completion instants.
    Accel(u32),
    /// The memory hierarchy as seen from SM `n`: request lifecycle spans.
    Mem(u32),
    /// One DRAM channel: transfer spans.
    Dram(u32),
    /// One μop program slot on the TTA+ backend (builtins are numbered
    /// from [`Track::BUILTIN_PROGRAM_BASE`]).
    Program(u32),
    /// The serving engine's device timeline: batch spans and idle
    /// accounting.
    Device,
    /// The serving engine's admission queue: per-query wait/service spans.
    Queue,
    /// The fleet router: one instant per routing decision (arg = chosen
    /// device), plus admission-drop and autoscaling instants.
    Router,
    /// Device `n` of a fleet: batch spans and idle accounting (the
    /// multi-device analogue of [`Track::Device`]).
    FleetDevice(u32),
    /// Device `n`'s admission queue in a fleet: per-query wait/service
    /// spans (the multi-device analogue of [`Track::Queue`]).
    FleetQueue(u32),
}

impl Track {
    /// Builtin μop programs get `Program(BUILTIN_PROGRAM_BASE + i)` so
    /// they never collide with user program indices.
    pub const BUILTIN_PROGRAM_BASE: u32 = 1000;

    /// Stable short name of the track category (the Chrome "process").
    #[must_use]
    pub fn category(self) -> &'static str {
        match self {
            Track::Gpu => "gpu",
            Track::Sm(_) => "sm",
            Track::Accel(_) => "accel",
            Track::Mem(_) => "mem",
            Track::Dram(_) => "dram",
            Track::Program(_) => "uop",
            Track::Device => "serve.device",
            Track::Queue => "serve.queue",
            Track::Router => "fleet.router",
            Track::FleetDevice(_) => "fleet.device",
            Track::FleetQueue(_) => "fleet.queue",
        }
    }

    /// Stable numeric id of the track category (the Chrome "pid").
    #[must_use]
    pub fn category_id(self) -> u32 {
        match self {
            Track::Gpu => 1,
            Track::Sm(_) => 2,
            Track::Accel(_) => 3,
            Track::Mem(_) => 4,
            Track::Dram(_) => 5,
            Track::Program(_) => 6,
            Track::Device => 7,
            Track::Queue => 8,
            Track::Router => 9,
            Track::FleetDevice(_) => 10,
            Track::FleetQueue(_) => 11,
        }
    }

    /// Index within the category (the Chrome "tid"); 0 for singleton
    /// tracks.
    #[must_use]
    pub fn index(self) -> u32 {
        match self {
            Track::Sm(i)
            | Track::Accel(i)
            | Track::Mem(i)
            | Track::Dram(i)
            | Track::Program(i)
            | Track::FleetDevice(i)
            | Track::FleetQueue(i) => i,
            Track::Gpu | Track::Device | Track::Queue | Track::Router => 0,
        }
    }
}

/// What happened (names are `'static` so the disabled path never
/// allocates).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A synchronous interval `[cycle, end)` on the track's own timeline.
    /// Spans on one track either nest or are disjoint — never partial
    /// overlaps.
    Span {
        /// What the resource was doing.
        name: &'static str,
        /// Exclusive end cycle (`end >= cycle`).
        end: u64,
        /// One free payload word (lane count, batch size, …).
        arg: u64,
    },
    /// An asynchronous interval `[cycle, end)` identified by `id`;
    /// multiple async spans on one track may be in flight at once
    /// (memory requests, μop programs, queries).
    Async {
        /// What the operation was.
        name: &'static str,
        /// Correlation id, unique per track.
        id: u64,
        /// Exclusive end cycle (`end >= cycle`).
        end: u64,
        /// One free payload word (bytes, query index, …).
        arg: u64,
    },
    /// A point event at `cycle`.
    Instant {
        /// What happened.
        name: &'static str,
        /// One free payload word (active lanes, warp id, …).
        arg: u64,
    },
    /// An attribution summary: `cycles` simulated cycles landed in
    /// `bucket`. Emitted once per bucket at the end of a launch or a
    /// serve session, not per cycle.
    Counter {
        /// Which attribution bucket.
        bucket: Bucket,
        /// Number of cycles attributed.
        cycles: u64,
    },
}

/// One trace event: where, when, what.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// The resource timeline this event belongs to.
    pub track: Track,
    /// The simulated cycle (span/async start cycle for intervals).
    pub cycle: u64,
    /// The payload.
    pub kind: EventKind,
}

impl TraceEvent {
    /// The event's name, or a stable placeholder for counters.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self.kind {
            EventKind::Span { name, .. }
            | EventKind::Async { name, .. }
            | EventKind::Instant { name, .. } => name,
            EventKind::Counter { bucket, .. } => bucket.name(),
        }
    }
}

/// Where a simulated cycle went. The seven buckets partition every cycle
/// of a run: the five launch buckets cover `Gpu::launch`, the last two
/// cover the serving engine's inter-batch gaps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Bucket {
    /// At least one warp issued an instruction this cycle.
    SimtBusy,
    /// No issue and no accelerator work; at least one warp was blocked on
    /// a register produced by an outstanding memory load.
    SimtStallMem,
    /// No issue and no accelerator work; warps were blocked on non-memory
    /// latency (ALU/SFU results, accelerator wait) or drained.
    SimtStallOther,
    /// No SIMT issue on the landing cycle, but an accelerator held
    /// outstanding traversal work.
    AccelBusy,
    /// Cycles skipped by the event loop while an accelerator was busy —
    /// the SIMT core had nothing to issue and was waiting on the
    /// accelerator ("starved" of traversal results).
    AccelStarved,
    /// Serving engine: the device was free but queries sat in the queue
    /// waiting for the batch policy to trigger.
    QueueWait,
    /// Serving engine: the device was free and the queue was empty
    /// (waiting for arrivals).
    DeviceIdle,
}

impl Bucket {
    /// All buckets, in the canonical (serialization) order.
    pub const ALL: [Bucket; 7] = [
        Bucket::SimtBusy,
        Bucket::SimtStallMem,
        Bucket::SimtStallOther,
        Bucket::AccelBusy,
        Bucket::AccelStarved,
        Bucket::QueueWait,
        Bucket::DeviceIdle,
    ];

    /// Stable snake_case name (used in JSON and event names).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Bucket::SimtBusy => "simt_busy",
            Bucket::SimtStallMem => "simt_stall_mem",
            Bucket::SimtStallOther => "simt_stall_other",
            Bucket::AccelBusy => "accel_busy",
            Bucket::AccelStarved => "accel_starved",
            Bucket::QueueWait => "queue_wait",
            Bucket::DeviceIdle => "device_idle",
        }
    }
}

/// A cycle-attribution histogram: how many simulated cycles landed in
/// each [`Bucket`]. Kept always-on inside `SimStats` (it is seven `u64`
/// adds per event-loop iteration), independent of whether a trace sink is
/// attached, so the partition invariant
/// `attribution.total() == stats.cycles` can be debug-asserted on every
/// launch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleAttribution {
    /// Cycles with at least one SIMT instruction issued.
    pub simt_busy: u64,
    /// Cycles stalled on outstanding memory loads.
    pub simt_stall_mem: u64,
    /// Cycles stalled on non-memory latency.
    pub simt_stall_other: u64,
    /// Landing cycles where only the accelerator had work.
    pub accel_busy: u64,
    /// Skipped cycles spent waiting for a busy accelerator.
    pub accel_starved: u64,
    /// Serving: device free, queue non-empty.
    pub queue_wait: u64,
    /// Serving: device free, queue empty.
    pub device_idle: u64,
}

impl CycleAttribution {
    /// Adds `cycles` to `bucket`.
    pub fn add(&mut self, bucket: Bucket, cycles: u64) {
        *self.slot(bucket) += cycles;
    }

    /// Reads one bucket.
    #[must_use]
    pub fn get(&self, bucket: Bucket) -> u64 {
        match bucket {
            Bucket::SimtBusy => self.simt_busy,
            Bucket::SimtStallMem => self.simt_stall_mem,
            Bucket::SimtStallOther => self.simt_stall_other,
            Bucket::AccelBusy => self.accel_busy,
            Bucket::AccelStarved => self.accel_starved,
            Bucket::QueueWait => self.queue_wait,
            Bucket::DeviceIdle => self.device_idle,
        }
    }

    fn slot(&mut self, bucket: Bucket) -> &mut u64 {
        match bucket {
            Bucket::SimtBusy => &mut self.simt_busy,
            Bucket::SimtStallMem => &mut self.simt_stall_mem,
            Bucket::SimtStallOther => &mut self.simt_stall_other,
            Bucket::AccelBusy => &mut self.accel_busy,
            Bucket::AccelStarved => &mut self.accel_starved,
            Bucket::QueueWait => &mut self.queue_wait,
            Bucket::DeviceIdle => &mut self.device_idle,
        }
    }

    /// Sum over all buckets. For a single `Gpu::launch` this equals
    /// `SimStats::cycles` exactly (the partition invariant).
    #[must_use]
    pub fn total(&self) -> u64 {
        Bucket::ALL.iter().map(|&b| self.get(b)).sum()
    }

    /// Accumulates another histogram into this one (used when summing
    /// per-batch stats).
    pub fn merge(&mut self, other: &CycleAttribution) {
        for b in Bucket::ALL {
            self.add(b, other.get(b));
        }
    }
}

/// One field per bucket in [`Bucket::ALL`] order, then `total`.
impl Json for CycleAttribution {
    fn write_json(&self, out: &mut String) {
        let mut obj = Object::new(out, COMPACT);
        for b in Bucket::ALL {
            obj.field(b.name(), &self.get(b));
        }
        obj.field("total", &self.total());
        obj.end();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attribution_partition_bookkeeping() {
        let mut a = CycleAttribution::default();
        a.add(Bucket::SimtBusy, 10);
        a.add(Bucket::AccelStarved, 5);
        a.add(Bucket::SimtBusy, 1);
        assert_eq!(a.get(Bucket::SimtBusy), 11);
        assert_eq!(a.total(), 16);
        let mut b = CycleAttribution::default();
        b.add(Bucket::QueueWait, 4);
        b.merge(&a);
        assert_eq!(b.total(), 20);
        let json = crate::json::to_string(&b);
        assert!(json.starts_with("{\"simt_busy\":11,"));
        assert!(json.ends_with("\"total\":20}"));
        for bucket in Bucket::ALL {
            assert!(json.contains(&format!("\"{}\":", bucket.name())));
        }
    }

    #[test]
    fn track_identity_is_stable() {
        assert_eq!(Track::Sm(3).category(), "sm");
        assert_eq!(Track::Sm(3).index(), 3);
        assert_eq!(Track::Device.index(), 0);
        // Category ids are distinct.
        let mut ids: Vec<u32> = [
            Track::Gpu,
            Track::Sm(0),
            Track::Accel(0),
            Track::Mem(0),
            Track::Dram(0),
            Track::Program(0),
            Track::Device,
            Track::Queue,
        ]
        .iter()
        .map(|t| t.category_id())
        .collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 8);
    }
}
