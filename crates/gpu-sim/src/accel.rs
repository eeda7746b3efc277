//! The accelerator attachment point.
//!
//! One accelerator instance sits next to each SM (the paper: "there is
//! usually one RTA per Streaming Multiprocessor"). When a warp issues
//! [`crate::isa::Instr::Traverse`], the SM hands the active lanes' traversal
//! descriptors to its accelerator; the warp sleeps until the accelerator
//! reports the token complete. The baseline RTA (`tta-rta`) and the TTA/TTA+
//! models (`tta`) implement this trait.

use crate::mem::{GlobalMemory, MemorySystem};
use crate::snapshot::{BagError, Snap, SnapValue, StateBag};

/// One lane's traversal descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneTraversal {
    /// Lane index within the warp (0–31).
    pub lane: u8,
    /// Byte address of the lane's query record (ray, key, point...).
    pub query_addr: u64,
    /// Byte address of the tree root node.
    pub root_addr: u64,
}

/// A warp-granularity traversal request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraversalRequest {
    /// Opaque completion token (the SM encodes its warp slot here).
    pub token: u64,
    /// Which configured traversal pipeline to run.
    pub pipeline: u16,
    /// Active lanes; never empty.
    pub lanes: Vec<LaneTraversal>,
}

/// Callback surface an accelerator uses during its tick.
#[derive(Debug)]
pub struct AccelCtx<'a> {
    /// Timing model (issue node fetches through the SM's L1).
    pub mem: &'a mut MemorySystem,
    /// Functional memory (node contents, result writeback).
    pub gmem: &'a mut GlobalMemory,
    /// The SM this accelerator is attached to.
    pub sm_id: usize,
    /// Additional latency before a node fetch is issued; `0` normally,
    /// forced to complete instantly under the Fig. 17 "Perf. RT" limit.
    pub perfect_node_fetch: bool,
}

/// A per-SM traversal accelerator (RTA, TTA or TTA+).
pub trait Accelerator: std::fmt::Debug {
    /// Offers a traversal request. Returns the request back when the warp
    /// buffer is full (the SM will retry next cycle).
    fn try_submit(&mut self, req: TraversalRequest, now: u64) -> Result<(), TraversalRequest>;

    /// `true` when `try_submit` would accept a new warp right now. The SM
    /// probes this before building a request so a full warp buffer costs a
    /// comparison per retry cycle instead of a lane-descriptor allocation.
    fn can_accept(&self) -> bool {
        true
    }

    /// Advances internal state up to and including cycle `now`. The Gpu may
    /// skip cycles; implementations must process everything due `<= now`.
    fn tick(&mut self, now: u64, ctx: &mut AccelCtx<'_>);

    /// Drains tokens of completed warps.
    fn drain_completed(&mut self) -> Vec<u64>;

    /// The next cycle at which internal progress can happen, or `None` when
    /// idle. Used by the Gpu's fast-forward.
    fn next_event(&self, now: u64) -> Option<u64>;

    /// `true` while any traversal is in flight.
    fn busy(&self) -> bool;

    /// Number of accelerator "instructions" executed so far — one per
    /// offloaded traversal — for the Fig. 20 instruction breakdown.
    fn traverse_instructions(&self) -> u64;

    /// Downcast support so callers can harvest implementation-specific
    /// statistics (unit occupancy, warp-buffer accesses...) after a run.
    fn as_any(&self) -> &dyn std::any::Any;

    /// Installs a trace handle. The default ignores it; implementations
    /// that emit busy spans or fetch events override this.
    fn set_trace(&mut self, trace: trace::TraceHandle) {
        let _ = trace;
    }

    /// Exports the accelerator's persistent cross-launch state (snapshot
    /// support). Called only at a quiescent point — between kernel
    /// launches, when [`Accelerator::busy`] is false. The default exports
    /// nothing, which is correct for stateless accelerators.
    fn export_state(&self) -> StateBag {
        StateBag::new()
    }

    /// Restores state exported by [`Accelerator::export_state`] onto an
    /// identically-configured accelerator.
    ///
    /// # Errors
    ///
    /// [`BagError`] when the bag does not fit this accelerator.
    fn import_state(&mut self, bag: &StateBag) -> Result<(), BagError> {
        let _ = bag;
        Ok(())
    }
}

/// A trivial accelerator that completes every traversal after a fixed
/// latency without doing anything. Useful for SM-level unit tests.
#[derive(Debug, Default)]
pub struct NullAccelerator {
    /// Fixed per-request latency in cycles.
    pub latency: u64,
    inflight: Vec<(u64, u64)>, // (completion cycle, token)
    done: Vec<u64>,
    submitted: u64,
}

impl NullAccelerator {
    /// Creates a null accelerator with the given fixed latency.
    pub fn new(latency: u64) -> Self {
        NullAccelerator {
            latency,
            ..Default::default()
        }
    }
}

impl Accelerator for NullAccelerator {
    fn try_submit(&mut self, req: TraversalRequest, now: u64) -> Result<(), TraversalRequest> {
        self.inflight.push((now + self.latency, req.token));
        self.submitted += 1;
        Ok(())
    }

    fn tick(&mut self, now: u64, _ctx: &mut AccelCtx<'_>) {
        let (ready, rest): (Vec<_>, Vec<_>) = self.inflight.iter().partition(|&&(t, _)| t <= now);
        self.inflight = rest;
        self.done.extend(ready.into_iter().map(|(_, tok)| tok));
    }

    fn drain_completed(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.done)
    }

    fn next_event(&self, _now: u64) -> Option<u64> {
        self.inflight.iter().map(|&(t, _)| t).min()
    }

    fn busy(&self) -> bool {
        !self.inflight.is_empty() || !self.done.is_empty()
    }

    fn traverse_instructions(&self) -> u64 {
        self.submitted
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    crate::snap_fields! {
        fn export_state / import_state;
        submitted,
    }
}

/// An SM's accelerator slot: an empty bag when nothing is attached.
impl Snap for Option<Box<dyn Accelerator>> {
    fn save(&self) -> SnapValue {
        SnapValue::Bag(
            self.as_deref()
                .map_or_else(StateBag::new, |a| a.export_state()),
        )
    }

    fn load(&mut self, v: &SnapValue, name: &str) -> Result<(), BagError> {
        let bag = v.as_bag(name)?;
        match self.as_deref_mut() {
            Some(acc) => acc.import_state(bag),
            None if bag.entries().is_empty() => Ok(()),
            None => Err(BagError::Mismatch(format!(
                "snapshot carries `{name}` state for an SM with no accelerator attached"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GpuConfig;

    #[test]
    fn null_accelerator_completes_after_latency() {
        let cfg = GpuConfig::small_test();
        let mut mem = MemorySystem::new(&cfg.mem, 1, false);
        let mut gmem = GlobalMemory::new(1024);
        let mut acc = NullAccelerator::new(10);
        let req = TraversalRequest {
            token: 7,
            pipeline: 0,
            lanes: vec![LaneTraversal {
                lane: 0,
                query_addr: 0,
                root_addr: 0,
            }],
        };
        acc.try_submit(req, 100).unwrap();
        assert!(acc.busy());
        assert_eq!(acc.next_event(100), Some(110));
        let mut ctx = AccelCtx {
            mem: &mut mem,
            gmem: &mut gmem,
            sm_id: 0,
            perfect_node_fetch: false,
        };
        acc.tick(105, &mut ctx);
        assert!(acc.drain_completed().is_empty());
        acc.tick(110, &mut ctx);
        assert_eq!(acc.drain_completed(), vec![7]);
        assert!(!acc.busy());
        assert_eq!(acc.traverse_instructions(), 1);
    }
}
