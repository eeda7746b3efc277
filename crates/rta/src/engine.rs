//! The RTA traversal engine: warp buffer, per-ray state machines, and the
//! hardware memory scheduler.
//!
//! This models the autonomous part of the RTA (Fig. 4a of the paper): once a
//! warp's `traceRay`/`traverseTreeTTA` is accepted into the warp buffer,
//! every ray runs an independent while-while state machine —
//!
//! ```text
//! pop node → request node data → (memory) → decode + intersection test
//!          → push children / record hit → pop node → ... → write back
//! ```
//!
//! — with a memory scheduler that issues **one node request per cycle** and
//! merges requests to the same address, and intersection tests dispatched to
//! a pluggable [`IntersectionBackend`]. *What* a node test means (Ray-Box,
//! Query-Key, a TTA+ μop program...) is supplied by a
//! [`TraversalSemantics`] implementation per configured pipeline, which is
//! how the same engine serves the baseline RTA, TTA and TTA+.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

use gpu_sim::accel::{AccelCtx, Accelerator, TraversalRequest};
use gpu_sim::mem::GlobalMemory;
use gpu_sim::snapshot::BagError;

use crate::config::RtaConfig;
use crate::units::{IntersectionBackend, TestKind, UnitStats};

/// Number of 32-bit ray registers in a warp-buffer entry (Fig. 7: RR0–RR15).
pub const RAY_REGS: usize = 16;

/// Per-ray traversal state (one warp-buffer row).
#[derive(Debug, Clone)]
pub struct RayState {
    /// Byte address of this ray's query record in global memory.
    pub query_addr: u64,
    /// Root node byte address.
    pub root_addr: u64,
    /// Traversal stack of node byte addresses. The *last* entry is popped
    /// next, so semantics should push the preferred-next child last.
    pub stack: Vec<u64>,
    /// The 16 ray registers (RR0–RR15) holding decoded query data and
    /// intermediate results, with the programmer-defined layout.
    pub regs: [u32; RAY_REGS],
    /// Step phase within the current node (0 = just fetched; incremented
    /// after each extra [`StepAction::Fetch`] round).
    pub phase: u32,
    /// Nodes processed by this ray so far.
    pub nodes_visited: u64,
    /// Node currently being processed.
    pub current_node: u64,
}

impl RayState {
    /// Reads ray register `i` as `f32`.
    pub fn reg_f32(&self, i: usize) -> f32 {
        f32::from_bits(self.regs[i])
    }

    /// Writes ray register `i` as `f32`.
    pub fn set_reg_f32(&mut self, i: usize, v: f32) {
        self.regs[i] = v.to_bits();
    }
}

/// What to do after decoding a node's data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepAction {
    /// Issue extra fetches (e.g. leaf primitive data) as `(addr, bytes)`
    /// pairs, then call `step` again with `phase + 1`.
    Fetch(Vec<(u64, u32)>),
    /// Run intersection tests, then push `children` and continue (or
    /// `terminate` the whole traversal). One backend dispatch per entry in
    /// `tests`; the node completes when the slowest test retires.
    Test {
        /// Tests to dispatch (e.g. one `RayTriangle` per leaf primitive).
        tests: Vec<TestKind>,
        /// Node addresses to push (last = visited next).
        children: Vec<u64>,
        /// Abandon the rest of the traversal (early termination).
        terminate: bool,
    },
    /// Push children without using an intersection unit.
    Advance {
        /// Node addresses to push (last = visited next).
        children: Vec<u64>,
        /// Abandon the rest of the traversal.
        terminate: bool,
    },
}

/// The application-defined meaning of a traversal (one per pipeline id).
///
/// Functional node/primitive data is read directly from [`GlobalMemory`];
/// the engine separately charges the *timing* of each fetch.
pub trait TraversalSemantics: std::fmt::Debug {
    /// Decodes the query record into the ray registers and pushes the
    /// initial node(s) (normally just `ray.root_addr`).
    fn init(&self, gmem: &GlobalMemory, ray: &mut RayState);

    /// Processes the node at `ray.current_node` (its data has arrived).
    fn step(&self, gmem: &GlobalMemory, ray: &mut RayState) -> StepAction;

    /// Writes results back to the query record; returns bytes written.
    fn finish(&self, gmem: &mut GlobalMemory, ray: &RayState) -> u32;

    /// Child node addresses worth prefetching once this node's data has
    /// arrived (used only when the engine's `prefetch_children` is set).
    /// Default: no hints.
    fn prefetch_hints(&self, gmem: &GlobalMemory, node_addr: u64) -> Vec<u64> {
        let _ = (gmem, node_addr);
        Vec::new()
    }
}

/// Aggregate engine statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Warps accepted into the warp buffer.
    pub warps_accepted: u64,
    /// Rays fully traversed.
    pub rays_completed: u64,
    /// Node fetch requests issued to the memory system.
    pub node_fetches: u64,
    /// Fetches merged with an in-flight request for the same address.
    pub fetch_merges: u64,
    /// Total nodes processed (intersection-test invocation points).
    pub nodes_processed: u64,
    /// Warp-buffer accesses (ray-register reads/writes around each test).
    pub warp_buffer_accesses: u64,
    /// Speculative child prefetches issued.
    pub prefetches: u64,
    /// Cycles with at least one ray resident (accelerator active time).
    pub busy_cycles: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EventKind {
    FetchDone,
    TestDone,
}

#[derive(Debug)]
struct RayOp {
    state: RayState,
    token: u64,
    pipeline: u16,
    initialized: bool,
    outstanding_fetches: usize,
    fetch_done: u64,
    /// Pending outcome to apply when the scheduled tests retire.
    pending_children: Vec<u64>,
    pending_terminate: bool,
}

#[derive(Debug)]
struct FetchReq {
    ray: usize,
    addr: u64,
    bytes: u32,
    request_time: u64,
    /// Node fetches are deduplicated; query-record fetches are not.
    dedupe: bool,
}

/// The traversal engine; implements [`Accelerator`] so it plugs into a
/// [`gpu_sim::Gpu`] one-per-SM.
#[derive(Debug)]
pub struct TraversalEngine {
    cfg: RtaConfig,
    backend: Box<dyn IntersectionBackend>,
    semantics: Vec<Box<dyn TraversalSemantics>>,
    rays: Vec<Option<RayOp>>,
    free_slots: Vec<usize>,
    warp_outstanding: HashMap<u64, usize>,
    fetch_queue: VecDeque<FetchReq>,
    /// Speculative prefetch requests: issued only when no demand fetch is
    /// eligible this cycle.
    prefetch_queue: VecDeque<(u64, u64)>, // (addr, request_time)
    next_issue_slot: u64,
    /// Response-FIFO arbiter: one returned node is decoded per cycle
    /// (the operation arbiter of Fig. 4a).
    next_arbiter_slot: u64,
    inflight: HashMap<u64, u64>,
    events: BinaryHeap<Reverse<(u64, usize, u8)>>,
    completed: Vec<u64>,
    traversals: u64,
    last_busy_from: Option<u64>,
    trace: trace::TraceHandle,
    /// Statistics.
    pub stats: EngineStats,
}

impl TraversalEngine {
    /// Creates an engine with the given backend and per-pipeline semantics.
    ///
    /// # Panics
    ///
    /// Panics if `semantics` is empty.
    pub fn new(
        cfg: RtaConfig,
        backend: Box<dyn IntersectionBackend>,
        semantics: Vec<Box<dyn TraversalSemantics>>,
    ) -> Self {
        cfg.validate();
        assert!(
            !semantics.is_empty(),
            "engine needs at least one traversal pipeline"
        );
        let capacity = cfg.warp_buffer_warps * 32;
        TraversalEngine {
            cfg,
            backend,
            semantics,
            rays: (0..capacity).map(|_| None).collect(),
            free_slots: (0..capacity).rev().collect(),
            warp_outstanding: HashMap::new(),
            fetch_queue: VecDeque::new(),
            prefetch_queue: VecDeque::new(),
            next_issue_slot: 0,
            next_arbiter_slot: 0,
            inflight: HashMap::new(),
            events: BinaryHeap::new(),
            completed: Vec::new(),
            traversals: 0,
            last_busy_from: None,
            trace: trace::TraceHandle::default(),
            stats: EngineStats::default(),
        }
    }

    /// Unit statistics from the backend (Fig. 15 / Fig. 18).
    pub fn unit_stats(&self) -> Vec<(String, UnitStats)> {
        self.backend.unit_stats()
    }

    /// The configured backend (for backend-specific statistics).
    pub fn backend(&self) -> &dyn IntersectionBackend {
        self.backend.as_ref()
    }

    /// Engine configuration.
    pub fn config(&self) -> &RtaConfig {
        &self.cfg
    }

    fn push_event(&mut self, time: u64, ray: usize, kind: EventKind) {
        self.events.push(Reverse((time, ray, kind as u8)));
    }

    /// Schedules a fetch completion through the response-FIFO arbiter,
    /// which decodes at most one returned request per cycle.
    fn push_fetch_done(&mut self, completion: u64, ray: usize) {
        let slot = completion.max(self.next_arbiter_slot);
        self.next_arbiter_slot = slot + 1;
        self.events
            .push(Reverse((slot, ray, EventKind::FetchDone as u8)));
    }

    fn resident_warps(&self) -> usize {
        self.warp_outstanding.len()
    }

    /// Pops the next node for `ray` or finishes the traversal.
    fn advance_ray(&mut self, slot: usize, now: u64, ctx: &mut AccelCtx<'_>) {
        let op = self.rays[slot].as_mut().expect("advancing a live ray");
        if op.pending_terminate {
            op.state.stack.clear();
        }
        match op.state.stack.pop() {
            Some(node) => {
                op.state.current_node = node;
                op.state.phase = 0;
                self.fetch_queue.push_back(FetchReq {
                    ray: slot,
                    addr: node,
                    bytes: self.cfg.node_fetch_bytes,
                    request_time: now,
                    dedupe: true,
                });
                let op = self.rays[slot].as_mut().expect("live ray");
                op.outstanding_fetches = 1;
                op.fetch_done = now;
            }
            None => {
                // Traversal complete: write back through the store path.
                let op = self.rays[slot].as_mut().expect("live ray");
                let pipeline = op.pipeline as usize;
                let token = op.token;
                let written = self.semantics[pipeline].finish(ctx.gmem, &op.state);
                if written > 0 {
                    let addr = op.state.query_addr;
                    let _ = ctx.mem.write(ctx.sm_id, addr, written, now);
                }
                self.stats.warp_buffer_accesses += 1;
                self.stats.rays_completed += 1;
                self.rays[slot] = None;
                self.free_slots.push(slot);
                let left = self
                    .warp_outstanding
                    .get_mut(&token)
                    .expect("warp entry for live ray");
                *left -= 1;
                if *left == 0 {
                    self.warp_outstanding.remove(&token);
                    self.completed.push(token);
                }
            }
        }
    }

    fn handle_fetch_done(&mut self, slot: usize, now: u64, ctx: &mut AccelCtx<'_>) {
        let op = self.rays[slot].as_mut().expect("fetch for a live ray");
        op.outstanding_fetches = op.outstanding_fetches.saturating_sub(1);
        if op.outstanding_fetches > 0 {
            return;
        }
        if !op.initialized {
            op.initialized = true;
            let pipeline = op.pipeline as usize;
            self.semantics[pipeline].init(ctx.gmem, &mut op.state);
            self.stats.warp_buffer_accesses += 1;
            self.advance_ray(slot, now, ctx);
            return;
        }
        // Node (or extra) data arrived: run the semantics step.
        let pipeline = op.pipeline as usize;
        if self.cfg.prefetch_children && op.state.phase == 0 {
            let node = op.state.current_node;
            let hints = self.semantics[pipeline].prefetch_hints(ctx.gmem, node);
            for addr in hints {
                self.prefetch_queue.push_back((addr, now));
            }
        }
        let op = self.rays[slot].as_mut().expect("live ray");
        let action = self.semantics[pipeline].step(ctx.gmem, &mut op.state);
        self.stats.warp_buffer_accesses += 2; // read ray regs + write back
        match action {
            StepAction::Fetch(fetches) => {
                let op = self.rays[slot].as_mut().expect("live ray");
                op.state.phase += 1;
                op.outstanding_fetches = fetches.len();
                if fetches.is_empty() {
                    // Nothing to fetch: treat as immediately complete.
                    op.outstanding_fetches = 1;
                    self.push_event(now, slot, EventKind::FetchDone);
                    return;
                }
                for (addr, bytes) in fetches {
                    self.fetch_queue.push_back(FetchReq {
                        ray: slot,
                        addr,
                        bytes,
                        request_time: now,
                        dedupe: true,
                    });
                }
            }
            StepAction::Test {
                tests,
                children,
                terminate,
            } => {
                self.stats.nodes_processed += 1;
                let mut done = now;
                for kind in tests {
                    let t = self
                        .backend
                        .schedule(kind, now)
                        .unwrap_or_else(|e| panic!("pipeline {pipeline}: {e}"));
                    done = done.max(t);
                }
                let op = self.rays[slot].as_mut().expect("live ray");
                op.state.nodes_visited += 1;
                op.pending_children = children;
                op.pending_terminate = terminate;
                self.push_event(done, slot, EventKind::TestDone);
            }
            StepAction::Advance {
                children,
                terminate,
            } => {
                self.stats.nodes_processed += 1;
                let op = self.rays[slot].as_mut().expect("live ray");
                op.state.nodes_visited += 1;
                op.pending_children = children;
                op.pending_terminate = terminate;
                self.push_event(now, slot, EventKind::TestDone);
            }
        }
    }

    fn handle_test_done(&mut self, slot: usize, now: u64, ctx: &mut AccelCtx<'_>) {
        let op = self.rays[slot].as_mut().expect("test for a live ray");
        let children = std::mem::take(&mut op.pending_children);
        if !op.pending_terminate {
            op.state.stack.extend(children);
        }
        self.advance_ray(slot, now, ctx);
    }

    /// Issues queued fetches, one per cycle, with same-address merging.
    fn issue_fetches(&mut self, now: u64, ctx: &mut AccelCtx<'_>) -> bool {
        let mut progressed = false;
        while let Some(front) = self.fetch_queue.front() {
            let earliest = front.request_time.max(self.next_issue_slot);
            if earliest > now {
                break;
            }
            let req = self.fetch_queue.pop_front().expect("non-empty queue");
            self.next_issue_slot = earliest + 1;
            // Merge with an in-flight fetch of the same node.
            if req.dedupe {
                if let Some(&done) = self.inflight.get(&req.addr) {
                    if done > earliest {
                        self.stats.fetch_merges += 1;
                        let op = self.rays[req.ray].as_mut().expect("live ray");
                        op.fetch_done = op.fetch_done.max(done);
                        self.push_fetch_done(done, req.ray);
                        progressed = true;
                        continue;
                    }
                }
            }
            self.stats.node_fetches += 1;
            let done = if ctx.perfect_node_fetch {
                earliest + 1
            } else {
                ctx.mem.read(ctx.sm_id, req.addr, req.bytes, earliest)
            };
            if req.dedupe {
                self.inflight.insert(req.addr, done);
            }
            let op = self.rays[req.ray].as_mut().expect("live ray");
            op.fetch_done = op.fetch_done.max(done);
            self.push_fetch_done(done, req.ray);
            progressed = true;
        }
        // Speculative prefetches use leftover scheduler slots.
        while self.fetch_queue.is_empty() {
            let Some(&(addr, req_time)) = self.prefetch_queue.front() else {
                break;
            };
            let earliest = req_time.max(self.next_issue_slot);
            if earliest > now {
                break;
            }
            self.prefetch_queue.pop_front();
            if let Some(&done) = self.inflight.get(&addr) {
                if done > earliest {
                    continue; // already on the way
                }
            }
            self.next_issue_slot = earliest + 1;
            let done = if ctx.perfect_node_fetch {
                earliest + 1
            } else {
                ctx.mem
                    .read(ctx.sm_id, addr, self.cfg.node_fetch_bytes, earliest)
            };
            self.inflight.insert(addr, done);
            self.stats.prefetches += 1;
            progressed = true;
        }
        progressed
    }
}

impl Accelerator for TraversalEngine {
    fn can_accept(&self) -> bool {
        self.resident_warps() < self.cfg.warp_buffer_warps
    }

    fn try_submit(&mut self, req: TraversalRequest, now: u64) -> Result<(), TraversalRequest> {
        if self.resident_warps() >= self.cfg.warp_buffer_warps {
            return Err(req);
        }
        assert!(
            (req.pipeline as usize) < self.semantics.len(),
            "pipeline {} is not configured",
            req.pipeline
        );
        assert!(
            self.free_slots.len() >= req.lanes.len(),
            "ray slots exhausted (warp accounting bug)"
        );
        self.traversals += 1;
        self.stats.warps_accepted += 1;
        self.warp_outstanding.insert(req.token, req.lanes.len());
        if self.last_busy_from.is_none() {
            self.last_busy_from = Some(now);
        }
        for lane in &req.lanes {
            let slot = self.free_slots.pop().expect("checked capacity");
            self.rays[slot] = Some(RayOp {
                state: RayState {
                    query_addr: lane.query_addr,
                    root_addr: lane.root_addr,
                    stack: Vec::with_capacity(8),
                    regs: [0; RAY_REGS],
                    phase: 0,
                    nodes_visited: 0,
                    current_node: 0,
                },
                token: req.token,
                pipeline: req.pipeline,
                initialized: false,
                outstanding_fetches: 1,
                fetch_done: now,
                pending_children: Vec::new(),
                pending_terminate: false,
            });
            // The core's ray registers are written into the warp buffer at
            // submit time (no memory traffic).
            self.push_event(now + self.cfg.submit_latency, slot, EventKind::FetchDone);
        }
        Ok(())
    }

    fn tick(&mut self, now: u64, ctx: &mut AccelCtx<'_>) {
        loop {
            let mut progressed = self.issue_fetches(now, ctx);
            while let Some(&Reverse((t, slot, kind))) = self.events.peek() {
                if t > now {
                    break;
                }
                self.events.pop();
                progressed = true;
                if kind == EventKind::FetchDone as u8 {
                    self.handle_fetch_done(slot, now.max(t), ctx);
                } else {
                    self.handle_test_done(slot, now.max(t), ctx);
                }
            }
            if !progressed {
                break;
            }
        }
        // Busy-cycle accounting: close the interval when the engine drains.
        // The trace span covers the identical interval, so trace-derived
        // busy cycles always equal `EngineStats::busy_cycles`.
        if self.warp_outstanding.is_empty() {
            if let Some(from) = self.last_busy_from.take() {
                self.stats.busy_cycles += now.saturating_sub(from);
                if now > from {
                    self.trace
                        .span(trace::Track::Accel(ctx.sm_id as u32), "busy", from, now);
                }
            }
        }
    }

    fn drain_completed(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.completed)
    }

    fn next_event(&self, now: u64) -> Option<u64> {
        let ev = self.events.peek().map(|&Reverse((t, _, _))| t.max(now + 1));
        let fq = self
            .fetch_queue
            .front()
            .map(|f| f.request_time.max(self.next_issue_slot).max(now + 1));
        match (ev, fq) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    fn busy(&self) -> bool {
        !self.warp_outstanding.is_empty() || !self.completed.is_empty()
    }

    fn traverse_instructions(&self) -> u64 {
        self.traversals
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn set_trace(&mut self, trace: trace::TraceHandle) {
        self.backend.set_trace(trace.clone());
        self.trace = trace;
    }

    // What persists across launches: the free-slot order (its pop order
    // decides future slot ids, which break event-queue ties), the in-flight
    // fetch map and speculative prefetch queue (late completions merge
    // with future fetches), the issue/arbiter stamps, and all cumulative
    // statistics.
    gpu_sim::snap_fields! {
        fn export_state / import_state, before export assert_quiescent,
            after import check_free_slots;
        free_slots,
        inflight,
        prefetch_queue,
        next_issue_slot,
        next_arbiter_slot,
        traversals,
        stats,
        backend,
    }
}

impl TraversalEngine {
    /// Quiescent-point invariants: no resident rays, no queued work.
    fn assert_quiescent(&self) {
        assert!(
            self.warp_outstanding.is_empty()
                && self.completed.is_empty()
                && self.events.is_empty()
                && self.fetch_queue.is_empty()
                && self.rays.iter().all(Option::is_none)
                && self.last_busy_from.is_none(),
            "engine snapshots are taken only at quiescent points"
        );
    }

    /// A quiescent engine has every ray slot free.
    fn check_free_slots(&self) -> Result<(), BagError> {
        let n = self.rays.len();
        if self.free_slots.len() != n || self.free_slots.iter().any(|&s| s >= n) {
            return Err(BagError::Mismatch(format!(
                "snapshot has {} ray slots, host has {n}",
                self.free_slots.len()
            )));
        }
        Ok(())
    }
}

gpu_sim::snap_row! {
    EngineStats {
        warps_accepted,
        rays_completed,
        node_fetches,
        fetch_merges,
        nodes_processed,
        warp_buffer_accesses,
        prefetches,
        busy_cycles,
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RtaConfig;
    use crate::units::FixedFunctionBackend;
    use gpu_sim::accel::{AccelCtx, LaneTraversal};
    use gpu_sim::config::GpuConfig;
    use gpu_sim::mem::MemorySystem;

    /// Semantics for a synthetic unary chain: node word 1 holds the next
    /// node address (0 = stop); every node runs one Ray-Box test.
    #[derive(Debug)]
    struct ChainSemantics;

    impl TraversalSemantics for ChainSemantics {
        fn init(&self, _gmem: &GlobalMemory, ray: &mut RayState) {
            ray.stack.push(ray.root_addr);
        }

        fn step(&self, gmem: &GlobalMemory, ray: &mut RayState) -> StepAction {
            let next = gmem.read_u32(ray.current_node + 4) as u64;
            let children = if next != 0 { vec![next] } else { Vec::new() };
            StepAction::Test {
                tests: vec![TestKind::RayBox],
                children,
                terminate: false,
            }
        }

        fn finish(&self, gmem: &mut GlobalMemory, ray: &RayState) -> u32 {
            gmem.write_u32(ray.query_addr, ray.nodes_visited as u32);
            4
        }
    }

    fn harness() -> (MemorySystem, GlobalMemory, TraversalEngine) {
        let gcfg = GpuConfig::small_test();
        let mem = MemorySystem::new(&gcfg.mem, 1, false);
        let mut gmem = GlobalMemory::new(1 << 20);
        // A 5-node chain at 0x1000, 0x1040, ...
        for i in 0..5u64 {
            let addr = 0x1000 + i * 64;
            let next = if i < 4 { addr + 64 } else { 0 };
            gmem.write_u32(addr + 4, next as u32);
        }
        let cfg = RtaConfig::baseline();
        let backend = Box::new(FixedFunctionBackend::new(&cfg));
        let engine = TraversalEngine::new(cfg, backend, vec![Box::new(ChainSemantics)]);
        (mem, gmem, engine)
    }

    fn drive(engine: &mut TraversalEngine, mem: &mut MemorySystem, gmem: &mut GlobalMemory) -> u64 {
        let mut now = 0;
        while engine.busy() {
            let mut ctx = AccelCtx {
                mem,
                gmem,
                sm_id: 0,
                perfect_node_fetch: false,
            };
            engine.tick(now, &mut ctx);
            let _ = engine.drain_completed();
            now = engine.next_event(now).unwrap_or(now + 1).max(now + 1);
            assert!(now < 1_000_000, "engine hung");
        }
        now
    }

    fn one_lane(token: u64, query: u64) -> TraversalRequest {
        TraversalRequest {
            token,
            pipeline: 0,
            lanes: vec![LaneTraversal {
                lane: 0,
                query_addr: query,
                root_addr: 0x1000,
            }],
        }
    }

    #[test]
    fn chain_traversal_visits_every_node() {
        let (mut mem, mut gmem, mut engine) = harness();
        engine.try_submit(one_lane(7, 0x100), 0).unwrap();
        drive(&mut engine, &mut mem, &mut gmem);
        assert_eq!(gmem.read_u32(0x100), 5, "all five chain nodes visited");
        assert_eq!(engine.stats.rays_completed, 1);
        assert_eq!(engine.stats.nodes_processed, 5);
        assert_eq!(engine.stats.node_fetches, 5);
    }

    #[test]
    fn warp_buffer_rejects_when_full() {
        let (_, _, mut engine) = harness();
        for t in 0..4 {
            engine.try_submit(one_lane(t, 0x100 + t * 16), 0).unwrap();
        }
        // Fifth warp bounces (4-warp buffer).
        let rejected = engine.try_submit(one_lane(99, 0x200), 0);
        assert!(rejected.is_err());
        let back = rejected.unwrap_err();
        assert_eq!(back.token, 99, "request is returned intact");
    }

    #[test]
    fn same_node_fetches_merge() {
        let (mut mem, mut gmem, mut engine) = harness();
        // 32 rays all walking the same chain: node fetches dedupe.
        let lanes: Vec<LaneTraversal> = (0..32)
            .map(|l| LaneTraversal {
                lane: l as u8,
                query_addr: 0x100 + l * 16,
                root_addr: 0x1000,
            })
            .collect();
        engine
            .try_submit(
                TraversalRequest {
                    token: 1,
                    pipeline: 0,
                    lanes,
                },
                0,
            )
            .unwrap();
        drive(&mut engine, &mut mem, &mut gmem);
        assert_eq!(engine.stats.rays_completed, 32);
        assert!(
            engine.stats.fetch_merges > engine.stats.node_fetches,
            "most fetches should merge ({} merges vs {} fetches)",
            engine.stats.fetch_merges,
            engine.stats.node_fetches
        );
    }

    #[test]
    fn arbiter_serializes_node_decodes() {
        let (mut mem, mut gmem, mut engine) = harness();
        let lanes: Vec<LaneTraversal> = (0..32)
            .map(|l| LaneTraversal {
                lane: l as u8,
                query_addr: 0x100 + l * 16,
                root_addr: 0x1000,
            })
            .collect();
        engine
            .try_submit(
                TraversalRequest {
                    token: 1,
                    pipeline: 0,
                    lanes,
                },
                0,
            )
            .unwrap();
        let end = drive(&mut engine, &mut mem, &mut gmem);
        // 32 rays x 5 nodes = 160 decodes at 1/cycle minimum.
        assert!(
            end >= 160,
            "response FIFO must serialise decodes (end {end})"
        );
    }

    #[test]
    fn completion_token_reported_once() {
        let (mut mem, mut gmem, mut engine) = harness();
        engine.try_submit(one_lane(42, 0x100), 0).unwrap();
        let mut tokens = Vec::new();
        let mut now = 0;
        while engine.busy() {
            let mut ctx = AccelCtx {
                mem: &mut mem,
                gmem: &mut gmem,
                sm_id: 0,
                perfect_node_fetch: false,
            };
            engine.tick(now, &mut ctx);
            tokens.extend(engine.drain_completed());
            now = engine.next_event(now).unwrap_or(now + 1).max(now + 1);
        }
        assert_eq!(tokens, vec![42]);
    }

    #[test]
    fn engine_snapshot_roundtrips_and_replays() {
        // Drain one warp, snapshot, restore onto a fresh engine, then run
        // a second warp on both: identical statistics and completion time.
        let (mut mem, mut gmem, mut engine) = harness();
        engine.try_submit(one_lane(7, 0x100), 0).unwrap();
        let t = drive(&mut engine, &mut mem, &mut gmem);
        let snap = engine.export_state();

        let (_, _, mut fresh) = harness();
        fresh.import_state(&snap).expect("snapshot fits");
        assert_eq!(fresh.export_state(), snap, "export/import is lossless");
        assert_eq!(fresh.stats, engine.stats);
        assert_eq!(fresh.traverse_instructions(), 1);

        // Both engines continue from the same point. The second warp's
        // ray-slot assignment and unit stamps depend on the restored state.
        let mut gmem2 = gmem.clone();
        let mut mem2 = MemorySystem::new(&GpuConfig::small_test().mem, 1, false);
        mem2.import_state(&mem.export_state()).expect("mem fits");
        engine.try_submit(one_lane(8, 0x110), t).unwrap();
        fresh.try_submit(one_lane(8, 0x110), t).unwrap();
        let mut now_a = t;
        let mut now_b = t;
        while engine.busy() || fresh.busy() {
            let mut ctx = AccelCtx {
                mem: &mut mem,
                gmem: &mut gmem,
                sm_id: 0,
                perfect_node_fetch: false,
            };
            engine.tick(now_a, &mut ctx);
            let _ = engine.drain_completed();
            let mut ctx2 = AccelCtx {
                mem: &mut mem2,
                gmem: &mut gmem2,
                sm_id: 0,
                perfect_node_fetch: false,
            };
            fresh.tick(now_b, &mut ctx2);
            let _ = fresh.drain_completed();
            now_a = engine.next_event(now_a).unwrap_or(now_a + 1).max(now_a + 1);
            now_b = fresh.next_event(now_b).unwrap_or(now_b + 1).max(now_b + 1);
            assert!(now_a < 1_000_000, "engine hung");
        }
        assert_eq!(now_a, now_b, "replay must finish at the same cycle");
        assert_eq!(engine.stats, fresh.stats);
        assert_eq!(engine.export_state(), fresh.export_state());
    }

    #[test]
    fn engine_snapshot_rejects_wrong_capacity() {
        let (mut mem, mut gmem, mut engine) = harness();
        engine.try_submit(one_lane(7, 0x100), 0).unwrap();
        drive(&mut engine, &mut mem, &mut gmem);
        let snap = engine.export_state();

        let mut cfg = RtaConfig::baseline();
        cfg.warp_buffer_warps *= 2;
        let backend = Box::new(FixedFunctionBackend::new(&cfg));
        let mut other = TraversalEngine::new(cfg, backend, vec![Box::new(ChainSemantics)]);
        assert!(matches!(
            other.import_state(&snap),
            Err(gpu_sim::snapshot::BagError::Mismatch(_))
        ));
    }

    #[test]
    fn perfect_node_fetch_is_faster() {
        let run = |perfect: bool| {
            let (mut mem, mut gmem, mut engine) = harness();
            engine.try_submit(one_lane(1, 0x100), 0).unwrap();
            let mut now = 0;
            while engine.busy() {
                let mut ctx = AccelCtx {
                    mem: &mut mem,
                    gmem: &mut gmem,
                    sm_id: 0,
                    perfect_node_fetch: perfect,
                };
                engine.tick(now, &mut ctx);
                let _ = engine.drain_completed();
                now = engine.next_event(now).unwrap_or(now + 1).max(now + 1);
            }
            now
        };
        assert!(run(true) < run(false));
    }
}
