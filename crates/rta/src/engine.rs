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
use std::collections::{BinaryHeap, VecDeque};

use gpu_sim::accel::{AccelCtx, Accelerator, TraversalRequest};
use gpu_sim::mem::GlobalMemory;
use gpu_sim::snapshot::BagError;
use gpu_sim::FastMap;

use crate::config::RtaConfig;
use crate::report::AccelReport;
use crate::units::{IntersectionBackend, TestKind};

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
    /// after each [`StepAction::Fetch`] round).
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepAction {
    /// Fetch `bytes` at an address (e.g. leaf primitive data), then call
    /// `step` again with `phase + 1`.
    Fetch(u64, u32),
    /// Run the tests `step` wrote, then continue with the ray's stack, or
    /// `terminate` the whole traversal (early termination), discarding the
    /// stack with any children this step pushed. One backend dispatch per
    /// test; the node completes when the slowest test retires.
    Test {
        /// Abandon the rest of the traversal.
        terminate: bool,
    },
}

/// The application-defined meaning of a traversal (one per pipeline id).
///
/// Functional node/primitive data is read directly from [`GlobalMemory`];
/// the engine separately charges the *timing* of each fetch. The step
/// protocol allocates nothing: `step` writes its tests into the
/// engine-owned `tests` scratch and pushes children straight onto
/// `ray.stack`, and `prefetch_hints` writes into another scratch.
pub trait TraversalSemantics: std::fmt::Debug {
    /// Decodes the query record into the ray registers and pushes the
    /// initial node(s) (normally just `ray.root_addr`).
    fn init(&self, gmem: &GlobalMemory, ray: &mut RayState);

    /// Processes the node at `ray.current_node` (its data has arrived).
    /// Returning [`StepAction::Test`], it has pushed the node's children
    /// onto `ray.stack` (last = visited next) and its tests onto `tests`,
    /// which arrives empty (e.g. one `RayTriangle` per leaf primitive).
    fn step(
        &self,
        gmem: &GlobalMemory,
        ray: &mut RayState,
        tests: &mut Vec<TestKind>,
    ) -> StepAction;

    /// Writes results back to the query record; returns bytes written.
    fn finish(&self, gmem: &mut GlobalMemory, ray: &RayState) -> u32;

    /// Pushes onto `hints` (which arrives empty) the child node addresses
    /// worth prefetching once this node's data has arrived (used only when
    /// the engine's `prefetch_children` is set). Default: no hints.
    fn prefetch_hints(&self, gmem: &GlobalMemory, node_addr: u64, hints: &mut Vec<u64>) {
        let _ = (gmem, node_addr, hints);
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

impl EngineStats {
    /// Adds `other`'s counters to these.
    pub fn absorb(&mut self, other: &EngineStats) {
        self.warps_accepted += other.warps_accepted;
        self.rays_completed += other.rays_completed;
        self.node_fetches += other.node_fetches;
        self.fetch_merges += other.fetch_merges;
        self.nodes_processed += other.nodes_processed;
        self.warp_buffer_accesses += other.warp_buffer_accesses;
        self.prefetches += other.prefetches;
        self.busy_cycles += other.busy_cycles;
    }
}

trace::json_fields! {
    EngineStats {
        warps_accepted, rays_completed, node_fetches, fetch_merges, nodes_processed,
        warp_buffer_accesses, prefetches, busy_cycles,
    };
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
    /// The last step asked to abandon the traversal: the stack is cleared
    /// when its tests retire.
    terminate: bool,
}

#[derive(Debug)]
struct FetchReq {
    ray: usize,
    addr: u64,
    bytes: u32,
    request_time: u64,
}

/// The traversal engine; implements [`Accelerator`] so it plugs into a
/// [`gpu_sim::Gpu`] one-per-SM.
#[derive(Debug)]
pub struct TraversalEngine {
    cfg: RtaConfig,
    backend: Box<dyn IntersectionBackend>,
    semantics: Vec<Box<dyn TraversalSemantics>>,
    rays: Vec<Option<RayOp>>,
    /// Per ray slot, the emptied stack of its last ray, so the next ray in
    /// the slot reuses the allocation.
    spare_stacks: Vec<Vec<u64>>,
    free_slots: Vec<usize>,
    warp_outstanding: FastMap<u64, usize>,
    fetch_queue: VecDeque<FetchReq>,
    /// Speculative prefetch requests: issued only when no demand fetch is
    /// eligible this cycle.
    prefetch_queue: VecDeque<(u64, u64)>, // (addr, request_time)
    next_issue_slot: u64,
    /// Response-FIFO arbiter: one returned node is decoded per cycle
    /// (the operation arbiter of Fig. 4a).
    next_arbiter_slot: u64,
    inflight: FastMap<u64, u64>,
    events: BinaryHeap<Reverse<(u64, usize, u8)>>,
    /// Scratch for the tests of one `step`.
    tests: Vec<TestKind>,
    /// Scratch for one node's prefetch hints.
    hints: Vec<u64>,
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
            spare_stacks: vec![Vec::new(); capacity],
            free_slots: (0..capacity).rev().collect(),
            warp_outstanding: FastMap::default(),
            fetch_queue: VecDeque::new(),
            prefetch_queue: VecDeque::new(),
            next_issue_slot: 0,
            next_arbiter_slot: 0,
            inflight: FastMap::default(),
            events: BinaryHeap::new(),
            tests: Vec::new(),
            hints: Vec::new(),
            completed: Vec::new(),
            traversals: 0,
            last_busy_from: None,
            trace: trace::TraceHandle::default(),
            stats: EngineStats::default(),
        }
    }

    /// This engine's counters together with its backend's unit, program
    /// and shader statistics (Fig. 15 / Fig. 18).
    pub fn report(&self) -> AccelReport {
        AccelReport {
            engine: self.stats.clone(),
            units: self.backend.unit_stats(),
            programs: self.backend.program_stats(),
            shader_lane_instructions: self.backend.shader_lane_instructions(),
            traversals: self.traversals,
        }
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
        if op.terminate {
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
                });
            }
            None => {
                // Traversal complete: write back through the store path.
                let pipeline = op.pipeline as usize;
                let token = op.token;
                let written = self.semantics[pipeline].finish(ctx.gmem, &op.state);
                if written > 0 {
                    let addr = op.state.query_addr;
                    let _ = ctx.mem.write(ctx.sm_id, addr, written, now);
                }
                self.stats.warp_buffer_accesses += 1;
                self.stats.rays_completed += 1;
                let op = self.rays[slot].take().expect("live ray");
                self.spare_stacks[slot] = op.state.stack;
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
        let semantics = &self.semantics[pipeline];
        if self.cfg.prefetch_children && op.state.phase == 0 {
            self.hints.clear();
            semantics.prefetch_hints(ctx.gmem, op.state.current_node, &mut self.hints);
            self.prefetch_queue
                .extend(self.hints.iter().map(|&addr| (addr, now)));
        }
        self.tests.clear();
        let action = semantics.step(ctx.gmem, &mut op.state, &mut self.tests);
        self.stats.warp_buffer_accesses += 2; // read ray regs + write back
        match action {
            StepAction::Fetch(addr, bytes) => {
                op.state.phase += 1;
                self.fetch_queue.push_back(FetchReq {
                    ray: slot,
                    addr,
                    bytes,
                    request_time: now,
                });
            }
            StepAction::Test { terminate } => {
                self.stats.nodes_processed += 1;
                op.state.nodes_visited += 1;
                op.terminate = terminate;
                let mut done = now;
                for &kind in &self.tests {
                    let t = self
                        .backend
                        .schedule(kind, now)
                        .unwrap_or_else(|e| panic!("pipeline {pipeline}: {e}"));
                    done = done.max(t);
                }
                self.push_event(done, slot, EventKind::TestDone);
            }
        }
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
            if let Some(&done) = self.inflight.get(&req.addr) {
                if done > earliest {
                    self.stats.fetch_merges += 1;
                    self.push_fetch_done(done, req.ray);
                    progressed = true;
                    continue;
                }
            }
            self.stats.node_fetches += 1;
            let done = if ctx.perfect_node_fetch {
                earliest + 1
            } else {
                ctx.mem.read(ctx.sm_id, req.addr, req.bytes, earliest)
            };
            self.inflight.insert(req.addr, done);
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
                    stack: std::mem::take(&mut self.spare_stacks[slot]),
                    regs: [0; RAY_REGS],
                    phase: 0,
                    nodes_visited: 0,
                    current_node: 0,
                },
                token: req.token,
                pipeline: req.pipeline,
                initialized: false,
                terminate: false,
            });
            // The core's ray registers are written into the warp buffer at
            // submit time (no memory traffic).
            self.push_event(now + self.cfg.submit_latency, slot, EventKind::FetchDone);
        }
        Ok(())
    }

    fn tick(&mut self, now: u64, ctx: &mut AccelCtx<'_>) -> bool {
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
                    // The node's tests retired; its children are on the stack.
                    self.advance_ray(slot, now.max(t), ctx);
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
                // Every later merge check compares a completion against
                // `max(request_time, next_issue_slot)`, and the issue slot
                // only grows, so a fetch done by then can never merge
                // again: dropping it bounds the map by what is in flight.
                let horizon = self.next_issue_slot;
                self.inflight.retain(|_, done| *done > horizon);
            }
        }
        // A drained engine still issues its leftover speculative prefetches
        // on later ticks, and their order among other SMs' reads is
        // observable.
        !self.warp_outstanding.is_empty() || !self.prefetch_queue.is_empty()
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
    /// node address (0 = stop); every node runs one Ray-Box test. The
    /// traversal terminates at the node whose address is the field (0 =
    /// never), after pushing that node's successor.
    #[derive(Debug)]
    struct ChainSemantics(u64);

    impl TraversalSemantics for ChainSemantics {
        fn init(&self, _gmem: &GlobalMemory, ray: &mut RayState) {
            ray.stack.push(ray.root_addr);
        }

        fn step(
            &self,
            gmem: &GlobalMemory,
            ray: &mut RayState,
            tests: &mut Vec<TestKind>,
        ) -> StepAction {
            let next = gmem.read_u32(ray.current_node + 4) as u64;
            if next != 0 {
                ray.stack.push(next);
            }
            tests.push(TestKind::RayBox);
            StepAction::Test {
                terminate: ray.current_node == self.0,
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
        let engine = TraversalEngine::new(cfg, backend, vec![Box::new(ChainSemantics(0))]);
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
    fn terminate_discards_children_pushed_in_the_same_step() {
        let (mut mem, mut gmem, _) = harness();
        let cfg = RtaConfig::baseline();
        let backend = Box::new(FixedFunctionBackend::new(&cfg));
        // Terminate at the third node, which pushes the fourth.
        let mut engine = TraversalEngine::new(cfg, backend, vec![Box::new(ChainSemantics(0x1080))]);
        engine.try_submit(one_lane(7, 0x100), 0).unwrap();
        drive(&mut engine, &mut mem, &mut gmem);
        assert_eq!(
            gmem.read_u32(0x100),
            3,
            "nodes after the terminating one skipped"
        );
        // The second ray reuses the first one's slot and stack.
        engine.try_submit(one_lane(8, 0x110), 0).unwrap();
        drive(&mut engine, &mut mem, &mut gmem);
        assert_eq!(gmem.read_u32(0x110), 3, "the reused stack starts empty");
        assert_eq!(engine.stats.rays_completed, 2);
        assert_eq!(engine.stats.nodes_processed, 6);
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
        let mut other = TraversalEngine::new(cfg, backend, vec![Box::new(ChainSemantics(0))]);
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
