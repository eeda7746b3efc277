//! Streaming multiprocessor: GTO issue, functional execution, coalescing.
//!
//! Each SM issues at most one warp-instruction per cycle, selected
//! greedy-then-oldest (GTO, per Table II): the warp that issued last keeps
//! issuing until it stalls, then the oldest ready warp takes over. Execution
//! is functional-at-issue: register values update immediately while the
//! scoreboard delays dependent issue until the producing unit's latency (or
//! the memory system's computed completion time) has elapsed.
//!
//! Two scheduler implementations share this file (selected by
//! [`SchedulerKind`], schedule-equivalent by construction — see DESIGN.md
//! §12):
//!
//! * **`ReferenceScan`** re-examines every resident warp's scoreboard each
//!   cycle — the original implementation, kept as the oracle for the
//!   equivalence suite in `crates/harness/tests/determinism.rs`.
//! * **`EventDriven`** (default) puts scoreboard-blocked warps to sleep on
//!   an earliest-wake binary heap keyed by the cycle their newest required
//!   register arrives. While a warp is blocked nothing that feeds its
//!   scoreboard decision can change (its PC moves only on issue, its
//!   registers only on its own execution, and reconvergence pops are
//!   exhausted at the examination that blocked it), so the wake cycle and
//!   the memory-stall horizon cached at block time stay exact. Ticks where
//!   every resident warp is asleep or waiting on the accelerator cost
//!   O(1) plus a peek, and `Gpu::launch` uses the heap minimum to
//!   fast-forward the clock across the dead interval.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::accel::{Accelerator, LaneTraversal, TraversalRequest};
use crate::config::{GpuConfig, SchedulerKind};
use crate::isa::{FOp, IOp, Instr, InstrClass, SReg};
use crate::kernel::DecodedKernel;
use crate::mem::{GlobalMemory, MemorySystem};
use crate::simt::{active_lanes, Warp, WarpState};
use crate::stats::SimStats;
use trace::{TraceHandle, Track};

/// Result of one SM tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IssueResult {
    /// Whether an instruction was issued this cycle.
    pub issued: bool,
    /// Earliest cycle a currently-blocked warp becomes ready, if known.
    pub next_wake: Option<u64>,
    /// Whether any warp failed its scoreboard check on a register whose
    /// pending producer is a memory load (stall-attribution signal).
    pub mem_stall: bool,
    /// Whether the issued instruction was a `Traverse` the accelerator
    /// accepted, which makes an idle accelerator live again.
    pub offloaded: bool,
}

/// Trace-event name for an issued instruction of the given class.
fn issue_name(class: InstrClass) -> &'static str {
    match class {
        InstrClass::Alu => "issue_alu",
        InstrClass::Control => "issue_control",
        InstrClass::Memory => "issue_memory",
        InstrClass::Traverse => "issue_traverse",
    }
}

/// One streaming multiprocessor.
#[derive(Debug)]
pub struct Sm {
    /// SM index.
    pub id: usize,
    slots: Vec<Option<Warp>>,
    /// Occupied slots in ascending age order (maintained incrementally so
    /// the per-cycle issue loop does not sort).
    order: Vec<usize>,
    /// Position in `order` of the warp that issued last. Valid because
    /// `order` only grows at the tail between issues; an `Exit` removal
    /// resets it.
    last_issued_pos: Option<usize>,
    next_age: u64,
    /// Occupied slots (O(1) `has_free_slot`/`is_idle`).
    resident: usize,
    /// Resident warps that are `Ready` and not asleep on the wake heap —
    /// the only warps the event-driven scan examines. 0 means this tick
    /// cannot issue.
    awake: usize,
    /// Per-slot scoreboard wake cycle; `Some` while the slot sleeps on
    /// the heap (event-driven mode only).
    blocked_until: Vec<Option<u64>>,
    /// Per-slot memory-stall horizon cached at block time: while
    /// `now < mem_until[slot]`, the sleeping warp's stall is attributable
    /// to a pending load.
    mem_until: Vec<u64>,
    /// Min-heap of `(wake_cycle, slot)` over sleeping warps. Entries are
    /// always live: a slot is pushed at most once per block and removed
    /// exactly when it wakes.
    wake_heap: BinaryHeap<Reverse<(u64, usize)>>,
    /// Reusable `(line, lanes-on-line)` scratch for `Load`/`Store`
    /// coalescing, so execution never allocates per instruction.
    coalesce: Vec<(u64, u32)>,
}

impl Sm {
    /// Creates an SM with `max_warps` resident-warp slots.
    pub fn new(id: usize, max_warps: usize) -> Self {
        Sm {
            id,
            slots: (0..max_warps).map(|_| None).collect(),
            order: Vec::with_capacity(max_warps),
            last_issued_pos: None,
            next_age: 0,
            resident: 0,
            awake: 0,
            blocked_until: vec![None; max_warps],
            mem_until: vec![0; max_warps],
            wake_heap: BinaryHeap::with_capacity(max_warps),
            coalesce: Vec::with_capacity(32),
        }
    }

    /// `true` when a warp slot is free.
    pub fn has_free_slot(&self) -> bool {
        self.resident < self.slots.len()
    }

    /// Number of resident warps.
    pub fn resident_warps(&self) -> usize {
        self.resident
    }

    /// `true` when no warps are resident.
    pub fn is_idle(&self) -> bool {
        self.resident == 0
    }

    /// Installs a warp into a free slot.
    ///
    /// # Panics
    ///
    /// Panics when no slot is free.
    pub fn add_warp(&mut self, mut warp: Warp) {
        let slot = self
            .slots
            .iter()
            .position(Option::is_none)
            .expect("add_warp requires a free slot");
        warp.age = self.next_age;
        self.next_age += 1;
        self.slots[slot] = Some(warp);
        self.order.push(slot); // monotone ages keep `order` sorted
        self.resident += 1;
        self.awake += 1;
    }

    /// Wakes the warp in `slot` after its offloaded traversal completed.
    pub fn complete_traversal(&mut self, slot: usize) {
        let warp = self.slots[slot]
            .as_mut()
            .expect("traversal completion for an empty slot");
        debug_assert_eq!(warp.state, WarpState::WaitAccel);
        warp.state = WarpState::Ready;
        self.awake += 1;
    }

    /// Attempts to issue one instruction.
    #[allow(clippy::too_many_arguments)]
    pub fn tick(
        &mut self,
        now: u64,
        cfg: &GpuConfig,
        kernel: &DecodedKernel,
        params: &[u32],
        mem: &mut MemorySystem,
        gmem: &mut GlobalMemory,
        mut accel: Option<&mut Box<dyn Accelerator>>,
        stats: &mut SimStats,
        trace: &TraceHandle,
        mut shadow: Option<&mut crate::absint::ShadowChecker>,
        mut race: Option<&mut crate::race::RaceSanitizer>,
    ) -> IssueResult {
        let event = cfg.scheduler == SchedulerKind::EventDriven;
        if event {
            // Wake sleepers whose scoreboard time has arrived.
            while let Some(&Reverse((wake, slot))) = self.wake_heap.peek() {
                if wake > now {
                    break;
                }
                self.wake_heap.pop();
                debug_assert_eq!(self.blocked_until[slot], Some(wake));
                self.blocked_until[slot] = None;
                self.awake += 1;
            }
            if self.awake == 0 {
                // Every Ready warp sleeps on the heap (the rest wait on
                // the accelerator): nothing can issue, and the heap holds
                // exactly the wake/stall facts the reference scan would
                // recompute from every warp.
                return IssueResult {
                    issued: false,
                    next_wake: self.wake_heap.peek().map(|&Reverse((w, _))| w),
                    mem_stall: self
                        .wake_heap
                        .iter()
                        .any(|&Reverse((_, s))| now < self.mem_until[s]),
                    offloaded: false,
                };
            }
        }

        // GTO: greedy on the last-issued warp, then oldest-first. `order`
        // is kept age-sorted incrementally; start iteration at the greedy
        // candidate and wrap around.
        let mut next_wake: Option<u64> = None;
        let mut note_wake = |t: u64| {
            next_wake = Some(next_wake.map_or(t, |w: u64| w.min(t)));
        };
        let mut mem_stall = false;

        let n = self.order.len();
        let start = self.last_issued_pos.unwrap_or(0);
        for k in 0..n {
            let pos = (start + k) % n;
            let slot = self.order[pos];
            if event && self.blocked_until[slot].is_some() {
                continue; // asleep: scoreboard outcome is cached on the heap
            }
            let warp = self.slots[slot].as_mut().expect("listed slot is occupied");
            if warp.state != WarpState::Ready {
                continue;
            }
            let stack_depth = warp.stack.len();
            let Some((pc, mask)) = warp.reconverge() else {
                continue;
            };
            if warp.stack.len() < stack_depth {
                trace.instant(Track::Sm(self.id as u32), "reconverge", now, warp.id as u64);
            }
            let d = &kernel.instrs[pc as usize];

            // Scoreboard: sources and destination must be available. A
            // blocking register whose pending producer is a load marks
            // this as a memory stall for cycle attribution; `mem_at` is
            // the cycle that classification flips off.
            let mut ready_at = 0u64;
            let mut mem_at = 0u64;
            {
                let mut consider = |r: u8| {
                    let t = warp.reg_ready[r as usize];
                    ready_at = ready_at.max(t);
                    if warp.is_mem_pending(r) {
                        mem_at = mem_at.max(t);
                    }
                };
                for r in &d.srcs[..d.nsrc as usize] {
                    consider(r.0);
                }
                if let Some(rd) = d.dest {
                    consider(rd.0);
                }
            }
            if ready_at > now {
                if event {
                    // Sleep until the newest required register lands. The
                    // warp cannot change while blocked, so both cached
                    // cycles stay exact (module docs).
                    self.blocked_until[slot] = Some(ready_at);
                    self.mem_until[slot] = mem_at;
                    self.wake_heap.push(Reverse((ready_at, slot)));
                    self.awake -= 1;
                } else {
                    note_wake(ready_at);
                    mem_stall |= mem_at > now;
                }
                continue;
            }

            // Traverse is special: it can be rejected by a full warp buffer.
            if let Instr::Traverse {
                rs_query,
                rs_root,
                pipeline,
            } = d.instr
            {
                let Some(acc) = accel.as_mut() else {
                    panic!("kernel uses Traverse but no accelerator is attached");
                };
                if !acc.can_accept() {
                    // Warp buffer full: probe again next cycle. The probe
                    // precedes request construction so a retry costs one
                    // comparison, not a lane-descriptor allocation — this
                    // was the dominant cost of accelerator-bound runs.
                    note_wake(now + 1);
                    continue;
                }
                if let Some(sc) = shadow.as_deref_mut() {
                    sc.check_issue(warp, pc, mask, &d.srcs[..d.nsrc as usize]);
                }
                let lanes: Vec<LaneTraversal> = active_lanes(mask)
                    .map(|l| LaneTraversal {
                        lane: l as u8,
                        query_addr: warp.reg(rs_query.0, l) as u64,
                        root_addr: warp.reg(rs_root.0, l) as u64,
                    })
                    .collect();
                let req = TraversalRequest {
                    token: slot as u64,
                    pipeline,
                    lanes,
                };
                match acc.try_submit(req, now) {
                    Ok(()) => {
                        warp.state = WarpState::WaitAccel;
                        warp.advance_pc();
                        let lanes = mask.count_ones() as u64;
                        stats.warp_instrs += 1;
                        stats.lane_instrs += lanes;
                        stats.mix.add(InstrClass::Traverse, lanes);
                        stats.traversals_offloaded += 1;
                        trace.instant(Track::Sm(self.id as u32), "issue_traverse", now, lanes);
                        self.last_issued_pos = Some(pos);
                        self.awake -= 1;
                        return IssueResult {
                            issued: true,
                            next_wake,
                            mem_stall,
                            offloaded: true,
                        };
                    }
                    Err(_) => {
                        // Warp buffer full: retry once the accelerator
                        // moves. The warp stays awake (its scoreboard
                        // passed), so it is re-examined every cycle just
                        // like the reference scan.
                        note_wake(now + 1);
                        continue;
                    }
                }
            }

            // Soundness gate: every source register of the issuing
            // instruction (and the stack depth) must lie inside the
            // statically computed abstraction.
            if let Some(sc) = shadow.as_deref_mut() {
                sc.check_issue(warp, pc, mask, &d.srcs[..d.nsrc as usize]);
            }

            // Execute functionally and account timing.
            let lanes = mask.count_ones() as u64;
            stats.warp_instrs += 1;
            stats.lane_instrs += lanes;
            stats.mix.add(d.class, lanes);
            if d.is_flop {
                stats.flops += lanes;
            }
            let warp_id = warp.id;
            trace.instant(Track::Sm(self.id as u32), issue_name(d.class), now, lanes);
            Self::execute(
                warp,
                d.instr,
                mask,
                pc,
                now,
                cfg,
                params,
                mem,
                gmem,
                self.id,
                trace,
                &mut self.coalesce,
                race.as_deref_mut(),
            );
            if matches!(d.instr, Instr::Exit) {
                // Record when this warp retired. `now` is the absolute
                // clock; `Gpu::launch` rebases to launch-relative cycles.
                stats.record_warp_completion(warp_id, now);
                trace.instant(
                    Track::Sm(self.id as u32),
                    "warp_retire",
                    now,
                    warp_id as u64,
                );
                self.slots[slot] = None;
                self.order.remove(pos);
                self.last_issued_pos = None;
                self.resident -= 1;
                self.awake -= 1;
            } else {
                self.last_issued_pos = Some(pos);
            }
            return IssueResult {
                issued: true,
                next_wake,
                mem_stall,
                offloaded: false,
            };
        }
        if event {
            // Nothing issued: fold the sleeping warps back into the
            // result so `Gpu::launch` sees exactly what the reference
            // scan would have reported on this cycle.
            if let Some(&Reverse((w, _))) = self.wake_heap.peek() {
                note_wake(w);
            }
            mem_stall |= self
                .wake_heap
                .iter()
                .any(|&Reverse((_, s))| now < self.mem_until[s]);
        }
        IssueResult {
            issued: false,
            next_wake,
            mem_stall,
            offloaded: false,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn execute(
        warp: &mut Warp,
        instr: Instr,
        mask: u32,
        pc: u32,
        now: u64,
        cfg: &GpuConfig,
        params: &[u32],
        mem: &mut MemorySystem,
        gmem: &mut GlobalMemory,
        sm_id: usize,
        trace: &TraceHandle,
        lines: &mut Vec<(u64, u32)>,
        mut race: Option<&mut crate::race::RaceSanitizer>,
    ) {
        let alu_done = now + cfg.alu_latency;
        let sfu_done = now + cfg.sfu_latency;
        match instr {
            Instr::MovImm { rd, imm } => {
                for l in active_lanes(mask) {
                    warp.set_reg(rd.0, l, imm);
                }
                warp.set_ready(rd.0, alu_done, false);
                warp.advance_pc();
            }
            Instr::MovSreg { rd, sreg } => {
                for l in active_lanes(mask) {
                    let v = match sreg {
                        SReg::ThreadId => warp.base_tid + l as u32,
                        SReg::LaneId => l as u32,
                        SReg::WarpId => warp.id as u32,
                        SReg::Param(i) => *params
                            .get(i as usize)
                            .unwrap_or_else(|| panic!("missing launch param {i}")),
                    };
                    warp.set_reg(rd.0, l, v);
                }
                warp.set_ready(rd.0, alu_done, false);
                warp.advance_pc();
            }
            Instr::Mov { rd, rs } => {
                for l in active_lanes(mask) {
                    let v = warp.reg(rs.0, l);
                    warp.set_reg(rd.0, l, v);
                }
                warp.set_ready(rd.0, alu_done, false);
                warp.advance_pc();
            }
            Instr::IAlu { op, rd, rs1, rs2 } => {
                for l in active_lanes(mask) {
                    let a = warp.reg(rs1.0, l);
                    let b = warp.reg(rs2.0, l);
                    warp.set_reg(rd.0, l, Self::ialu(op, a, b));
                }
                warp.set_ready(rd.0, alu_done, false);
                warp.advance_pc();
            }
            Instr::IAluImm { op, rd, rs1, imm } => {
                for l in active_lanes(mask) {
                    let a = warp.reg(rs1.0, l);
                    warp.set_reg(rd.0, l, Self::ialu(op, a, imm));
                }
                warp.set_ready(rd.0, alu_done, false);
                warp.advance_pc();
            }
            Instr::FAlu { op, rd, rs1, rs2 } => {
                for l in active_lanes(mask) {
                    let a = f32::from_bits(warp.reg(rs1.0, l));
                    let b = f32::from_bits(warp.reg(rs2.0, l));
                    let v = match op {
                        FOp::Add => a + b,
                        FOp::Sub => a - b,
                        FOp::Mul => a * b,
                        FOp::Div => a / b,
                        FOp::Min => a.min(b),
                        FOp::Max => a.max(b),
                    };
                    warp.set_reg(rd.0, l, v.to_bits());
                }
                let done = if matches!(op, FOp::Div) {
                    sfu_done
                } else {
                    alu_done
                };
                warp.set_ready(rd.0, done, false);
                warp.advance_pc();
            }
            Instr::FSqrt { rd, rs } => {
                for l in active_lanes(mask) {
                    let v = f32::from_bits(warp.reg(rs.0, l)).sqrt();
                    warp.set_reg(rd.0, l, v.to_bits());
                }
                warp.set_ready(rd.0, sfu_done, false);
                warp.advance_pc();
            }
            Instr::ICmp {
                cmp,
                rd,
                rs1,
                rs2,
                unsigned,
            } => {
                for l in active_lanes(mask) {
                    let a = warp.reg(rs1.0, l);
                    let b = warp.reg(rs2.0, l);
                    let r = if unsigned {
                        cmp.eval(a, b)
                    } else {
                        cmp.eval(a as i32, b as i32)
                    };
                    warp.set_reg(rd.0, l, r as u32);
                }
                warp.set_ready(rd.0, alu_done, false);
                warp.advance_pc();
            }
            Instr::FCmp { cmp, rd, rs1, rs2 } => {
                for l in active_lanes(mask) {
                    let a = f32::from_bits(warp.reg(rs1.0, l));
                    let b = f32::from_bits(warp.reg(rs2.0, l));
                    warp.set_reg(rd.0, l, cmp.eval(a, b) as u32);
                }
                warp.set_ready(rd.0, alu_done, false);
                warp.advance_pc();
            }
            Instr::ItoF { rd, rs } => {
                for l in active_lanes(mask) {
                    let v = warp.reg(rs.0, l) as i32 as f32;
                    warp.set_reg(rd.0, l, v.to_bits());
                }
                warp.set_ready(rd.0, alu_done, false);
                warp.advance_pc();
            }
            Instr::FtoI { rd, rs } => {
                for l in active_lanes(mask) {
                    let v = f32::from_bits(warp.reg(rs.0, l)) as i32 as u32;
                    warp.set_reg(rd.0, l, v);
                }
                warp.set_ready(rd.0, alu_done, false);
                warp.advance_pc();
            }
            Instr::Load {
                rd,
                rs_addr,
                offset,
            } => {
                // Functional read + coalesced timing. First-touch order
                // of `lines` matches the dense lane loop, so the memory
                // system sees identical request order.
                let line_size = mem.line_size() as u64;
                lines.clear();
                for l in active_lanes(mask) {
                    let addr = (warp.reg(rs_addr.0, l) as i64 + offset as i64) as u64;
                    if let Some(rs) = race.as_deref_mut() {
                        rs.read(addr, warp.id, l, pc);
                    }
                    let v = gmem.read_u32(addr);
                    warp.set_reg(rd.0, l, v);
                    let line = addr / line_size;
                    match lines.iter_mut().find(|(ln, _)| *ln == line) {
                        Some((_, n)) => *n += 1,
                        None => lines.push((line, 1)),
                    }
                }
                let mut done = now;
                for &(line, lanes_on_line) in lines.iter() {
                    let t = mem.read(sm_id, line * line_size, lanes_on_line * 4, now);
                    done = done.max(t);
                }
                warp.set_ready(rd.0, done, true);
                warp.advance_pc();
            }
            Instr::Store {
                rs_val,
                rs_addr,
                offset,
            } => {
                let line_size = mem.line_size() as u64;
                lines.clear();
                for l in active_lanes(mask) {
                    let addr = (warp.reg(rs_addr.0, l) as i64 + offset as i64) as u64;
                    if let Some(rs) = race.as_deref_mut() {
                        rs.write(addr, warp.id, l, pc);
                    }
                    gmem.write_u32(addr, warp.reg(rs_val.0, l));
                    let line = addr / line_size;
                    match lines.iter_mut().find(|(ln, _)| *ln == line) {
                        Some((_, n)) => *n += 1,
                        None => lines.push((line, 1)),
                    }
                }
                for &(line, lanes_on_line) in lines.iter() {
                    // Fire-and-forget write-through.
                    let _ = mem.write(sm_id, line * line_size, lanes_on_line * 4, now);
                }
                warp.advance_pc();
            }
            Instr::BranchNz { rs, target, reconv } => {
                let mut taken = 0u32;
                for l in active_lanes(mask) {
                    if warp.reg(rs.0, l) != 0 {
                        taken |= 1 << l;
                    }
                }
                if warp.branch(taken, target, reconv) {
                    trace.instant(Track::Sm(sm_id as u32), "diverge", now, warp.id as u64);
                }
            }
            Instr::BranchZ { rs, target, reconv } => {
                let mut taken = 0u32;
                for l in active_lanes(mask) {
                    if warp.reg(rs.0, l) == 0 {
                        taken |= 1 << l;
                    }
                }
                if warp.branch(taken, target, reconv) {
                    trace.instant(Track::Sm(sm_id as u32), "diverge", now, warp.id as u64);
                }
            }
            Instr::Jump { target } => {
                warp.set_pc(target);
            }
            Instr::Exit => {
                debug_assert_eq!(warp.stack.len(), 1, "Exit must be reached converged");
                warp.finish();
            }
            Instr::Traverse { .. } => unreachable!("Traverse handled in tick"),
        }
    }

    fn ialu(op: IOp, a: u32, b: u32) -> u32 {
        match op {
            IOp::Add => a.wrapping_add(b),
            IOp::Sub => a.wrapping_sub(b),
            IOp::Mul => a.wrapping_mul(b),
            IOp::And => a & b,
            IOp::Or => a | b,
            IOp::Xor => a ^ b,
            IOp::Shl => a.wrapping_shl(b & 31),
            IOp::Shr => a.wrapping_shr(b & 31),
            IOp::Min => a.min(b),
            IOp::Max => a.max(b),
        }
    }
}
