//! Static cost model over mini-ISA kernels: the `tta-cost` analysis core.
//!
//! Three analyses layered on the tid-affine abstract interpreter:
//!
//! - **divergence** ([`divergence`]): a warp-uniformity dataflow proves
//!   branches warp-uniform, and the tid-affine [`AbsVal`] of a condition
//!   register proves forced divergence (an exactly-known `base + s·tid`
//!   condition that crosses zero inside a multi-lane warp);
//! - **coalescing** ([`coalescing`]): each `Load`/`Store` site is
//!   classified from the tid-stride term of its address — broadcast,
//!   strided-k, or unknown — and its per-warp memory-transaction count
//!   bracketed from the 128-byte line geometry the simulator actually
//!   implements ([`crate::mem::MemorySystem::read`] is called once per
//!   distinct line);
//! - **cycle bounds** ([`cycle_bounds`]): a static `[lower, upper]`
//!   bracket on a launch's measured cycles, composed from decoded
//!   instruction latencies, per-warp shortest paths, loop-trip facts
//!   matched against the termination prover's back-edges, and declared
//!   traversal-step brackets for the offloaded `Traverse` instruction.
//!
//! Soundness model for the upper bound: the simulator is work-conserving
//! (whenever the launch has not terminated, at least one in-flight
//! instruction, memory transaction, or accelerator step is progressing
//! through a resource — the event-driven clock only jumps to wakeup
//! times). Total elapsed time is therefore covered by the union of all
//! per-instruction busy windows, which is at most the *sum* of isolated
//! worst-case windows. Each instruction's isolated window charges its
//! issue slot, its unit latency, and — for memory — its L1-port cycles
//! plus a full-miss round trip plus its worst-case DRAM channel
//! occupancy. The `cost_gate` suite in `tta-workloads` empirically
//! re-validates the bracket on every workload × platform in CI.

use crate::config::GpuConfig;
use crate::isa::{FOp, Instr, InstrClass, SReg};
use crate::kernel::Kernel;

use super::cfg::successors;
use super::checks::check_termination;
use super::domain::{AbsVal, Base};
use super::interp::{analyze, Abstraction, LaunchBounds};

/// Bytes accessed per lane by `Load`/`Store` (32-bit words).
const ACCESS_BYTES: u64 = 4;

// ------------------------------------------------------------ divergence

/// Warp-uniformity verdict for one divergent-branch site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Divergence {
    /// The condition is provably identical across the lanes of any warp:
    /// the branch never splits the active mask.
    Uniform,
    /// The condition may differ across lanes (data-dependent); the
    /// reconvergence stack bounds the mask loss but divergence cannot be
    /// excluded statically.
    MayDiverge,
    /// The condition is an exactly-known tid-affine value that crosses
    /// zero inside a multi-lane warp: at least one warp provably splits.
    Divergent,
}

/// One analyzed branch site.
#[derive(Debug, Clone, Copy)]
pub struct BranchDivergence {
    /// PC of the `BranchNz`/`BranchZ`.
    pub pc: usize,
    /// Its reconvergence PC (immediate post-dominator).
    pub reconv: u32,
    /// The verdict.
    pub kind: Divergence,
    /// The condition register's tid stride (0 when unknown/uniform).
    pub cond_stride: i64,
}

/// Result of [`divergence`].
#[derive(Debug, Clone, Default)]
pub struct DivergenceReport {
    /// Every conditional branch in pc order.
    pub branches: Vec<BranchDivergence>,
}

impl DivergenceReport {
    /// `true` when every branch is proved warp-uniform — the kernel can
    /// never emit a `diverge` trace event.
    #[must_use]
    pub fn proved_uniform(&self) -> bool {
        self.branches.iter().all(|b| b.kind == Divergence::Uniform)
    }

    /// Branches proved to split at least one warp.
    #[must_use]
    pub fn proved_divergent(&self) -> Vec<&BranchDivergence> {
        self.branches
            .iter()
            .filter(|b| b.kind == Divergence::Divergent)
            .collect()
    }
}

/// Per-register warp-uniformity dataflow. A register is *uniform* when
/// every lane of any warp provably holds the same value at that pc.
///
/// Control dependence is handled by region poisoning: once a branch
/// condition is found non-uniform, every register written between the
/// branch and its reconvergence point (or inside the loop body, for a
/// back-edge) is demoted to varying — lanes on different sides of the
/// split may observe different definitions. The region set only grows, so
/// the outer loop reaches a fixpoint in at most one pass per branch.
fn uniformity(kernel: &Kernel, bounds: LaunchBounds) -> Vec<Option<Vec<bool>>> {
    let n = kernel.instrs.len();
    let nregs = kernel.num_regs;
    // Poisoned pc ranges (inclusive) from known-non-uniform branches.
    let mut poisoned: Vec<(usize, usize)> = Vec::new();
    loop {
        let mut states: Vec<Option<Vec<bool>>> = vec![None; n];
        states[0] = Some(vec![true; nregs]);
        let mut work = vec![0usize];
        while let Some(pc) = work.pop() {
            let state = states[pc].clone().expect("state exists for queued pc");
            let instr = &kernel.instrs[pc];
            let mut out = state.clone();
            if let Some(rd) = instr.dest() {
                let in_poisoned = poisoned.iter().any(|&(lo, hi)| pc >= lo && pc <= hi);
                let v = if in_poisoned {
                    false
                } else {
                    match instr {
                        Instr::MovImm { .. } => true,
                        Instr::MovSreg { sreg, .. } => match sreg {
                            SReg::ThreadId | SReg::LaneId => false,
                            // One warp = one WarpId; params are launch-wide.
                            SReg::WarpId | SReg::Param(_) => true,
                        },
                        // A load from a uniform address reads one location
                        // once for the whole warp: the value is uniform.
                        Instr::Load { rs_addr, .. } => state[rs_addr.0 as usize],
                        _ => instr.sources().iter().all(|r| state[r.0 as usize]),
                    }
                };
                out[rd.0 as usize] = v;
            }
            let (succs, count) = successors(instr, pc);
            for &s in &succs[..count] {
                if s >= n {
                    continue;
                }
                let changed = match &mut states[s] {
                    None => {
                        states[s] = Some(out.clone());
                        true
                    }
                    Some(prev) => {
                        let mut any = false;
                        for (p, o) in prev.iter_mut().zip(&out) {
                            if *p && !*o {
                                *p = false;
                                any = true;
                            }
                        }
                        any
                    }
                };
                if changed {
                    work.push(s);
                }
            }
        }
        // Grow the poisoned-region set from branches whose condition is
        // not (or no longer) uniform.
        let mut grew = false;
        for (pc, instr) in kernel.instrs.iter().enumerate() {
            let (rs, target, reconv) = match *instr {
                Instr::BranchNz { rs, target, reconv } | Instr::BranchZ { rs, target, reconv } => {
                    (rs, target, reconv)
                }
                _ => continue,
            };
            let cond_uniform = states[pc].as_ref().is_some_and(|s| s[rs.0 as usize]);
            if cond_uniform {
                continue;
            }
            let region = if (target as usize) <= pc {
                // Back-edge: lanes may iterate different trip counts, so
                // anything the loop body writes is varying afterwards.
                (target as usize, pc)
            } else {
                (pc + 1, (reconv as usize).saturating_sub(1).min(n - 1))
            };
            if !poisoned.contains(&region) {
                poisoned.push(region);
                grew = true;
            }
        }
        if !grew {
            let _ = bounds;
            return states;
        }
    }
}

/// Classifies every conditional branch of `kernel` under `bounds`.
#[must_use]
pub fn divergence(kernel: &Kernel, bounds: LaunchBounds) -> DivergenceReport {
    let uni = uniformity(kernel, bounds);
    let abs = analyze(kernel, bounds);
    let mut report = DivergenceReport::default();
    for (pc, instr) in kernel.instrs.iter().enumerate() {
        let (rs, reconv) = match *instr {
            Instr::BranchNz { rs, reconv, .. } | Instr::BranchZ { rs, reconv, .. } => (rs, reconv),
            _ => continue,
        };
        let cond_uniform = uni[pc].as_ref().is_some_and(|s| s[rs.0 as usize]);
        let v = abs.reg_in(pc, rs.0);
        let stride = v.as_ref().map_or(0, |v| v.tid_stride);
        let kind = if cond_uniform {
            Divergence::Uniform
        } else if v.as_ref().is_some_and(|v| proved_zero_crossing(v, bounds)) {
            Divergence::Divergent
        } else {
            Divergence::MayDiverge
        };
        report.branches.push(BranchDivergence {
            pc,
            reconv,
            kind,
            cond_stride: stride,
        });
    }
    report
}

/// `true` when `v` is an exactly-known `s·tid + c` (absolute base, zero
/// interval width, nonzero stride) that is zero for exactly one tid in
/// range whose warp has at least one other lane — a forced warp split.
fn proved_zero_crossing(v: &AbsVal, bounds: LaunchBounds) -> bool {
    if v.base != Base::Zero || v.tid_stride == 0 || v.lo != v.hi || v.is_saturated() {
        return false;
    }
    let s = v.tid_stride;
    let c = v.lo;
    // Solve s·tid + c == 0 over the launched tids.
    if c % s != 0 {
        return false;
    }
    let tid0 = -c / s;
    if tid0 < 0 || tid0 >= i64::from(bounds.num_threads) {
        return false;
    }
    // The zero tid's warp needs a second lane holding a provably
    // different (hence nonzero, by injectivity of s·tid + c) value.
    let warp = tid0 / 32;
    let warp_lanes = (i64::from(bounds.num_threads) - warp * 32).min(32);
    warp_lanes >= 2
}

// ------------------------------------------------------------ coalescing

/// Static access-pattern class of one memory site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoalesceClass {
    /// All lanes address the same word: one transaction per warp.
    Broadcast,
    /// Lane addresses advance by a known byte stride per tid.
    Strided(u64),
    /// The address has no usable tid-affine form (pointer chasing,
    /// data-dependent): anywhere between 1 and `warp_width` transactions.
    Unknown,
}

impl std::fmt::Display for CoalesceClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoalesceClass::Broadcast => write!(f, "broadcast"),
            CoalesceClass::Strided(s) => write!(f, "strided-{s}"),
            CoalesceClass::Unknown => write!(f, "uncoalesced"),
        }
    }
}

/// One classified `Load`/`Store` site.
#[derive(Debug, Clone, Copy)]
pub struct MemSite {
    /// PC of the access.
    pub pc: usize,
    /// `true` for `Store`.
    pub is_store: bool,
    /// The access-pattern class.
    pub class: CoalesceClass,
    /// Minimum distinct 128-byte-line transactions for a fully active
    /// warp executing this site once.
    pub lines_min: u32,
    /// Maximum ditto.
    pub lines_max: u32,
    /// `true` when the known stride is not a multiple of the 4-byte
    /// access size: neighbouring lanes straddle word boundaries (and, for
    /// stores, provably overlap bytes with other threads' footprints).
    pub misaligned: bool,
}

/// Result of [`coalescing`].
#[derive(Debug, Clone, Default)]
pub struct CoalescingReport {
    /// Every memory site in pc order.
    pub sites: Vec<MemSite>,
}

impl CoalescingReport {
    /// The per-fully-active-warp transaction bracket summed over all
    /// sites (each executed once).
    #[must_use]
    pub fn lines_bracket(&self) -> (u64, u64) {
        self.sites.iter().fold((0, 0), |(lo, hi), s| {
            (lo + u64::from(s.lines_min), hi + u64::from(s.lines_max))
        })
    }
}

/// Classifies every memory site of `kernel` under `bounds` against the
/// line geometry of `cfg`.
#[must_use]
pub fn coalescing(kernel: &Kernel, bounds: LaunchBounds, cfg: &GpuConfig) -> CoalescingReport {
    let abs = analyze(kernel, bounds);
    coalescing_with(kernel, &abs, cfg)
}

/// [`coalescing`] over a pre-computed abstraction.
#[must_use]
pub fn coalescing_with(kernel: &Kernel, abs: &Abstraction, cfg: &GpuConfig) -> CoalescingReport {
    let w = cfg.warp_width as u64;
    let line = cfg.mem.line_size as u64;
    let mut report = CoalescingReport::default();
    for (pc, instr) in kernel.instrs.iter().enumerate() {
        let (rs_addr, offset, is_store) = match *instr {
            Instr::Load {
                rs_addr, offset, ..
            } => (rs_addr, offset, false),
            Instr::Store {
                rs_addr, offset, ..
            } => (rs_addr, offset, true),
            _ => continue,
        };
        let addr = abs
            .reg_in(pc, rs_addr.0)
            .map(|v| v.add_const(i64::from(offset)));
        let site = match addr {
            Some(v) if !v.is_top() && !v.is_saturated() => {
                let s = v.tid_stride.unsigned_abs();
                // Interval width: shared base uncertainty; lanes may
                // realize different offsets within it independently.
                let width = (v.hi - v.lo).unsigned_abs();
                if s == 0 {
                    if width == 0 {
                        MemSite {
                            pc,
                            is_store,
                            class: CoalesceClass::Broadcast,
                            lines_min: 1,
                            lines_max: 1,
                            misaligned: false,
                        }
                    } else {
                        // Same window for every lane, position unknown.
                        let lmax = (width / line + 2).min(w) as u32;
                        MemSite {
                            pc,
                            is_store,
                            class: CoalesceClass::Unknown,
                            lines_min: 1,
                            lines_max: lmax,
                            misaligned: false,
                        }
                    }
                } else {
                    let span = (w - 1).saturating_mul(s);
                    let lines_min = ((span.saturating_sub(width)) / line + 1).min(w) as u32;
                    let lines_max = ((span + width) / line + 2).min(w) as u32;
                    MemSite {
                        pc,
                        is_store,
                        class: CoalesceClass::Strided(s),
                        lines_min,
                        lines_max,
                        misaligned: s % ACCESS_BYTES != 0,
                    }
                }
            }
            _ => MemSite {
                pc,
                is_store,
                class: CoalesceClass::Unknown,
                lines_min: 1,
                lines_max: w as u32,
                misaligned: false,
            },
        };
        report.sites.push(site);
    }
    report
}

// ----------------------------------------------------------- cycle bounds

/// Total-body-execution bracket for one loop, per thread, across the
/// whole launch (flat — an inner loop's fact counts all outer
/// iterations). Facts align with [`check_termination`]'s back-edges in pc
/// order.
#[derive(Debug, Clone, Copy)]
pub struct TripFact {
    /// Minimum total body executions per thread.
    pub min: u64,
    /// Maximum ditto. `u64::MAX` means "no finite bound known".
    pub max: u64,
}

impl TripFact {
    /// A `[min, max]` fact.
    #[must_use]
    pub fn new(min: u64, max: u64) -> Self {
        TripFact { min, max }
    }

    /// A declared-unbounded fact (the cost pass reports it).
    #[must_use]
    pub fn unbounded() -> Self {
        TripFact {
            min: 0,
            max: u64::MAX,
        }
    }
}

/// Declared bracket for the offloaded `Traverse` instruction: accelerator
/// steps (node visits including leaf-primitive fetch rounds) per query,
/// and a per-step worst-case cycle cost the caller derives from its
/// platform configuration (see `workloads::cost::step_cost_upper`).
#[derive(Debug, Clone, Copy)]
pub struct TraversalFact {
    /// Minimum steps per query.
    pub min_steps: u64,
    /// Maximum steps per query.
    pub max_steps: u64,
    /// Worst-case cycles per step (fetch round trip + test latency +
    /// callback ceiling).
    pub step_cost_upper: u64,
}

/// Declared launch facts the static analyses cannot derive from the
/// kernel alone: loop-trip totals (from tree metadata or functional
/// oracles) and traversal-step brackets.
#[derive(Debug, Clone, Default)]
pub struct CostFacts {
    /// One fact per [`check_termination`] back-edge, in pc order.
    pub trips: Vec<TripFact>,
    /// Required iff the kernel contains `Traverse`.
    pub traversal: Option<TraversalFact>,
}

/// Why a finite bound could not be produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostIssue {
    /// A loop has no finite trip fact: the static latency is unbounded.
    UnboundedLoop {
        /// Loop head pc.
        head: usize,
        /// Back-edge pc.
        back_pc: usize,
    },
    /// The fact vector does not match the prover's back-edge count.
    TripArityMismatch {
        /// Back-edges found.
        expected: usize,
        /// Facts supplied.
        got: usize,
    },
    /// The kernel offloads a traversal but no [`TraversalFact`] was
    /// declared.
    MissingTraversalFact {
        /// PC of the `Traverse`.
        pc: usize,
    },
}

impl std::fmt::Display for CostIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CostIssue::UnboundedLoop { head, back_pc } => write!(
                f,
                "loop pc {head}..={back_pc}: no finite trip fact — static latency unbounded"
            ),
            CostIssue::TripArityMismatch { expected, got } => write!(
                f,
                "kernel has {expected} back-edges but {got} trip facts were declared"
            ),
            CostIssue::MissingTraversalFact { pc } => write!(
                f,
                "Traverse at pc {pc} has no declared traversal-step bracket"
            ),
        }
    }
}

/// A static bracket on one launch's measured cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleBounds {
    /// Cycles the launch cannot finish under.
    pub lower: u64,
    /// Cycles the launch cannot exceed.
    pub upper: u64,
}

impl CycleBounds {
    /// `true` when `measured` falls inside the bracket.
    #[must_use]
    pub fn brackets(&self, measured: u64) -> bool {
        self.lower <= measured && measured <= self.upper
    }

    /// Upper/lower ratio — the tightness figure the gate ceilings.
    #[must_use]
    pub fn ratio(&self) -> f64 {
        self.upper as f64 / self.lower.max(1) as f64
    }

    /// Sums brackets across a multi-launch plan (launches run back to
    /// back on one device, so both ends add).
    #[must_use]
    pub fn seq(self, other: CycleBounds) -> CycleBounds {
        CycleBounds {
            lower: self.lower.saturating_add(other.lower),
            upper: self.upper.saturating_add(other.upper),
        }
    }
}

/// Result of [`cycle_bounds`].
#[derive(Debug, Clone)]
pub struct CostReport {
    /// The bracket, when every loop and traversal is finitely bounded.
    pub bounds: Option<CycleBounds>,
    /// Everything that prevented (or would degrade) a finite bound.
    pub issues: Vec<CostIssue>,
    /// Per-warp issue count along the shortest entry→`Exit` path.
    pub shortest_path_issues: u64,
}

/// Worst-case round trip of one cache-line read issued into an idle
/// memory system: L1 port + L1/L2 lookup latencies + DRAM latency + one
/// line of channel service. Queueing behind other requests is accounted
/// by those requests' own charges (see the module soundness note).
#[must_use]
pub fn mem_worst_round_trip(cfg: &GpuConfig) -> u64 {
    let service = (cfg.mem.line_size as f64 / cfg.mem.dram_bytes_per_cycle_per_channel).ceil();
    1 + cfg.mem.l1_latency + cfg.mem.l2_latency + cfg.mem.dram_latency + service as u64
}

/// Statically brackets the cycles of launching `kernel` over
/// `bounds.num_threads` threads on `cfg`, given declared `facts`.
#[must_use]
pub fn cycle_bounds(
    kernel: &Kernel,
    bounds: LaunchBounds,
    cfg: &GpuConfig,
    facts: &CostFacts,
) -> CostReport {
    let n = kernel.instrs.len();
    let term = check_termination(kernel);
    let coal = coalescing(kernel, bounds, cfg);
    let mut issues = Vec::new();

    // --- loop structure → per-pc execution caps -----------------------
    if facts.trips.len() != term.loops.len() {
        issues.push(CostIssue::TripArityMismatch {
            expected: term.loops.len(),
            got: facts.trips.len(),
        });
    }
    // Per-pc execution cap: instructions outside every loop run once;
    // inside loops, the tightest enclosing *flat total* wins (facts count
    // total body executions across all outer iterations, so no product).
    let mut exec_max = vec![1u64; n];
    let mut capped = vec![false; n];
    for (i, l) in term.loops.iter().enumerate() {
        let trip = facts
            .trips
            .get(i)
            .copied()
            .unwrap_or_else(TripFact::unbounded);
        if trip.max == u64::MAX {
            issues.push(CostIssue::UnboundedLoop {
                head: l.head,
                back_pc: l.back_pc,
            });
        }
        for pc in l.head..=l.back_pc.min(n - 1) {
            exec_max[pc] = if capped[pc] {
                exec_max[pc].min(trip.max)
            } else {
                trip.max
            };
            capped[pc] = true;
        }
    }

    // --- shortest-path lower bound ------------------------------------
    let shortest = shortest_path_issues(kernel);
    let warp_width = cfg.warp_width as u64;
    let num_warps = u64::from(bounds.num_threads).div_ceil(warp_width);

    let mut lower_warp = shortest;
    // Traversal floor: each query steps through at least `min_steps`
    // sequential accelerator events, one cycle apart at minimum, and the
    // warp blocks until its slowest lane returns.
    let has_traverse = kernel
        .instrs
        .iter()
        .any(|i| matches!(i, Instr::Traverse { .. }));
    if has_traverse {
        match &facts.traversal {
            Some(t) if traverse_unavoidable(kernel) => {
                lower_warp = lower_warp.saturating_add(t.min_steps);
            }
            Some(_) => {}
            None => {
                let pc = kernel
                    .instrs
                    .iter()
                    .position(|i| matches!(i, Instr::Traverse { .. }))
                    .expect("has_traverse");
                issues.push(CostIssue::MissingTraversalFact { pc });
            }
        }
    }
    // Each SM issues at most one warp-instruction per cycle.
    let issue_floor = num_warps
        .saturating_mul(shortest)
        .div_ceil(cfg.num_sms as u64);
    let lower = lower_warp.max(issue_floor).max(1);

    // --- aggregate upper bound ----------------------------------------
    let line_service =
        (cfg.mem.line_size as f64 / cfg.mem.dram_bytes_per_cycle_per_channel).ceil() as u64;
    let mem_rt = mem_worst_round_trip(cfg);
    let mut per_warp: u64 = 0;
    let mut site = 0usize;
    let mut finite = !issues.iter().any(|i| {
        matches!(
            i,
            CostIssue::UnboundedLoop { .. } | CostIssue::TripArityMismatch { .. }
        )
    });
    for (pc, instr) in kernel.instrs.iter().enumerate() {
        let cost = match instr {
            Instr::Load { .. } | Instr::Store { .. } => {
                let lines = u64::from(coal.sites[site].lines_max);
                site += 1;
                if matches!(instr, Instr::Load { .. }) {
                    // Issue + per-line L1 port + full-miss round trip +
                    // per-line channel occupancy.
                    1 + lines + mem_rt + lines * line_service
                } else {
                    // Fire-and-forget: issue + per-line port + occupancy.
                    1 + lines * (1 + line_service)
                }
            }
            Instr::FSqrt { .. } | Instr::FAlu { op: FOp::Div, .. } => 1 + cfg.sfu_latency,
            Instr::Traverse { .. } => match &facts.traversal {
                Some(t) => warp_width
                    .saturating_mul(t.max_steps)
                    .saturating_mul(t.step_cost_upper)
                    .saturating_add(1),
                None => {
                    finite = false;
                    0
                }
            },
            _ => match instr.class() {
                InstrClass::Control => 1,
                _ => 1 + cfg.alu_latency,
            },
        };
        per_warp = per_warp.saturating_add(exec_max[pc].saturating_mul(cost));
        if exec_max[pc] == u64::MAX {
            finite = false;
        }
    }
    let upper = num_warps.saturating_mul(per_warp);
    let bounds_out = (finite && upper < u64::MAX).then_some(CycleBounds { lower, upper });

    CostReport {
        bounds: bounds_out,
        issues,
        shortest_path_issues: shortest,
    }
}

/// Issue count of the shortest entry→`Exit` path (each instruction
/// occupies at least its issue cycle).
fn shortest_path_issues(kernel: &Kernel) -> u64 {
    let n = kernel.instrs.len();
    // Dijkstra-lite over unit weights: BFS.
    let mut dist = vec![u64::MAX; n];
    dist[0] = 0;
    let mut queue = std::collections::VecDeque::from([0usize]);
    let mut best = u64::MAX;
    while let Some(pc) = queue.pop_front() {
        let d = dist[pc];
        if matches!(kernel.instrs[pc], Instr::Exit) {
            best = best.min(d + 1);
            continue;
        }
        let (succs, count) = successors(&kernel.instrs[pc], pc);
        for &s in &succs[..count] {
            if s < n && dist[s] > d + 1 {
                dist[s] = d + 1;
                queue.push_back(s);
            }
        }
    }
    if best == u64::MAX {
        // No reachable Exit (flagged by the verifier): floor of 1.
        1
    } else {
        best
    }
}

/// `true` when every entry→`Exit` path executes at least one `Traverse`.
fn traverse_unavoidable(kernel: &Kernel) -> bool {
    let n = kernel.instrs.len();
    // BFS skipping Traverse: if Exit is reachable without passing one,
    // traversal is avoidable.
    let mut seen = vec![false; n];
    seen[0] = true;
    let mut queue = std::collections::VecDeque::from([0usize]);
    while let Some(pc) = queue.pop_front() {
        match kernel.instrs[pc] {
            Instr::Exit => return false,
            Instr::Traverse { .. } => continue,
            _ => {}
        }
        let (succs, count) = successors(&kernel.instrs[pc], pc);
        for &s in &succs[..count] {
            if s < n && !seen[s] {
                seen[s] = true;
                queue.push_back(s);
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::Cmp;
    use crate::kernel::KernelBuilder;

    fn bounds() -> LaunchBounds {
        LaunchBounds { num_threads: 256 }
    }

    fn cfg() -> GpuConfig {
        GpuConfig::vulkan_sim_default()
    }

    #[test]
    fn straight_line_kernel_is_uniform() {
        let mut b = KernelBuilder::new("uni");
        let t = b.reg();
        let c = b.reg();
        b.mov_imm(c, 12);
        b.mov_sreg(t, SReg::ThreadId);
        let mut l = b.begin_loop();
        b.iadd_imm(c, c, u32::MAX);
        b.break_if_z(c, &mut l);
        b.end_loop(l);
        b.exit();
        let k = b.build();
        let rep = divergence(&k, bounds());
        assert!(rep.proved_uniform(), "{rep:?}");
    }

    #[test]
    fn branch_on_tid_is_proved_divergent() {
        let mut b = KernelBuilder::new("div");
        let t = b.reg();
        b.mov_sreg(t, SReg::ThreadId);
        let tok = b.begin_if_nz(t);
        b.mov_imm(t, 7);
        b.end_if(tok);
        b.exit();
        let k = b.build();
        let rep = divergence(&k, bounds());
        assert_eq!(rep.proved_divergent().len(), 1);
        assert_eq!(rep.branches[0].kind, Divergence::Divergent);
    }

    #[test]
    fn data_dependent_branch_may_diverge_but_is_not_proved() {
        let mut b = KernelBuilder::new("data");
        let t = b.reg();
        let q = b.reg();
        let v = b.reg();
        let c = b.reg();
        b.mov_sreg(t, SReg::ThreadId);
        b.mov_sreg(q, SReg::Param(0));
        b.iadd(q, q, t);
        b.load(v, q, 0);
        b.mov_imm(c, 5);
        b.icmp(Cmp::Lt, c, v, c);
        let tok = b.begin_if_nz(c);
        b.mov_imm(v, 1);
        b.end_if(tok);
        b.exit();
        let k = b.build();
        let rep = divergence(&k, bounds());
        assert!(!rep.proved_uniform());
        assert!(rep.proved_divergent().is_empty(), "{rep:?}");
        assert!(rep
            .branches
            .iter()
            .any(|b| b.kind == Divergence::MayDiverge));
    }

    #[test]
    fn uniform_load_stays_uniform_and_poisoning_demotes_divergent_writes() {
        // x loaded from a uniform (param) address is uniform; y written
        // under a tid branch is varying afterwards.
        let mut b = KernelBuilder::new("poison");
        let t = b.reg();
        let p = b.reg();
        let x = b.reg();
        let y = b.reg();
        b.mov_sreg(t, SReg::ThreadId);
        b.mov_sreg(p, SReg::Param(0));
        b.load(x, p, 0);
        b.mov_imm(y, 1);
        let tok = b.begin_if_nz(t);
        b.mov_imm(y, 2);
        b.end_if(tok);
        let t2 = b.begin_if_nz(x); // uniform cond — stays Uniform
        b.mov_imm(x, 3);
        b.end_if(t2);
        let t3 = b.begin_if_nz(y); // poisoned cond — not uniform
        b.mov_imm(y, 4);
        b.end_if(t3);
        b.exit();
        let k = b.build();
        let rep = divergence(&k, bounds());
        assert_eq!(rep.branches.len(), 3);
        assert_eq!(rep.branches[1].kind, Divergence::Uniform, "{rep:?}");
        assert_ne!(rep.branches[2].kind, Divergence::Uniform, "{rep:?}");
    }

    #[test]
    fn coalescing_classes_and_line_brackets() {
        let mut b = KernelBuilder::new("coal");
        let t = b.reg();
        let base = b.reg();
        let a4 = b.reg();
        let a256 = b.reg();
        let v = b.reg();
        b.mov_sreg(t, SReg::ThreadId);
        b.mov_sreg(base, SReg::Param(0));
        b.imul_imm(a4, t, 4);
        b.iadd(a4, a4, base);
        b.imul_imm(a256, t, 256);
        b.iadd(a256, a256, base);
        b.load(v, base, 0); // broadcast
        b.load(v, a4, 0); // stride 4: 1-2 lines
        b.store(v, a256, 0); // stride 256: fully uncoalesced
        b.load(v, v, 0); // pointer chase: unknown
        b.exit();
        let k = b.build();
        let rep = coalescing(&k, bounds(), &cfg());
        assert_eq!(rep.sites.len(), 4);
        assert_eq!(rep.sites[0].class, CoalesceClass::Broadcast);
        assert_eq!((rep.sites[0].lines_min, rep.sites[0].lines_max), (1, 1));
        assert_eq!(rep.sites[1].class, CoalesceClass::Strided(4));
        assert_eq!((rep.sites[1].lines_min, rep.sites[1].lines_max), (1, 2));
        assert_eq!(rep.sites[2].class, CoalesceClass::Strided(256));
        assert_eq!(rep.sites[2].lines_min, 32);
        assert!(rep.sites[2].is_store);
        assert_eq!(rep.sites[3].class, CoalesceClass::Unknown);
        assert_eq!(rep.sites[3].lines_max, 32);
        assert!(!rep.sites.iter().any(|s| s.misaligned));
    }

    #[test]
    fn misaligned_stride_is_flagged() {
        let mut b = KernelBuilder::new("mis");
        let t = b.reg();
        let a = b.reg();
        b.mov_sreg(t, SReg::ThreadId);
        b.imul_imm(a, t, 33);
        let p = b.reg();
        b.mov_sreg(p, SReg::Param(0));
        b.iadd(a, a, p);
        b.store(t, a, 0);
        b.exit();
        let k = b.build();
        let rep = coalescing(&k, bounds(), &cfg());
        assert_eq!(rep.sites.len(), 1);
        assert!(rep.sites[0].misaligned, "{:?}", rep.sites[0]);
    }

    #[test]
    fn cycle_bounds_bracket_a_simple_kernel() {
        let mut b = KernelBuilder::new("cost");
        let c = b.reg();
        b.mov_imm(c, 8);
        let mut l = b.begin_loop();
        b.iadd_imm(c, c, u32::MAX);
        b.break_if_z(c, &mut l);
        b.end_loop(l);
        b.exit();
        let k = b.build();
        let facts = CostFacts {
            trips: vec![TripFact::new(8, 8)],
            traversal: None,
        };
        let rep = cycle_bounds(&k, bounds(), &cfg(), &facts);
        let bounds = rep.bounds.expect("finite");
        assert!(bounds.lower >= 4, "{bounds:?}");
        assert!(bounds.upper > bounds.lower);
        assert!(rep.issues.is_empty());
    }

    #[test]
    fn missing_trip_fact_is_an_unbounded_issue() {
        let mut b = KernelBuilder::new("unbounded");
        let c = b.reg();
        b.mov_imm(c, 8);
        let mut l = b.begin_loop();
        b.iadd_imm(c, c, u32::MAX);
        b.break_if_z(c, &mut l);
        b.end_loop(l);
        b.exit();
        let k = b.build();
        let rep = cycle_bounds(&k, bounds(), &cfg(), &CostFacts::default());
        assert!(rep.bounds.is_none());
        assert!(rep
            .issues
            .iter()
            .any(|i| matches!(i, CostIssue::UnboundedLoop { .. })));
        assert!(rep
            .issues
            .iter()
            .any(|i| matches!(i, CostIssue::TripArityMismatch { .. })));
    }

    #[test]
    fn traverse_needs_a_fact_and_gets_a_floor() {
        let mut b = KernelBuilder::new("trav");
        let q = b.reg();
        let r = b.reg();
        b.mov_sreg(q, SReg::Param(0));
        b.mov_sreg(r, SReg::Param(1));
        b.traverse(q, r, 0);
        b.exit();
        let k = b.build();
        let rep = cycle_bounds(&k, bounds(), &cfg(), &CostFacts::default());
        assert!(rep
            .issues
            .iter()
            .any(|i| matches!(i, CostIssue::MissingTraversalFact { .. })));
        assert!(rep.bounds.is_none());

        let facts = CostFacts {
            trips: Vec::new(),
            traversal: Some(TraversalFact {
                min_steps: 5,
                max_steps: 40,
                step_cost_upper: 500,
            }),
        };
        let rep = cycle_bounds(&k, bounds(), &cfg(), &facts);
        let bounds = rep.bounds.expect("finite");
        // Lower includes the 5-step traversal floor on top of the path.
        assert!(bounds.lower >= 5 + 4, "{bounds:?}");
        assert!(bounds.upper >= bounds.lower);
    }

    #[test]
    fn seq_bounds_add() {
        let a = CycleBounds {
            lower: 10,
            upper: 100,
        };
        let b = CycleBounds {
            lower: 5,
            upper: 50,
        };
        assert_eq!(
            a.seq(b),
            CycleBounds {
                lower: 15,
                upper: 150
            }
        );
        assert!(a.brackets(55));
        assert!(!a.brackets(5));
    }
}
