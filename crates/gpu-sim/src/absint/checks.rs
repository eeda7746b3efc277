//! The proving passes built on the abstract interpretation: memory safety
//! against declared allocation contracts, race freedom via tid-affine
//! disjointness of write footprints, and loop termination via ranking
//! arguments on CFG back-edges.

use super::domain::Base;
use super::interp::Abstraction;
use crate::isa::{IOp, Instr, Reg};
use crate::kernel::Kernel;

/// Byte length of a declared allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContractLen {
    /// A fixed byte length (shared structures: trees, primitive pools).
    Bytes(u64),
    /// `stride` bytes per launched thread (per-thread records/stacks).
    BytesPerThread(u64),
}

impl ContractLen {
    /// Resolves to bytes for a launch of `num_threads` threads.
    pub fn bytes(self, num_threads: u32) -> u64 {
        match self {
            ContractLen::Bytes(b) => b,
            ContractLen::BytesPerThread(s) => s * num_threads as u64,
        }
    }
}

/// Declared cross-thread access discipline of an allocation — the input
/// to the race-freedom pass ([`check_races`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessMode {
    /// Read-only shared data (trees, primitive pools): any store is a
    /// proved race (or at minimum a contract violation caught as one).
    ReadShared,
    /// Per-thread exclusive region of `stride` bytes: thread `t` owns
    /// `[base + stride·t, base + stride·(t+1))`. Stores must be tid-affine
    /// with exactly this stride to be proved disjoint across threads.
    WriteExclusivePerThread {
        /// Bytes owned by each thread.
        stride: u64,
    },
    /// Deliberately shared read-write data (e.g. a union-find epilogue):
    /// the static pass accepts it; only the runtime sanitizer watches it.
    ReadWriteShared,
}

/// A declared allocation: kernel launch parameter `base_param` holds its
/// byte base address and it spans `len` bytes. Exported by every workload
/// kernel builder; the memory-safety pass proves each `Load`/`Store`
/// address interval is contained in one of these, and the race pass
/// proves accesses respect the declared [`AccessMode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemContract {
    /// Allocation name for diagnostics ("queries", "tree", ...).
    pub name: &'static str,
    /// Launch parameter index holding the base byte address.
    pub base_param: u8,
    /// Declared byte length.
    pub len: ContractLen,
    /// Declared cross-thread access discipline.
    pub mode: AccessMode,
}

impl MemContract {
    /// `bytes` per launched thread at launch parameter `param`, thread `t`
    /// owning `[base + bytes·t, base + bytes·(t+1))`: a query record or a
    /// traversal stack.
    pub const fn per_thread(name: &'static str, param: u8, bytes: u64) -> Self {
        MemContract {
            name,
            base_param: param,
            len: ContractLen::BytesPerThread(bytes),
            mode: AccessMode::WriteExclusivePerThread { stride: bytes },
        }
    }

    /// A `bytes`-byte pool at launch parameter `param` that no thread
    /// writes: a tree or a primitive pool.
    pub const fn shared(name: &'static str, param: u8, bytes: u64) -> Self {
        MemContract {
            name,
            base_param: param,
            len: ContractLen::Bytes(bytes),
            mode: AccessMode::ReadShared,
        }
    }
}

/// Outcome of the memory-safety pass for one `Load`/`Store`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemIssue {
    /// Every execution of this access is outside its allocation. Error.
    ProvedOob {
        /// PC of the access.
        pc: usize,
        /// The allocation it targets.
        alloc: &'static str,
        /// Offset interval relative to the allocation base.
        lo: i64,
        /// Upper offset bound.
        hi: i64,
        /// Resolved allocation byte length.
        len: u64,
    },
    /// The offset interval is not contained in the allocation, but some
    /// executions may be in bounds. Warning.
    PossiblyOob {
        /// PC of the access.
        pc: usize,
        /// The allocation it targets.
        alloc: &'static str,
        /// Offset interval relative to the allocation base.
        lo: i64,
        /// Upper offset bound.
        hi: i64,
        /// Resolved allocation byte length.
        len: u64,
    },
    /// The address is an offset from a parameter with no declared
    /// contract. Error: an undeclared base is invisible to both the
    /// OOB prover and the race prover.
    NoContract {
        /// PC of the access.
        pc: usize,
        /// The undeclared base parameter.
        param: u8,
    },
    /// The address abstraction carries no usable base (pointer-chasing
    /// through loaded values). Warning.
    UnknownAddress {
        /// PC of the access.
        pc: usize,
    },
}

impl MemIssue {
    /// Errors gate CI; warnings are advisory.
    pub fn is_error(&self) -> bool {
        matches!(
            self,
            MemIssue::ProvedOob { .. } | MemIssue::NoContract { .. }
        )
    }
}

impl std::fmt::Display for MemIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemIssue::ProvedOob {
                pc,
                alloc,
                lo,
                hi,
                len,
            } => write!(
                f,
                "pc {pc}: access at {alloc}+[{lo}, {hi}] is provably outside \
                 the {len}-byte allocation"
            ),
            MemIssue::PossiblyOob {
                pc,
                alloc,
                lo,
                hi,
                len,
            } => write!(
                f,
                "pc {pc}: access at {alloc}+[{lo}, {hi}] may leave the \
                 {len}-byte allocation"
            ),
            MemIssue::NoContract { pc, param } => write!(
                f,
                "pc {pc}: access relative to Param({param}) which has no \
                 declared MemContract"
            ),
            MemIssue::UnknownAddress { pc } => write!(
                f,
                "pc {pc}: address abstraction has no symbolic base \
                 (pointer-chasing); not provable"
            ),
        }
    }
}

/// Result of [`check_memory`].
#[derive(Debug, Clone, Default)]
pub struct MemReport {
    /// Accesses proved inside their declared allocation.
    pub proved: usize,
    /// Accesses that could not be proved (or are provably wrong).
    pub issues: Vec<MemIssue>,
}

/// Access width: every `Load`/`Store` moves one 32-bit word.
const ACCESS_BYTES: i64 = 4;

/// Checks every `Load`/`Store` address interval against the declared
/// contracts, under the abstraction's launch bounds.
pub fn check_memory(kernel: &Kernel, abs: &Abstraction, contracts: &[MemContract]) -> MemReport {
    let mut report = MemReport::default();
    for (pc, instr) in kernel.instrs.iter().enumerate() {
        let (rs_addr, offset) = match *instr {
            Instr::Load {
                rs_addr, offset, ..
            }
            | Instr::Store {
                rs_addr, offset, ..
            } => (rs_addr, offset),
            _ => continue,
        };
        let Some(addr) = abs.reg_in(pc, rs_addr.0) else {
            continue; // unreachable access — verify reports the dead region
        };
        // Fold the symbolic tid term into the interval: the OOB question
        // is about the union of all threads' footprints.
        let addr = addr
            .add_const(offset as i64)
            .concretize_tid(abs.bounds.num_threads.saturating_sub(1));
        match addr.base {
            Base::Many => report.issues.push(MemIssue::UnknownAddress { pc }),
            Base::Zero => report.issues.push(MemIssue::UnknownAddress { pc }),
            Base::Param(p) => {
                let Some(c) = contracts.iter().find(|c| c.base_param == p) else {
                    report.issues.push(MemIssue::NoContract { pc, param: p });
                    continue;
                };
                let len = c.len.bytes(abs.bounds.num_threads);
                if addr.lo >= 0 && addr.hi + ACCESS_BYTES <= len as i64 {
                    report.proved += 1;
                } else if addr.hi < 0 || addr.lo > len as i64 - ACCESS_BYTES {
                    report.issues.push(MemIssue::ProvedOob {
                        pc,
                        alloc: c.name,
                        lo: addr.lo,
                        hi: addr.hi,
                        len,
                    });
                } else {
                    report.issues.push(MemIssue::PossiblyOob {
                        pc,
                        alloc: c.name,
                        lo: addr.lo,
                        hi: addr.hi,
                        len,
                    });
                }
            }
        }
    }
    report
}

/// Outcome of the race-freedom pass for one `Load`/`Store`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RaceIssue {
    /// Two distinct tids' footprints provably conflict: a store targets a
    /// `ReadShared` allocation, or a store into a `WriteExclusivePerThread`
    /// allocation is tid-independent (every thread writes the same words).
    /// Error.
    ProvedRace {
        /// PC of the access.
        pc: usize,
        /// The allocation it targets.
        alloc: &'static str,
        /// What made the conflict provable.
        reason: &'static str,
    },
    /// The access's cross-thread disjointness could not be refuted or
    /// proved (e.g. a tid stride that disagrees with the declared
    /// per-thread stride). Warning — the runtime sanitizer still watches.
    PossibleRace {
        /// PC of the access.
        pc: usize,
        /// The allocation it targets, when attributable.
        alloc: &'static str,
        /// Why disjointness is not provable.
        reason: &'static str,
    },
}

impl RaceIssue {
    /// Errors gate CI; warnings are advisory.
    pub fn is_error(&self) -> bool {
        matches!(self, RaceIssue::ProvedRace { .. })
    }
}

impl std::fmt::Display for RaceIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RaceIssue::ProvedRace { pc, alloc, reason } => write!(
                f,
                "pc {pc}: store into {alloc} is a proved cross-thread race: {reason}"
            ),
            RaceIssue::PossibleRace { pc, alloc, reason } => write!(
                f,
                "pc {pc}: access into {alloc} is not provably race-free: {reason}"
            ),
        }
    }
}

/// Result of [`check_races`].
#[derive(Debug, Clone, Default)]
pub struct RaceReport {
    /// Accesses proved disjoint across threads (or harmlessly shared).
    pub proved: usize,
    /// Accesses that could not be proved race-free (or provably race).
    pub issues: Vec<RaceIssue>,
}

/// Proves every `Load`/`Store` respects its allocation's declared
/// [`AccessMode`] across threads.
///
/// The proof decomposes race freedom of a `WriteExclusivePerThread`
/// allocation into **tid-affinity** (the address is `base + stride·tid + δ`
/// with exactly the declared stride — proved here) and **slot confinement**
/// (δ stays inside one thread's `stride`-byte slot — this is precisely the
/// memory-safety obligation [`check_memory`] already discharges per-slot
/// via the footprint interval, backed at runtime by the shadow checker and
/// race sanitizer). Two threads `t ≠ u` with affine addresses at the same
/// stride differ by `stride·(t-u) ≠ 0`, so confined footprints are
/// disjoint.
///
/// Loads through unknown bases (pointer-chasing node walks) are out of
/// scope: reads race only with writes, and every attributable write is
/// covered; unattributable *stores* are flagged. Launches with a single
/// thread are trivially race-free.
pub fn check_races(kernel: &Kernel, abs: &Abstraction, contracts: &[MemContract]) -> RaceReport {
    let mut report = RaceReport::default();
    if abs.bounds.num_threads <= 1 {
        report.proved = kernel
            .instrs
            .iter()
            .filter(|i| matches!(i, Instr::Load { .. } | Instr::Store { .. }))
            .count();
        return report;
    }
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
        let Some(addr) = abs.reg_in(pc, rs_addr.0) else {
            continue; // unreachable access
        };
        let addr = addr.add_const(offset as i64);
        let contract = match addr.base {
            Base::Param(p) => contracts.iter().find(|c| c.base_param == p),
            // No symbolic base: loads are pointer-chasing node walks
            // (reads only race with writes, all attributable writes are
            // checked); an unattributable store cannot be proved disjoint.
            Base::Zero | Base::Many => {
                if is_store {
                    report.issues.push(RaceIssue::PossibleRace {
                        pc,
                        alloc: "<unknown>",
                        reason: "store address has no symbolic base",
                    });
                } else {
                    report.proved += 1;
                }
                continue;
            }
        };
        let Some(c) = contract else {
            continue; // NoContract is already an error in check_memory
        };
        match c.mode {
            AccessMode::ReadWriteShared => report.proved += 1,
            AccessMode::ReadShared => {
                if is_store {
                    report.issues.push(RaceIssue::ProvedRace {
                        pc,
                        alloc: c.name,
                        reason: "allocation is declared ReadShared",
                    });
                } else {
                    report.proved += 1;
                }
            }
            AccessMode::WriteExclusivePerThread { stride } => {
                if addr.tid_stride == stride as i64 {
                    // Tid-affine at the declared stride: slot confinement
                    // (the δ bound) is check_memory's obligation.
                    report.proved += 1;
                } else if addr.tid_stride == 0 {
                    if is_store {
                        report.issues.push(RaceIssue::ProvedRace {
                            pc,
                            alloc: c.name,
                            reason: "store address is tid-independent — \
                                     all threads write the same words",
                        });
                    } else {
                        report.issues.push(RaceIssue::PossibleRace {
                            pc,
                            alloc: c.name,
                            reason: "load address is tid-independent in a \
                                     per-thread-exclusive allocation",
                        });
                    }
                } else {
                    report.issues.push(RaceIssue::PossibleRace {
                        pc,
                        alloc: c.name,
                        reason: "tid stride disagrees with the declared \
                                 per-thread stride",
                    });
                }
            }
        }
    }
    report
}

/// The ranking argument justifying a back-edge's termination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopRank {
    /// The exit compares a counter that every in-body definition moves in
    /// one direction by a nonzero constant, against a loop-invariant
    /// bound.
    MonotoneCounter {
        /// The counter register.
        reg: u8,
    },
    /// The exit condition is recomputed inside the body (e.g. a stack
    /// emptiness test), so the loop can observe progress and exit.
    ExitReachable {
        /// The condition register.
        reg: u8,
    },
    /// The body contains an `Exit` instruction.
    ExitInstr,
}

/// One analyzed back-edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoopSummary {
    /// Loop head (the back-edge's target).
    pub head: usize,
    /// PC of the back-edge instruction.
    pub back_pc: usize,
    /// The accepted ranking argument, if one was found.
    pub rank: Option<LoopRank>,
}

/// Termination defects. Both variants are errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TermIssue {
    /// No control-flow edge leaves the loop body: once entered, the warp
    /// can never terminate.
    NoExitEdge {
        /// Loop head.
        head: usize,
        /// Back-edge PC.
        back_pc: usize,
    },
    /// Every exit condition is loop-invariant (never written inside the
    /// body): a warp that enters with the non-exiting value spins forever.
    InvariantExitCond {
        /// Loop head.
        head: usize,
        /// Back-edge PC.
        back_pc: usize,
        /// The invariant condition register.
        reg: u8,
    },
}

impl std::fmt::Display for TermIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TermIssue::NoExitEdge { head, back_pc } => write!(
                f,
                "loop pc {head}..={back_pc}: no exit edge leaves the loop body"
            ),
            TermIssue::InvariantExitCond { head, back_pc, reg } => write!(
                f,
                "loop pc {head}..={back_pc}: exit condition r{reg} is \
                 loop-invariant — no ranking argument"
            ),
        }
    }
}

/// Result of [`check_termination`].
#[derive(Debug, Clone, Default)]
pub struct TermReport {
    /// Every back-edge with its accepted ranking argument.
    pub loops: Vec<LoopSummary>,
    /// Back-edges with no ranking argument.
    pub issues: Vec<TermIssue>,
}

/// Proves every CFG back-edge carries a ranking argument.
pub fn check_termination(kernel: &Kernel) -> TermReport {
    let mut report = TermReport::default();
    for (pc, instr) in kernel.instrs.iter().enumerate() {
        let (head, cond_on_back_edge) = match *instr {
            Instr::Jump { target } if (target as usize) <= pc => (target as usize, None),
            Instr::BranchNz { rs, target, .. } | Instr::BranchZ { rs, target, .. }
                if (target as usize) <= pc =>
            {
                (target as usize, Some(rs))
            }
            _ => continue,
        };
        let back_pc = pc;
        let body = &kernel.instrs[head..=back_pc];
        // Exit conditions: branches inside the body that leave it, the
        // fallthrough of a conditional back-edge, and `Exit` itself.
        let mut has_exit_instr = false;
        let mut exit_conds: Vec<Reg> = cond_on_back_edge.into_iter().collect();
        for (i, b) in body.iter().enumerate() {
            match *b {
                Instr::Exit => has_exit_instr = true,
                Instr::BranchNz { rs, target, .. } | Instr::BranchZ { rs, target, .. }
                    if (target as usize) > back_pc =>
                {
                    exit_conds.push(rs);
                }
                Instr::Jump { target } if (target as usize) > back_pc && head + i != back_pc => {
                    // An unconditional jump out (e.g. an `else` arm that
                    // leaves): treat as an exit with no condition needed.
                    has_exit_instr = true;
                }
                _ => {}
            }
        }
        if !has_exit_instr && exit_conds.is_empty() {
            report.issues.push(TermIssue::NoExitEdge { head, back_pc });
            report.loops.push(LoopSummary {
                head,
                back_pc,
                rank: None,
            });
            continue;
        }
        let rank = if let Some(r) = exit_conds.iter().find_map(|&r| monotone_counter(body, r)) {
            Some(LoopRank::MonotoneCounter { reg: r })
        } else if let Some(&r) = exit_conds.iter().find(|&&r| writes_reg(body, r)) {
            Some(LoopRank::ExitReachable { reg: r.0 })
        } else if has_exit_instr {
            Some(LoopRank::ExitInstr)
        } else {
            None
        };
        if rank.is_none() {
            report.issues.push(TermIssue::InvariantExitCond {
                head,
                back_pc,
                reg: exit_conds[0].0,
            });
        }
        report.loops.push(LoopSummary {
            head,
            back_pc,
            rank,
        });
    }
    report
}

/// `true` when any instruction in `body` writes `r`.
fn writes_reg(body: &[Instr], r: Reg) -> bool {
    body.iter().any(|i| i.dest() == Some(r))
}

/// When `cond`'s single in-body definition compares a monotone counter
/// against a loop-invariant bound, returns the counter register.
fn monotone_counter(body: &[Instr], cond: Reg) -> Option<u8> {
    let mut defs = body.iter().filter(|i| i.dest() == Some(cond));
    let def = defs.next()?;
    if defs.next().is_some() {
        return None;
    }
    let (rs1, rs2) = match *def {
        Instr::ICmp { rs1, rs2, .. } => (rs1, rs2),
        _ => return None,
    };
    for (counter, bound) in [(rs1, rs2), (rs2, rs1)] {
        if writes_reg(body, bound) || counter == bound {
            continue;
        }
        if is_monotone(body, counter) {
            return Some(counter.0);
        }
    }
    None
}

/// `true` when every in-body definition of `r` moves it by a nonzero
/// constant and all such steps share one sign.
fn is_monotone(body: &[Instr], r: Reg) -> bool {
    let mut sign = 0i64;
    let mut any = false;
    for i in body {
        if i.dest() != Some(r) {
            continue;
        }
        let step = match *i {
            Instr::IAluImm {
                op: IOp::Add,
                rs1,
                imm,
                ..
            } if rs1 == r => imm as i32 as i64,
            Instr::IAluImm {
                op: IOp::Sub,
                rs1,
                imm,
                ..
            } if rs1 == r => -(imm as i32 as i64),
            _ => return false,
        };
        if step == 0 {
            return false;
        }
        let s = step.signum();
        if sign != 0 && s != sign {
            return false;
        }
        sign = s;
        any = true;
    }
    any
}
