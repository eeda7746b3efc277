//! Static kernel checks: catch common authoring mistakes in mini-ISA
//! kernels before simulation (read-before-write registers, unreachable
//! regions, out-of-bounds branch targets, missing `Exit`, register
//! pressure, SIMT-stack depth bounds).
//!
//! Hand-writing traversal kernels with the builder is error-prone in
//! exactly the ways real assembly is; [`check`] runs a conservative
//! abstract interpretation over the CFG and reports [`KernelIssue`]s.
//! Issues split into errors and warnings (see [`KernelIssue::is_error`]):
//! errors gate CI through `tta-lint`, warnings are advisory. The workload
//! tests run the checker over every shipped kernel.

use crate::kernel::Kernel;

/// A problem found in a kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelIssue {
    /// A register is read on some path before any instruction writes it.
    ReadBeforeWrite {
        /// Program counter of the reading instruction.
        pc: usize,
        /// The register.
        reg: u8,
    },
    /// A maximal run of instructions that can never be reached from PC 0
    /// (typically the region after an unconditional `Jump`).
    UnreachableRegion {
        /// First dead program counter.
        start: usize,
        /// Last dead program counter (inclusive).
        end: usize,
    },
    /// A branch or jump targets a PC past the end of the kernel.
    BranchOutOfBounds {
        /// Program counter of the branching instruction.
        pc: usize,
        /// The out-of-bounds target.
        target: usize,
    },
    /// Some path falls through the last instruction without reaching
    /// `Exit`.
    MissingExit {
        /// Program counter of the instruction that falls off the end.
        pc: usize,
    },
    /// The kernel needs more live registers than one warp-buffer record
    /// holds (16 × 32-bit, Fig. 7) — legal on the SIMT cores, but such a
    /// kernel's state cannot be captured in a traversal record. Warning.
    RegisterPressure {
        /// Registers the kernel allocates.
        used: usize,
        /// The warp-buffer record budget.
        limit: usize,
    },
    /// The structural worst-case SIMT stack depth (one base entry plus
    /// two per nested divergent-branch region, from
    /// [`crate::absint::stack_bound`]) exceeds the hardware stack
    /// capacity [`crate::simt::SIMT_STACK_LIMIT`].
    StackDepthExceeded {
        /// Structural worst-case stack depth.
        depth: usize,
        /// The hardware stack capacity.
        limit: usize,
    },
}

impl KernelIssue {
    /// Whether this issue is an error (gates CI) rather than an advisory
    /// warning.
    pub fn is_error(&self) -> bool {
        !matches!(self, KernelIssue::RegisterPressure { .. })
    }
}

impl std::fmt::Display for KernelIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KernelIssue::ReadBeforeWrite { pc, reg } => {
                write!(
                    f,
                    "pc {pc}: register r{reg} may be read before it is written"
                )
            }
            KernelIssue::UnreachableRegion { start, end } => {
                write!(f, "pc {start}..={end}: unreachable instructions")
            }
            KernelIssue::BranchOutOfBounds { pc, target } => {
                write!(f, "pc {pc}: branch target {target} is past the kernel end")
            }
            KernelIssue::MissingExit { pc } => {
                write!(f, "pc {pc}: control falls off the kernel without Exit")
            }
            KernelIssue::RegisterPressure { used, limit } => {
                write!(
                    f,
                    "kernel allocates {used} registers; the warp-buffer record holds {limit}"
                )
            }
            KernelIssue::StackDepthExceeded { depth, limit } => {
                write!(
                    f,
                    "worst-case SIMT stack depth {depth} exceeds the hardware \
                     stack capacity {limit}"
                )
            }
        }
    }
}

/// Registers one 64-byte warp-buffer record can capture (Fig. 7).
pub const WARP_RECORD_REGS: usize = 16;

/// Checks a kernel; returns every issue found (empty = clean).
///
/// The analysis is a forward dataflow over the CFG: the set of
/// definitely-written registers is intersected at join points, so a
/// `ReadBeforeWrite` report means *some* path reaches the read without a
/// write — conservative but exact for the structured CFGs the builder
/// emits. Filter with [`KernelIssue::is_error`] when only CI-gating
/// defects matter.
pub fn check(kernel: &Kernel) -> Vec<KernelIssue> {
    let n = kernel.instrs.len();
    if n == 0 {
        // With no instructions, PC 0 *is* the virtual end PC: control
        // falls off before any `Exit`. The analysis below would otherwise
        // see the end as reached with no faller to anchor the report to.
        return vec![KernelIssue::MissingExit { pc: 0 }];
    }
    let mut issues = Vec::new();

    // written[pc] = bitmask of registers definitely written before pc
    // executes; None = not yet visited. Slot n is the virtual
    // "fell off the end" PC.
    let mut written: Vec<Option<u128>> = vec![None; n + 1];
    written[0] = Some(0);
    let mut work = vec![0usize];
    // First instruction seen falling through / branching to the end.
    let mut fell_off_from: Option<usize> = None;

    while let Some(pc) = work.pop() {
        if pc >= n {
            continue;
        }
        let in_set = written[pc].expect("queued pcs are initialised");
        let instr = &kernel.instrs[pc];

        // Report reads of never-written registers (first time only).
        let (srcs, cnt) = instr.sources_packed();
        for r in &srcs[..cnt] {
            if in_set & (1u128 << r.0) == 0 {
                let issue = KernelIssue::ReadBeforeWrite { pc, reg: r.0 };
                if !issues.contains(&issue) {
                    issues.push(issue);
                }
            }
        }

        let mut out = in_set;
        if let Some(rd) = instr.dest() {
            out |= 1u128 << rd.0;
        }

        let (succs, count) = crate::absint::successors(instr, pc);
        for &succ in &succs[..count] {
            if succ > n {
                // A branch past the virtual end PC can never execute —
                // the target does not exist.
                let issue = KernelIssue::BranchOutOfBounds { pc, target: succ };
                if !issues.contains(&issue) {
                    issues.push(issue);
                }
                continue;
            }
            if succ == n && fell_off_from.is_none() {
                fell_off_from = Some(pc);
            }
            let merged = match written[succ] {
                // Join: a register counts as written only when written on
                // every incoming path.
                Some(prev) => prev & out,
                None => out,
            };
            if written[succ] != Some(merged) {
                written[succ] = Some(merged);
                work.push(succ);
            }
        }
    }

    // Coalesce never-visited PCs into maximal dead regions.
    let mut pc = 0usize;
    while pc < n {
        if written[pc].is_none() {
            let start = pc;
            while pc < n && written[pc].is_none() {
                pc += 1;
            }
            issues.push(KernelIssue::UnreachableRegion { start, end: pc - 1 });
        } else {
            pc += 1;
        }
    }
    // Reaching the virtual end PC means some path never hit `Exit`.
    if written[n].is_some() {
        issues.push(KernelIssue::MissingExit {
            pc: fell_off_from.expect("end PC reached from somewhere"),
        });
    }
    if kernel.num_regs > WARP_RECORD_REGS {
        issues.push(KernelIssue::RegisterPressure {
            used: kernel.num_regs,
            limit: WARP_RECORD_REGS,
        });
    }
    // Worst-case SIMT stack depth from the divergent-branch region
    // nesting of the CFG — the same computation the simulator's shadow
    // checker bounds itself by, against the same hardware constant.
    let bound = crate::absint::stack_bound(kernel);
    if !bound.proves_limit() {
        issues.push(KernelIssue::StackDepthExceeded {
            depth: bound.structural_depth,
            limit: crate::simt::SIMT_STACK_LIMIT,
        });
    }
    issues
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{Cmp, Instr, Reg, SReg};
    use crate::kernel::KernelBuilder;

    #[test]
    fn clean_kernel_passes() {
        let mut k = KernelBuilder::new("clean");
        let a = k.reg();
        let b = k.reg();
        k.mov_sreg(a, SReg::ThreadId);
        k.iadd_imm(b, a, 1);
        let t = k.begin_if_nz(b);
        k.iadd_imm(a, a, 2);
        k.end_if(t);
        k.store(a, b, 0);
        k.exit();
        assert_eq!(check(&k.build()), vec![]);
    }

    #[test]
    fn read_before_write_is_reported() {
        let mut k = KernelBuilder::new("rbw");
        let a = k.reg();
        let b = k.reg();
        k.iadd_imm(b, a, 1); // reads r0 before any write
        k.store(b, b, 0);
        k.exit();
        let issues = check(&k.build());
        assert!(issues.contains(&KernelIssue::ReadBeforeWrite { pc: 0, reg: 0 }));
    }

    #[test]
    fn write_on_only_one_branch_arm_is_flagged_after_join() {
        let mut k = KernelBuilder::new("halfwrite");
        let c = k.reg();
        let v = k.reg();
        k.mov_sreg(c, SReg::ThreadId);
        let t = k.begin_if_nz(c);
        k.mov_imm(v, 7); // v written only when c != 0
        k.end_if(t);
        k.store(v, c, 0); // may read unwritten v
        k.exit();
        let issues = check(&k.build());
        assert!(
            issues
                .iter()
                .any(|i| matches!(i, KernelIssue::ReadBeforeWrite { reg: 1, .. })),
            "{issues:?}"
        );
    }

    #[test]
    fn loops_do_not_false_positive() {
        let mut k = KernelBuilder::new("loop");
        let i = k.reg();
        let n = k.reg();
        let c = k.reg();
        k.mov_imm(i, 0);
        k.mov_imm(n, 10);
        let mut l = k.begin_loop();
        k.icmp(Cmp::Lt, c, i, n);
        k.break_if_z(c, &mut l);
        k.iadd_imm(i, i, 1);
        k.end_loop(l);
        k.store(i, n, 0);
        k.exit();
        assert_eq!(check(&k.build()), vec![]);
    }

    /// Regression: a jump past the kernel end used to be silently ignored
    /// (`succ > n` hit a bare `continue`) — it must be reported.
    #[test]
    fn branch_past_kernel_end_is_reported() {
        let k = Kernel {
            name: "oob".into(),
            instrs: vec![
                Instr::MovImm { rd: Reg(0), imm: 1 },
                Instr::Jump { target: 999 },
                Instr::Exit,
            ],
            num_regs: 1,
        };
        let issues = check(&k);
        assert!(
            issues.contains(&KernelIssue::BranchOutOfBounds { pc: 1, target: 999 }),
            "{issues:?}"
        );
        // The Exit after the bad jump is also dead.
        assert!(issues.contains(&KernelIssue::UnreachableRegion { start: 2, end: 2 }));
    }

    /// Regression: falling through the last instruction without `Exit`
    /// used to be accepted.
    #[test]
    fn missing_exit_is_reported() {
        let k = Kernel {
            name: "noexit".into(),
            instrs: vec![
                Instr::MovImm { rd: Reg(0), imm: 1 },
                Instr::MovImm { rd: Reg(1), imm: 2 },
            ],
            num_regs: 2,
        };
        let issues = check(&k);
        assert!(
            issues.contains(&KernelIssue::MissingExit { pc: 1 }),
            "{issues:?}"
        );
        // Only one path falls off — one report, anchored to the last pc.
        assert_eq!(
            issues
                .iter()
                .filter(|i| matches!(i, KernelIssue::MissingExit { .. }))
                .count(),
            1
        );
    }

    /// Regression: an empty kernel used to panic (the virtual end PC was
    /// also the entry, "reached" with no faller to anchor the report to).
    #[test]
    fn empty_kernel_is_reported_not_a_panic() {
        let k = Kernel {
            name: "empty".into(),
            instrs: vec![],
            num_regs: 0,
        };
        assert_eq!(check(&k), vec![KernelIssue::MissingExit { pc: 0 }]);
    }

    #[test]
    fn unreachable_instructions_coalesce_into_one_region() {
        let k = Kernel {
            name: "dead".into(),
            instrs: vec![
                Instr::Jump { target: 4 },
                Instr::MovImm { rd: Reg(0), imm: 0 },
                Instr::MovImm { rd: Reg(0), imm: 1 },
                Instr::MovImm { rd: Reg(0), imm: 2 },
                Instr::Exit,
            ],
            num_regs: 1,
        };
        let issues = check(&k);
        assert_eq!(
            issues,
            vec![KernelIssue::UnreachableRegion { start: 1, end: 3 }]
        );
    }

    #[test]
    fn register_pressure_is_a_warning_not_an_error() {
        let mut k = KernelBuilder::new("fat");
        let regs: Vec<_> = (0..20).map(|_| k.reg()).collect();
        for &r in &regs {
            k.mov_imm(r, 1);
        }
        k.exit();
        let issues = check(&k.build());
        assert!(issues.contains(&KernelIssue::RegisterPressure {
            used: 20,
            limit: WARP_RECORD_REGS
        }));
        assert!(
            issues.iter().all(|i| !i.is_error()),
            "register pressure alone must not make the kernel erroneous: {issues:?}"
        );
    }

    #[test]
    fn deep_nesting_is_a_stack_depth_error() {
        let mut k = KernelBuilder::new("deep");
        let c = k.reg();
        k.mov_sreg(c, SReg::ThreadId);
        let tokens: Vec<_> = (0..32).map(|_| k.begin_if_nz(c)).collect();
        k.iadd_imm(c, c, 1);
        for t in tokens.into_iter().rev() {
            k.end_if(t);
        }
        k.exit();
        let issues = check(&k.build());
        assert!(
            issues.contains(&KernelIssue::StackDepthExceeded {
                depth: 65,
                limit: crate::simt::SIMT_STACK_LIMIT
            }),
            "{issues:?}"
        );
        assert!(issues.iter().any(|i| i.is_error()));
    }

    #[test]
    fn shipped_workload_kernels_are_clean() {
        // The production kernels must all pass the validator. (This lives
        // here as a smoke test; the workloads crate re-runs it per kernel.)
        let mut k = KernelBuilder::new("traverse_only_shape");
        let tid = k.reg();
        let q = k.reg();
        k.mov_sreg(tid, SReg::ThreadId);
        k.mov_sreg(q, SReg::Param(0));
        k.traverse(q, tid, 0);
        k.exit();
        assert_eq!(check(&k.build()), vec![]);
    }
}
