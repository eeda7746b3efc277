//! Dataflow verification for μop programs — the program-level half of the
//! `tta-lint` static analyzer.
//!
//! A [`crate::programs::UopProgram`] carries full operand routing since the
//! lint subsystem landed; this module walks that routing and rejects
//! ill-formed programs *before* any cycle is simulated:
//!
//! * **read-before-write** — a μop reads an OP Dest Table slot no earlier
//!   μop has written (the crossbar would route garbage);
//! * **dead result** — a μop's result slot is overwritten before anything
//!   reads it (the μop burns a unit and a crossbar hop for nothing);
//! * **dest-table capacity** — a dest slot index beyond
//!   [`crate::programs::OP_DEST_SLOTS`];
//! * **crossbar fan-in** — a single μop routing more source transfers than
//!   [`crate::TtaPlusConfig::crossbar_parallel_transfers`] sustains per
//!   cycle;
//! * **SQRT-without-SQRT-unit** — a SQRT μop on a config built with
//!   `with_sqrt: false` (the "TTA+ without SQRT" design point of Table IV);
//! * **latency bound** — the routed critical path (not the purely serial
//!   `unit_latency_sum`) exceeds twice the baseline RTA's shader-callback
//!   latency, at which point offloading the test can never beat the SIMT
//!   fallback it replaces.
//!
//! Slots still live when the program ends are treated as outputs (the final
//! predicate plus any ray-record writebacks), never as dead results.

use crate::op_unit::OpUnit;
use crate::programs::{Operand, UopProgram, OP_DEST_SLOTS};
use crate::ttaplus::TtaPlusConfig;
use rta::config::RtaConfig;

/// One dataflow defect found in a μop program. Every variant pinpoints the
/// μop index (`pc`) it anchors to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgramIssue {
    /// μop `pc` reads `slot` before any μop writes it.
    ReadBeforeWrite {
        /// Index of the offending μop.
        pc: usize,
        /// The unwritten OP Dest Table slot it reads.
        slot: u8,
    },
    /// μop `pc` writes `slot`, which is overwritten before any read.
    DeadResult {
        /// Index of the μop whose result is discarded.
        pc: usize,
        /// The slot whose value is never consumed.
        slot: u8,
    },
    /// μop `pc` targets a dest slot beyond the OP Dest Table.
    DestTableOverflow {
        /// Index of the offending μop.
        pc: usize,
        /// The out-of-range slot index.
        slot: u8,
    },
    /// μop `pc` routes more concurrent source transfers than the crossbar
    /// sustains.
    CrossbarFanIn {
        /// Index of the offending μop.
        pc: usize,
        /// Transfers the μop needs in one step.
        fan_in: usize,
        /// Transfers the configured crossbar provides.
        limit: usize,
    },
    /// μop `pc` is a SQRT but the configuration has no SQRT unit.
    SqrtWithoutUnit {
        /// Index of the offending μop.
        pc: usize,
    },
    /// The routed critical path exceeds the profitability bound.
    LatencyBound {
        /// Critical-path latency of the program, cycles.
        critical_path: u64,
        /// The bound (twice the shader-callback latency).
        bound: u64,
    },
}

impl ProgramIssue {
    /// μop index the issue anchors to (`None` for whole-program issues).
    pub fn pc(&self) -> Option<usize> {
        match self {
            ProgramIssue::ReadBeforeWrite { pc, .. }
            | ProgramIssue::DeadResult { pc, .. }
            | ProgramIssue::DestTableOverflow { pc, .. }
            | ProgramIssue::CrossbarFanIn { pc, .. }
            | ProgramIssue::SqrtWithoutUnit { pc } => Some(*pc),
            ProgramIssue::LatencyBound { .. } => None,
        }
    }
}

impl std::fmt::Display for ProgramIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProgramIssue::ReadBeforeWrite { pc, slot } => {
                write!(
                    f,
                    "μop {pc} reads OP Dest Table slot {slot} before any write"
                )
            }
            ProgramIssue::DeadResult { pc, slot } => {
                write!(
                    f,
                    "μop {pc} writes slot {slot} but the result is overwritten unread"
                )
            }
            ProgramIssue::DestTableOverflow { pc, slot } => write!(
                f,
                "μop {pc} targets slot {slot}, beyond the {OP_DEST_SLOTS}-slot OP Dest Table"
            ),
            ProgramIssue::CrossbarFanIn { pc, fan_in, limit } => write!(
                f,
                "μop {pc} routes {fan_in} source transfers but the crossbar sustains {limit}"
            ),
            ProgramIssue::SqrtWithoutUnit { pc } => {
                write!(
                    f,
                    "μop {pc} is a SQRT but the configuration has no SQRT unit"
                )
            }
            ProgramIssue::LatencyBound {
                critical_path,
                bound,
            } => write!(
                f,
                "critical path of {critical_path} cycles exceeds the {bound}-cycle \
                 profitability bound (2x shader callback)"
            ),
        }
    }
}

/// Runs every program-level pass over `program` under `cfg`.
///
/// The returned issues are ordered by μop index (whole-program issues
/// last). An empty vector means the program is clean.
///
/// # Examples
///
/// ```
/// use tta::dataflow::check_program;
/// use tta::programs::UopProgram;
/// use tta::ttaplus::TtaPlusConfig;
///
/// let issues = check_program(&UopProgram::ray_box(), &TtaPlusConfig::default_paper());
/// assert!(issues.is_empty());
/// ```
pub fn check_program(program: &UopProgram, cfg: &TtaPlusConfig) -> Vec<ProgramIssue> {
    let mut issues = Vec::new();
    let uops = program.uops();

    // written[s] = Some(pc of the live write) once slot s holds a value;
    // read_since[s] = whether that live write has been consumed.
    let mut written: [Option<usize>; 256] = [None; 256];
    let mut read_since: [bool; 256] = [false; 256];

    for (pc, uop) in uops.iter().enumerate() {
        for op in uop.operands() {
            if let Operand::Slot(s) = op {
                match written[s as usize] {
                    Some(_) => read_since[s as usize] = true,
                    None => issues.push(ProgramIssue::ReadBeforeWrite { pc, slot: s }),
                }
            }
        }
        if uop.dest as usize >= OP_DEST_SLOTS {
            issues.push(ProgramIssue::DestTableOverflow { pc, slot: uop.dest });
        }
        let fan_in = uop.crossbar_fan_in();
        if fan_in > cfg.crossbar_parallel_transfers {
            issues.push(ProgramIssue::CrossbarFanIn {
                pc,
                fan_in,
                limit: cfg.crossbar_parallel_transfers,
            });
        }
        if uop.unit == OpUnit::Sqrt && !cfg.with_sqrt {
            issues.push(ProgramIssue::SqrtWithoutUnit { pc });
        }
        // Overwriting an unread live value kills the earlier μop's result.
        let d = uop.dest as usize;
        if let Some(prev) = written[d] {
            if !read_since[d] {
                issues.push(ProgramIssue::DeadResult {
                    pc: prev,
                    slot: uop.dest,
                });
            }
        }
        written[d] = Some(pc);
        read_since[d] = false;
    }
    // Slots live at program end are outputs — no DeadResult for them.

    let critical_path = program.critical_path_latency(cfg.crossbar_hop_latency);
    let bound = 2 * RtaConfig::baseline().shader_callback_latency;
    if critical_path > bound {
        issues.push(ProgramIssue::LatencyBound {
            critical_path,
            bound,
        });
    }
    issues
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs::Uop;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn cfg() -> TtaPlusConfig {
        TtaPlusConfig::default_paper()
    }

    #[test]
    fn all_table_iii_programs_are_clean() {
        for p in [
            UopProgram::query_key_inner(),
            UopProgram::query_key_leaf(),
            UopProgram::point_to_point_inner(),
            UopProgram::nbody_force_leaf(),
            UopProgram::ray_box(),
            UopProgram::rtnn_leaf(),
            UopProgram::ray_sphere_leaf(),
            UopProgram::ray_triangle_leaf(),
            UopProgram::transform(),
            UopProgram::nbody_force_leaf().fuse_muls_into_xform(),
        ] {
            let issues = check_program(&p, &cfg());
            assert!(issues.is_empty(), "{}: {issues:?}", p.name());
        }
    }

    #[test]
    fn read_before_write_is_reported_with_location() {
        let p = UopProgram::from_uops(
            "bad",
            vec![Uop::new(OpUnit::Vec3Cmp, &[Operand::Slot(5)], 0)],
        )
        .unwrap();
        let issues = check_program(&p, &cfg());
        assert!(issues.contains(&ProgramIssue::ReadBeforeWrite { pc: 0, slot: 5 }));
    }

    #[test]
    fn dead_result_is_reported_at_the_dead_write() {
        let p = UopProgram::from_uops(
            "bad",
            vec![
                Uop::new(OpUnit::Vec3Cmp, &[Operand::Ray(0)], 3),
                Uop::new(OpUnit::Vec3Cmp, &[Operand::Ray(0)], 3),
            ],
        )
        .unwrap();
        let issues = check_program(&p, &cfg());
        assert!(issues.contains(&ProgramIssue::DeadResult { pc: 0, slot: 3 }));
    }

    #[test]
    fn live_out_slots_are_outputs_not_dead_results() {
        // query_key_leaf writes three slots nothing reads — they are the
        // found flags written back to the ray record.
        let issues = check_program(&UopProgram::query_key_leaf(), &cfg());
        assert!(issues.is_empty(), "{issues:?}");
    }

    #[test]
    fn sqrt_without_unit_is_rejected() {
        let mut c = cfg();
        c.with_sqrt = false;
        let issues = check_program(&UopProgram::ray_sphere_leaf(), &c);
        assert!(issues
            .iter()
            .any(|i| matches!(i, ProgramIssue::SqrtWithoutUnit { .. })));
        // Non-SQRT programs stay clean on the same config.
        assert!(check_program(&UopProgram::ray_box(), &c).is_empty());
    }

    #[test]
    fn seeded_mutations_of_clean_programs_are_flagged() {
        // Seeded-defect loop in the style of tests/props.rs: mutate a
        // clean program and assert the verifier notices.
        let mut rng = StdRng::seed_from_u64(0xda7af10);
        for _case in 0..24 {
            let base = match rng.random_range(0u32..3) {
                0 => UopProgram::ray_box(),
                1 => UopProgram::query_key_inner(),
                _ => UopProgram::ray_triangle_leaf(),
            };
            let mut uops = base.uops().to_vec();
            let victim = rng.random_range(0..uops.len());
            // Slot 15 may legitimately be live at `victim` (ray-triangle
            // writes it) — use the capacity defect in that case.
            let slot15_live = uops[..victim].iter().any(|u| u.dest == 15);
            match rng.random_range(0u32..2) {
                // Route a source from a slot written only later (or never).
                0 if !slot15_live => uops[victim].srcs[0] = Some(Operand::Slot(15)),
                // Blow past the dest table.
                _ => uops[victim].dest = 16 + rng.random_range(0u8..8),
            }
            let mutated = UopProgram::from_uops("mutated", uops).unwrap();
            let issues = check_program(&mutated, &cfg());
            assert!(
                !issues.is_empty(),
                "mutation of {} at μop {victim} escaped the verifier",
                base.name()
            );
        }
    }
}
