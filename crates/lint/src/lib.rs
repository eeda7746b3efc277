//! `tta-lint` — the unified static-analysis front end over the three
//! verifier layers of the workspace:
//!
//! 1. **μop programs** ([`tta::dataflow::check_program`]) — operand
//!    routing, OP Dest Table discipline, crossbar fan-in, SQRT
//!    availability, critical-path profitability;
//! 2. **traversal kernels** ([`gpu_sim::verify::check`]) — register
//!    dataflow, unreachable regions, branch-target sanity, missing `Exit`,
//!    register pressure, SIMT stack bounds;
//! 3. **pipelines** ([`tta::TraversalPipeline::check_decode_coverage`] and
//!    [`tta::TraversalPipeline::check_terminate_reachability`]) —
//!    `DecodeR`/`DecodeI`/`DecodeL` field layouts versus the operands the
//!    configured programs actually read, and reachability of the
//!    `ConfigTerminate` condition;
//! 4. **abstract interpretation** ([`gpu_sim::absint`]) — the `mem-safety`
//!    pass proves every `Load`/`Store` address interval stays inside a
//!    declared [`MemContract`], the `race-freedom` pass proves every
//!    access respects its allocation's declared cross-thread
//!    [`gpu_sim::absint::AccessMode`] (tid-affine disjoint write
//!    footprints), and the `loop-termination` pass demands a ranking
//!    argument on every CFG back-edge.
//!
//! Every layer's findings normalise into one [`Diagnostic`] shape carrying
//! a [`Severity`], the emitting pass name, and a source location, so the
//! `tta-lint` binary (and CI) can gate uniformly on error-severity
//! diagnostics. [`lint_shipped`] runs the full inventory of Table III
//! programs, workload kernels (with their memory contracts), and
//! Listing-1 pipelines the workspace ships.

use gpu_sim::absint::{LaunchBounds, MemContract, MemIssue, RaceIssue};
use gpu_sim::kernel::Kernel;
use gpu_sim::verify::KernelIssue;
use trace::json::{Json, Object, COMPACT};
use tta::dataflow::ProgramIssue;
use tta::pipeline::{AcceleratorGen, PipelineIssue, TraversalPipeline};
use tta::programs::UopProgram;
use tta::ttaplus::TtaPlusConfig;
use workloads::rtnn::LeafPath;

/// How serious a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory: legal, but worth a look (never fails the lint gate
    /// unless `--deny-warnings` is set).
    Warning,
    /// A defect; `tta-lint` exits nonzero.
    Error,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One normalised finding from any analysis layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Error or warning.
    pub severity: Severity,
    /// The emitting pass, kebab-case (e.g. `uop-read-before-write`).
    pub pass: &'static str,
    /// Where the defect lives: artifact name plus μop/instruction index.
    pub location: String,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}[{}] {}: {}",
            self.severity, self.pass, self.location, self.message
        )
    }
}

/// One machine-readable object per diagnostic (for `tta-lint --json`):
/// `{"severity":...,"pass":...,"location":...,"message":...}`.
impl Json for Diagnostic {
    fn write_json(&self, out: &mut String) {
        let mut obj = Object::new(out, COMPACT);
        obj.field("severity", &self.severity.to_string())
            .field("pass", self.pass)
            .field("location", &self.location)
            .field("message", &self.message);
        obj.end();
    }
}

/// `true` when any diagnostic in `diags` is error-severity.
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Error)
}

fn program_pass(issue: &ProgramIssue) -> &'static str {
    match issue {
        ProgramIssue::ReadBeforeWrite { .. } => "uop-read-before-write",
        ProgramIssue::DeadResult { .. } => "uop-dead-result",
        ProgramIssue::DestTableOverflow { .. } => "op-dest-capacity",
        ProgramIssue::CrossbarFanIn { .. } => "crossbar-fan-in",
        ProgramIssue::SqrtWithoutUnit { .. } => "sqrt-unit",
        ProgramIssue::LatencyBound { .. } => "latency-bound",
    }
}

fn kernel_pass(issue: &KernelIssue) -> &'static str {
    match issue {
        KernelIssue::ReadBeforeWrite { .. } => "kernel-read-before-write",
        KernelIssue::UnreachableRegion { .. } => "kernel-unreachable",
        KernelIssue::BranchOutOfBounds { .. } => "branch-out-of-bounds",
        KernelIssue::MissingExit { .. } => "missing-exit",
        KernelIssue::RegisterPressure { .. } => "register-pressure",
        KernelIssue::StackDepthExceeded { .. } => "simt-stack-bound",
    }
}

/// Lints one μop program under `cfg`. All program-level issues are
/// error-severity: a misrouted program computes garbage.
pub fn lint_program(program: &UopProgram, cfg: &TtaPlusConfig) -> Vec<Diagnostic> {
    tta::dataflow::check_program(program, cfg)
        .iter()
        .map(|issue| Diagnostic {
            severity: Severity::Error,
            pass: program_pass(issue),
            location: match issue.pc() {
                Some(pc) => format!("{}:uop{pc}", program.name()),
                None => program.name().to_string(),
            },
            message: issue.to_string(),
        })
        .collect()
}

/// Lints one mini-ISA kernel. Register pressure maps to
/// [`Severity::Warning`]; everything else is an error.
pub fn lint_kernel(kernel: &Kernel) -> Vec<Diagnostic> {
    gpu_sim::verify::check(kernel)
        .iter()
        .map(|issue| {
            let location = match issue {
                KernelIssue::ReadBeforeWrite { pc, .. }
                | KernelIssue::BranchOutOfBounds { pc, .. }
                | KernelIssue::MissingExit { pc } => format!("{}:pc{pc}", kernel.name),
                KernelIssue::UnreachableRegion { start, .. } => {
                    format!("{}:pc{start}", kernel.name)
                }
                KernelIssue::RegisterPressure { .. } | KernelIssue::StackDepthExceeded { .. } => {
                    kernel.name.clone()
                }
            };
            Diagnostic {
                severity: if issue.is_error() {
                    Severity::Error
                } else {
                    Severity::Warning
                },
                pass: kernel_pass(issue),
                location,
                message: issue.to_string(),
            }
        })
        .collect()
}

/// The `mem-safety` pass: abstractly interprets `kernel` under `bounds`
/// and checks every `Load`/`Store` address interval against the declared
/// `contracts`. Provably out-of-bounds accesses are errors; accesses the
/// interpreter cannot prove either way (pointer-chasing node walks,
/// widened loop-carried stack pointers, undeclared bases) are warnings.
pub fn lint_kernel_memory(
    kernel: &Kernel,
    contracts: &[MemContract],
    bounds: LaunchBounds,
) -> Vec<Diagnostic> {
    let abs = gpu_sim::absint::analyze(kernel, bounds);
    gpu_sim::absint::check_memory(kernel, &abs, contracts)
        .issues
        .iter()
        .map(|issue| {
            let pc = match issue {
                MemIssue::ProvedOob { pc, .. }
                | MemIssue::PossiblyOob { pc, .. }
                | MemIssue::NoContract { pc, .. }
                | MemIssue::UnknownAddress { pc } => *pc,
            };
            Diagnostic {
                severity: if issue.is_error() {
                    Severity::Error
                } else {
                    Severity::Warning
                },
                pass: "mem-safety",
                location: format!("{}:pc{pc}", kernel.name),
                message: issue.to_string(),
            }
        })
        .collect()
}

/// The `race-freedom` pass: abstractly interprets `kernel` under `bounds`
/// and proves every `Load`/`Store` respects its allocation's declared
/// [`gpu_sim::absint::AccessMode`]. A store into a `ReadShared`
/// allocation, or a tid-independent store into a per-thread-exclusive
/// one, is a proved race (error); an access whose cross-thread
/// disjointness can be neither proved nor refuted is a warning the
/// runtime race sanitizer backs up.
pub fn lint_kernel_races(
    kernel: &Kernel,
    contracts: &[MemContract],
    bounds: LaunchBounds,
) -> Vec<Diagnostic> {
    let abs = gpu_sim::absint::analyze(kernel, bounds);
    gpu_sim::absint::check_races(kernel, &abs, contracts)
        .issues
        .iter()
        .map(|issue| {
            let pc = match issue {
                RaceIssue::ProvedRace { pc, .. } | RaceIssue::PossibleRace { pc, .. } => *pc,
            };
            Diagnostic {
                severity: if issue.is_error() {
                    Severity::Error
                } else {
                    Severity::Warning
                },
                pass: "race-freedom",
                location: format!("{}:pc{pc}", kernel.name),
                message: issue.to_string(),
            }
        })
        .collect()
}

/// The `loop-termination` pass: every CFG back-edge must carry a ranking
/// argument (monotone counter, in-body exit condition, or a reachable
/// `Exit`). A loop with none is an error — a warp entering it can spin
/// forever.
pub fn lint_kernel_termination(kernel: &Kernel) -> Vec<Diagnostic> {
    gpu_sim::absint::check_termination(kernel)
        .issues
        .iter()
        .map(|issue| Diagnostic {
            severity: Severity::Error,
            pass: "loop-termination",
            location: kernel.name.clone(),
            message: issue.to_string(),
        })
        .collect()
}

/// The `kernel-divergence` pass: classifies every conditional branch with
/// the warp-uniformity dataflow and the tid-affine zero-crossing proof.
/// A branch *proved* to split a warp (an exactly-known `s·tid + c`
/// condition crossing zero inside a multi-lane warp) is an error — it
/// forfeits SIMT efficiency on every warp containing the crossing, which
/// is never what a traversal kernel wants from a structural (non-data)
/// condition. Data-dependent branches that merely *may* diverge are the
/// nature of tree traversal and stay silent here; their full
/// classification is surfaced in the `tta-cost` report instead.
pub fn lint_kernel_divergence(kernel: &Kernel, bounds: LaunchBounds) -> Vec<Diagnostic> {
    gpu_sim::absint::divergence(kernel, bounds)
        .branches
        .iter()
        .filter(|b| b.kind == gpu_sim::absint::Divergence::Divergent)
        .map(|b| Diagnostic {
            severity: Severity::Error,
            pass: "kernel-divergence",
            location: format!("{}:pc{}", kernel.name, b.pc),
            message: format!(
                "branch condition is tid-affine (stride {}) and provably crosses zero \
                 inside a warp: the branch always splits the active mask",
                b.cond_stride
            ),
        })
        .collect()
}

/// The `kernel-coalescing` pass: classifies every `Load`/`Store` site
/// from the tid-stride term of its address. A site whose known stride is
/// not a multiple of the 4-byte access size is an error: neighbouring
/// lanes straddle word boundaries, every warp execution splits into
/// word-misaligned transactions, and (for stores) lane footprints
/// provably overlap other threads' bytes. Merely *uncoalesced* (large or
/// unknown stride) sites stay silent — per-thread stack traffic is legal
/// by design — and get their transaction brackets in the `tta-cost`
/// report.
pub fn lint_kernel_coalescing(
    kernel: &Kernel,
    bounds: LaunchBounds,
    gpu: &gpu_sim::GpuConfig,
) -> Vec<Diagnostic> {
    gpu_sim::absint::coalescing(kernel, bounds, gpu)
        .sites
        .iter()
        .filter(|s| s.misaligned)
        .map(|s| Diagnostic {
            severity: Severity::Error,
            pass: "kernel-coalescing",
            location: format!("{}:pc{}", kernel.name, s.pc),
            message: format!(
                "{} has word-misaligned tid stride ({}): lanes straddle 4-byte \
                 boundaries on every warp execution",
                if s.is_store { "store" } else { "load" },
                s.class
            ),
        })
        .collect()
}

/// The `kernel-cost` pass: composes static cycle bounds from decoded
/// instruction latencies, the coalescing transaction brackets, and the
/// declared trip/traversal facts. Anything that leaves the bound open —
/// a loop without a finite trip fact, a fact vector that does not match
/// the termination prover's back-edges, a `Traverse` without a declared
/// step bracket — is an error: the kernel's latency is statically
/// unbounded, so no soundness gate can cover it.
pub fn lint_kernel_cost(
    kernel: &Kernel,
    bounds: LaunchBounds,
    gpu: &gpu_sim::GpuConfig,
    facts: &gpu_sim::absint::CostFacts,
) -> Vec<Diagnostic> {
    gpu_sim::absint::cycle_bounds(kernel, bounds, gpu, facts)
        .issues
        .iter()
        .map(|issue| Diagnostic {
            severity: Severity::Error,
            pass: "kernel-cost",
            location: kernel.name.clone(),
            message: issue.to_string(),
        })
        .collect()
}

/// Lints one traversal pipeline's decode coverage plus every μop program
/// it configures.
pub fn lint_pipeline(pipeline: &TraversalPipeline, cfg: &TtaPlusConfig) -> Vec<Diagnostic> {
    let mut diags: Vec<Diagnostic> = pipeline
        .check_decode_coverage()
        .iter()
        .map(|issue| {
            let (slot, pc) = match issue {
                PipelineIssue::RayFieldOutOfRange { slot, pc, .. }
                | PipelineIssue::NodeFieldOutOfRange { slot, pc, .. } => (slot, pc),
                PipelineIssue::TerminateNeverChecked
                | PipelineIssue::TerminatePcOutOfRange { .. } => {
                    unreachable!("decode coverage never emits terminate issues")
                }
            };
            Diagnostic {
                severity: Severity::Error,
                pass: "decode-coverage",
                location: format!("{}:{slot}:uop{pc}", pipeline.name()),
                message: issue.to_string(),
            }
        })
        .collect();
    diags.extend(
        pipeline
            .check_terminate_reachability()
            .iter()
            .map(|issue| Diagnostic {
                severity: Severity::Error,
                pass: "terminate-reachable",
                location: pipeline.name().to_string(),
                message: issue.to_string(),
            }),
    );
    for p in pipeline.programs() {
        diags.extend(lint_program(&p, cfg));
    }
    diags
}

/// Every Table III μop program the workspace ships, plus the fused N-Body
/// force variant. The TTA+ backend runs the unfused `nbody_force_leaf`
/// (`NBodyExperiment::uop_programs` registers it); the fused variant is
/// the output of `fuse_muls_into_xform`, the paper's R-XFORM
/// optimisation, and is linted so that pass's output stays provably
/// clean. It also keeps its place because the committed `tta-cost`
/// journal pins this list's entries in order.
pub fn shipped_programs() -> Vec<UopProgram> {
    vec![
        UopProgram::query_key_inner(),
        UopProgram::query_key_leaf(),
        UopProgram::point_to_point_inner(),
        UopProgram::nbody_force_leaf(),
        UopProgram::nbody_force_leaf().fuse_muls_into_xform(),
        UopProgram::ray_box(),
        UopProgram::rtnn_leaf(),
        UopProgram::ray_sphere_leaf(),
        UopProgram::ray_triangle_leaf(),
        UopProgram::transform(),
    ]
}

/// Launch bounds the proving passes and `tta-cost` analyze every shipped
/// kernel under (per-thread contract lengths scale with them).
pub const SHIPPED_BOUNDS: LaunchBounds = LaunchBounds { num_threads: 1024 };

/// Every Listing-1 pipeline the workloads configure, across the
/// generations each workload targets.
///
/// # Panics
///
/// Panics if a shipped workload's pipeline fails builder validation —
/// that would be a bug in the workload itself.
pub fn shipped_pipelines() -> Vec<TraversalPipeline> {
    use workloads::btree::BTreeExperiment;
    use workloads::{nbody::NBodyExperiment, rtnn::RtnnExperiment, rtree::RTreeExperiment};
    let mut out = Vec::new();
    // TtaPlusNoSqrt is deliberately absent: the N-Body force program
    // needs the SQRT unit, and the builder itself rejects that pairing —
    // validation the pipeline layer already performs at build time.
    for gen in [AcceleratorGen::Tta, AcceleratorGen::TtaPlus] {
        out.push(BTreeExperiment::pipeline(gen).expect("shipped btree pipeline"));
        out.push(RtnnExperiment::pipeline(gen, LeafPath::Shader).expect("shipped rtnn pipeline"));
        out.push(
            RtnnExperiment::pipeline(gen, LeafPath::Offloaded).expect("shipped rtnn pipeline"),
        );
        out.push(NBodyExperiment::pipeline(gen).expect("shipped nbody pipeline"));
        out.push(RTreeExperiment::pipeline(gen).expect("shipped rtree pipeline"));
    }
    out
}

/// Runs every pass over the full shipped inventory (programs, kernels,
/// pipelines) under the paper's TTA+ configuration. This is what the
/// `tta-lint` binary and CI execute.
pub fn lint_shipped() -> Vec<Diagnostic> {
    let cfg = TtaPlusConfig::default_paper();
    let mut diags = Vec::new();
    for p in shipped_programs() {
        diags.extend(lint_program(&p, &cfg));
    }
    let gpu = gpu_sim::GpuConfig::vulkan_sim_default();
    for row in workloads::kernels::shipped_kernels() {
        let k = &row.kernel;
        diags.extend(lint_kernel(k));
        diags.extend(lint_kernel_memory(k, &row.contracts, SHIPPED_BOUNDS));
        diags.extend(lint_kernel_races(k, &row.contracts, SHIPPED_BOUNDS));
        diags.extend(lint_kernel_termination(k));
        diags.extend(lint_kernel_divergence(k, SHIPPED_BOUNDS));
        diags.extend(lint_kernel_coalescing(k, SHIPPED_BOUNDS, &gpu));
        let facts = workloads::cost::shipped_facts(&row, &gpu);
        diags.extend(lint_kernel_cost(k, SHIPPED_BOUNDS, &gpu, &facts));
    }
    for p in shipped_pipelines() {
        diags.extend(lint_pipeline(&p, &cfg));
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shipped_inventory_is_error_free() {
        let diags = lint_shipped();
        let errors: Vec<_> = diags
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .collect();
        assert!(errors.is_empty(), "{errors:#?}");
    }

    #[test]
    fn shipped_baselines_warn_about_register_pressure() {
        // The SIMT baseline kernels keep more than 16 live registers —
        // the pressure the traversal offload exists to remove. The lint
        // surfaces that as a warning, not an error.
        let diags = lint_shipped();
        assert!(diags
            .iter()
            .any(|d| d.pass == "register-pressure" && d.severity == Severity::Warning));
        assert!(!has_errors(&diags));
    }

    #[test]
    fn diagnostics_render_pass_and_location() {
        let p = UopProgram::from_uops(
            "bad-prog",
            vec![tta::programs::Uop::new(
                tta::OpUnit::Vec3Cmp,
                &[tta::programs::Operand::Slot(9)],
                0,
            )],
        )
        .unwrap();
        let diags = lint_program(&p, &TtaPlusConfig::default_paper());
        assert_eq!(diags.len(), 1);
        let rendered = diags[0].to_string();
        assert!(
            rendered.contains("error[uop-read-before-write]"),
            "{rendered}"
        );
        assert!(rendered.contains("bad-prog:uop0"), "{rendered}");
    }
}
