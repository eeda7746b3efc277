//! The TTA/TTA+ programming interface — the Rust analogue of the paper's
//! Listing 1 API (`DecodeR`/`DecodeI`/`DecodeL`, `ConfigI`/`ConfigL`,
//! `ConfigTerminate`, `vkCreateTTAPipeline`).
//!
//! A [`PipelineBuilder`] collects the record layouts, intersection-test
//! configuration and termination condition, then validates the whole bundle
//! against the chosen accelerator generation at [`PipelineBuilder::build`]
//! time: layouts must fit the 64-byte warp-buffer entries (Fig. 7), the
//! baseline RTA accepts only its fixed-function tests, TTA adds Query-Key
//! and Point-to-Point, and only TTA+ accepts μop programs (and only when a
//! SQRT unit is present, if the program needs one).
//!
//! # Examples
//!
//! Configuring the B-Tree pipeline of §III-A:
//!
//! ```
//! use tta::pipeline::{AcceleratorGen, PipelineBuilder, TerminateCond, TestConfig};
//! use tta::programs::UopProgram;
//!
//! let pipeline = PipelineBuilder::new("btree-search")
//!     .decode_r(&[4, 4, 4, 4])            // key, found, visited, pad
//!     .decode_i(&[4, 4, 32, 24])          // header, first child, keys, pad
//!     .decode_l(&[4, 4, 32, 24])
//!     .config_i(TestConfig::QueryKey)
//!     .config_l(TestConfig::QueryKey)
//!     .config_terminate(TerminateCond::StackEmpty)
//!     .build(AcceleratorGen::Tta)
//!     .expect("valid TTA pipeline");
//! assert_eq!(pipeline.name(), "btree-search");
//!
//! // The same pipeline with μop programs requires TTA+:
//! let err = PipelineBuilder::new("btree-uops")
//!     .decode_r(&[4, 4, 4, 4])
//!     .decode_i(&[4, 4, 32, 24])
//!     .decode_l(&[4, 4, 32, 24])
//!     .config_i(TestConfig::Uops(UopProgram::query_key_inner()))
//!     .config_l(TestConfig::Uops(UopProgram::query_key_leaf()))
//!     .config_terminate(TerminateCond::StackEmpty)
//!     .build(AcceleratorGen::Tta);
//! assert!(err.is_err());
//! ```

use crate::programs::UopProgram;
use rta::units::TestKind;

/// Maximum bytes of one warp-buffer record (16 × 32-bit registers, Fig. 7).
pub const MAX_RECORD_BYTES: usize = 64;

/// Which accelerator generation a pipeline targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcceleratorGen {
    /// Unmodified RTA: Ray-Box/Ray-Triangle/Transform + shader callbacks.
    BaselineRta,
    /// TTA: adds Query-Key and Point-to-Point fixed-function tests.
    Tta,
    /// TTA+ with the SQRT unit: arbitrary μop programs.
    TtaPlus,
    /// TTA+ without SQRT (the −10.8% area design point of Table IV).
    TtaPlusNoSqrt,
}

impl AcceleratorGen {
    /// Does this generation run μop programs (either TTA+ design point)?
    pub fn is_tta_plus(self) -> bool {
        matches!(self, Self::TtaPlus | Self::TtaPlusNoSqrt)
    }
}

/// A record layout declared via `DecodeR`/`DecodeI`/`DecodeL`: field sizes
/// in bytes, mirroring the byte-offset arrays of Listing 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordLayout {
    fields: Vec<usize>,
}

impl RecordLayout {
    /// Builds a layout from field sizes.
    ///
    /// # Errors
    ///
    /// Rejects empty layouts, zero-sized or non-4-byte-multiple fields, and
    /// layouts exceeding [`MAX_RECORD_BYTES`].
    pub fn new(field_sizes: &[usize]) -> Result<Self, ConfigError> {
        if field_sizes.is_empty() {
            return Err(ConfigError::EmptyLayout);
        }
        for &f in field_sizes {
            if f == 0 || f % 4 != 0 {
                return Err(ConfigError::BadFieldSize(f));
            }
        }
        let total: usize = field_sizes.iter().sum();
        if total > MAX_RECORD_BYTES {
            return Err(ConfigError::LayoutTooLarge(total));
        }
        Ok(RecordLayout {
            fields: field_sizes.to_vec(),
        })
    }

    /// Field sizes in bytes.
    pub fn fields(&self) -> &[usize] {
        &self.fields
    }

    /// Byte offset of field `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn offset_of(&self, i: usize) -> usize {
        assert!(i < self.fields.len(), "field index out of range");
        self.fields[..i].iter().sum()
    }

    /// Total bytes.
    pub fn total_bytes(&self) -> usize {
        self.fields.iter().sum()
    }
}

/// Intersection-test configuration for `ConfigI`/`ConfigL`.
#[derive(Debug, Clone, PartialEq)]
pub enum TestConfig {
    /// Fixed-function Ray-Box.
    RayBox,
    /// Fixed-function Ray-Triangle.
    RayTriangle,
    /// TTA Query-Key comparison.
    QueryKey,
    /// TTA Point-to-Point distance.
    PointToPoint,
    /// Intersection shader on the general-purpose cores.
    Shader,
    /// A TTA+ μop program.
    Uops(UopProgram),
}

/// Traversal termination condition (`ConfigTerminate`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TerminateCond {
    /// Stop when the traversal stack drains (index search, radius search).
    StackEmpty,
    /// Stop when a ray-record field at this byte offset becomes non-zero
    /// (e.g. a found flag or accepted-hit marker) — checked when the given
    /// μop PC of the leaf program executes, per Listing 1.
    RayFieldNonZero {
        /// Byte offset within the ray record.
        offset: usize,
        /// μop PC at which the check fires.
        at_pc: usize,
    },
}

/// Errors from pipeline configuration.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// A layout had no fields.
    EmptyLayout,
    /// A field size was zero or not a multiple of 4 bytes.
    BadFieldSize(usize),
    /// Layout exceeds the 64-byte warp-buffer record.
    LayoutTooLarge(usize),
    /// A required `Decode`/`Config` call is missing.
    Missing(&'static str),
    /// The test is not supported by the targeted accelerator generation.
    UnsupportedTest {
        /// Which configuration slot was rejected.
        slot: &'static str,
        /// Why.
        reason: String,
    },
    /// A termination field offset lies outside the ray record.
    TerminateOutOfRange(usize),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::EmptyLayout => write!(f, "record layout has no fields"),
            ConfigError::BadFieldSize(s) => {
                write!(f, "field size {s} is not a positive multiple of 4 bytes")
            }
            ConfigError::LayoutTooLarge(t) => write!(
                f,
                "layout of {t} bytes exceeds the {MAX_RECORD_BYTES}-byte warp-buffer record"
            ),
            ConfigError::Missing(what) => write!(f, "pipeline is missing {what}"),
            ConfigError::UnsupportedTest { slot, reason } => {
                write!(f, "{slot} test unsupported: {reason}")
            }
            ConfigError::TerminateOutOfRange(o) => {
                write!(f, "terminate field offset {o} lies outside the ray record")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// A validated traversal pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct TraversalPipeline {
    name: String,
    gen: AcceleratorGen,
    ray_layout: RecordLayout,
    inner_layout: RecordLayout,
    leaf_layout: RecordLayout,
    inner: TestConfig,
    leaf: TestConfig,
    terminate: TerminateCond,
}

impl TraversalPipeline {
    /// Pipeline name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Target generation.
    pub fn generation(&self) -> AcceleratorGen {
        self.gen
    }

    /// The validated ray layout.
    pub fn ray_layout(&self) -> &RecordLayout {
        &self.ray_layout
    }

    /// The validated internal-node layout (`DecodeI`).
    pub fn inner_layout(&self) -> &RecordLayout {
        &self.inner_layout
    }

    /// The validated leaf-node layout (`DecodeL`).
    pub fn leaf_layout(&self) -> &RecordLayout {
        &self.leaf_layout
    }

    /// The distinct μop programs of the `Uops` slots, inner first: the
    /// program list a TTA+ platform registers for this pipeline.
    pub fn programs(&self) -> Vec<UopProgram> {
        let mut programs: Vec<UopProgram> = Vec::new();
        for test in [&self.inner, &self.leaf] {
            match test {
                TestConfig::Uops(p) if !programs.contains(p) => programs.push(p.clone()),
                _ => {}
            }
        }
        programs
    }

    /// The (inner, leaf) tests as engine [`TestKind`]s. A μop program maps
    /// to [`TestKind::Program`], numbered by its position in
    /// [`programs`](Self::programs).
    pub fn test_kinds(&self) -> (TestKind, TestKind) {
        let programs = self.programs();
        let kind = |test: &TestConfig| match test {
            TestConfig::RayBox => TestKind::RayBox,
            TestConfig::RayTriangle => TestKind::RayTriangle,
            TestConfig::QueryKey => TestKind::QueryKey,
            TestConfig::PointToPoint => TestKind::PointToPoint,
            TestConfig::Shader => TestKind::IntersectionShader,
            TestConfig::Uops(p) => {
                TestKind::Program(programs.iter().position(|q| q == p).unwrap() as u16)
            }
        };
        (kind(&self.inner), kind(&self.leaf))
    }

    /// The `decode-coverage` lint pass: cross-checks the `DecodeR` /
    /// `DecodeI` / `DecodeL` field layouts against the operand slots the
    /// configured intersection programs actually read.
    ///
    /// Every `TestConfig::Uops` program is checked directly. On the TTA+
    /// generations the fixed-function tests also execute as Table III μop
    /// programs, so `RayBox` / `RayTriangle` / `QueryKey` / `PointToPoint`
    /// configurations resolve to their [`UopProgram::canned`] program and
    /// are checked too; on the baseline RTA and TTA the fixed units decode
    /// their records in hardware, so only explicit μop programs apply.
    ///
    /// An empty vector means every routed `Ray(i)` / `Node(i)` operand has
    /// a matching declared field.
    pub fn check_decode_coverage(&self) -> Vec<PipelineIssue> {
        let mut issues = Vec::new();
        let (inner, leaf) = self.test_kinds();
        let slots = [
            ("inner", inner, &self.inner_layout),
            ("leaf", leaf, &self.leaf_layout),
        ];
        for (slot, kind, node_layout) in slots {
            let Some(program) = self.program_for(kind) else {
                continue;
            };
            for (pc, uop) in program.uops().iter().enumerate() {
                for op in uop.operands() {
                    match op {
                        crate::programs::Operand::Ray(i) if i >= self.ray_layout.fields().len() => {
                            issues.push(PipelineIssue::RayFieldOutOfRange {
                                slot,
                                pc,
                                field: i,
                                fields: self.ray_layout.fields().len(),
                            });
                        }
                        crate::programs::Operand::Node(i) if i >= node_layout.fields().len() => {
                            issues.push(PipelineIssue::NodeFieldOutOfRange {
                                slot,
                                pc,
                                field: i,
                                fields: node_layout.fields().len(),
                            });
                        }
                        _ => {}
                    }
                }
            }
        }
        issues
    }

    /// The `terminate-reachable` lint pass: proves the `ConfigTerminate`
    /// condition can actually fire under this pipeline's configuration.
    ///
    /// [`TerminateCond::StackEmpty`] is checked by the scheduler on every
    /// pop and is always reachable. [`TerminateCond::RayFieldNonZero`] only
    /// fires when the leaf μop program executes its `at_pc` — so the leaf
    /// slot must resolve to a μop program on this generation, and `at_pc`
    /// must lie inside it. A pipeline failing this pass traverses the whole
    /// tree for every query no matter what the leaf test finds.
    ///
    /// An empty vector means the termination condition is reachable.
    pub fn check_terminate_reachability(&self) -> Vec<PipelineIssue> {
        let mut issues = Vec::new();
        if let TerminateCond::RayFieldNonZero { at_pc, .. } = self.terminate {
            match self.program_for(self.test_kinds().1) {
                None => issues.push(PipelineIssue::TerminateNeverChecked),
                Some(p) if at_pc >= p.uops().len() => {
                    issues.push(PipelineIssue::TerminatePcOutOfRange {
                        at_pc,
                        len: p.uops().len(),
                    });
                }
                Some(_) => {}
            }
        }
        issues
    }

    /// The μop program that runs for the engine test `kind` of this
    /// pipeline, if any: a registered program by its id, or on the TTA+
    /// generations the [`UopProgram::canned`] program of a fixed-function
    /// test, as the TTA+ backend runs it.
    fn program_for(&self, kind: TestKind) -> Option<UopProgram> {
        match kind {
            TestKind::Program(i) => Some(self.programs()[i as usize].clone()),
            _ if self.gen.is_tta_plus() => UopProgram::canned(kind),
            _ => None,
        }
    }
}

/// One decode-coverage defect: a configured program reads a record field
/// the `Decode` layouts never declared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipelineIssue {
    /// A μop reads a ray-record field past the `DecodeR` layout.
    RayFieldOutOfRange {
        /// Which configuration slot (`"inner"` or `"leaf"`).
        slot: &'static str,
        /// μop index within the program.
        pc: usize,
        /// The missing field index.
        field: usize,
        /// Fields the layout declares.
        fields: usize,
    },
    /// A μop reads a node-record field past the `DecodeI`/`DecodeL` layout.
    NodeFieldOutOfRange {
        /// Which configuration slot (`"inner"` or `"leaf"`).
        slot: &'static str,
        /// μop index within the program.
        pc: usize,
        /// The missing field index.
        field: usize,
        /// Fields the layout declares.
        fields: usize,
    },
    /// A `RayFieldNonZero` terminate condition whose leaf slot never runs a
    /// μop program on this generation — the condition can never fire.
    TerminateNeverChecked,
    /// A `RayFieldNonZero` terminate condition anchored at a μop PC past
    /// the end of the resolved leaf program.
    TerminatePcOutOfRange {
        /// The configured check PC.
        at_pc: usize,
        /// Length of the resolved leaf program.
        len: usize,
    },
}

impl std::fmt::Display for PipelineIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineIssue::RayFieldOutOfRange {
                slot,
                pc,
                field,
                fields,
            } => write!(
                f,
                "{slot} μop {pc} reads ray field {field} but DecodeR declares {fields} fields"
            ),
            PipelineIssue::NodeFieldOutOfRange {
                slot,
                pc,
                field,
                fields,
            } => write!(
                f,
                "{slot} μop {pc} reads node field {field} but the node layout declares \
                 {fields} fields"
            ),
            PipelineIssue::TerminateNeverChecked => write!(
                f,
                "RayFieldNonZero terminate condition is never checked: the leaf slot \
                 runs no μop program on this generation"
            ),
            PipelineIssue::TerminatePcOutOfRange { at_pc, len } => write!(
                f,
                "RayFieldNonZero terminate check anchored at μop pc {at_pc} but the \
                 resolved leaf program has only {len} μops"
            ),
        }
    }
}

/// Builder for [`TraversalPipeline`] (the Listing 1 call sequence).
#[derive(Debug, Clone, Default)]
pub struct PipelineBuilder {
    name: String,
    ray_layout: Option<Result<RecordLayout, ConfigError>>,
    inner_layout: Option<Result<RecordLayout, ConfigError>>,
    leaf_layout: Option<Result<RecordLayout, ConfigError>>,
    inner: Option<TestConfig>,
    leaf: Option<TestConfig>,
    terminate: Option<TerminateCond>,
}

impl PipelineBuilder {
    /// Starts a pipeline configuration.
    pub fn new(name: impl Into<String>) -> Self {
        PipelineBuilder {
            name: name.into(),
            ..Default::default()
        }
    }

    /// `DecodeR`: declares the ray record layout.
    pub fn decode_r(mut self, field_sizes: &[usize]) -> Self {
        self.ray_layout = Some(RecordLayout::new(field_sizes));
        self
    }

    /// `DecodeI`: declares the internal-node layout.
    pub fn decode_i(mut self, field_sizes: &[usize]) -> Self {
        self.inner_layout = Some(RecordLayout::new(field_sizes));
        self
    }

    /// `DecodeL`: declares the leaf-node layout.
    pub fn decode_l(mut self, field_sizes: &[usize]) -> Self {
        self.leaf_layout = Some(RecordLayout::new(field_sizes));
        self
    }

    /// `ConfigI`: the internal-node intersection test.
    pub fn config_i(mut self, test: TestConfig) -> Self {
        self.inner = Some(test);
        self
    }

    /// `ConfigL`: the leaf-node intersection test.
    pub fn config_l(mut self, test: TestConfig) -> Self {
        self.leaf = Some(test);
        self
    }

    /// `ConfigTerminate`: the termination condition.
    pub fn config_terminate(mut self, cond: TerminateCond) -> Self {
        self.terminate = Some(cond);
        self
    }

    /// Validates against `gen` and produces the pipeline.
    ///
    /// # Errors
    ///
    /// See [`ConfigError`] — missing pieces, oversized layouts, or tests the
    /// targeted generation cannot execute.
    pub fn build(self, gen: AcceleratorGen) -> Result<TraversalPipeline, ConfigError> {
        let ray_layout = self.ray_layout.ok_or(ConfigError::Missing("DecodeR"))??;
        let inner_layout = self.inner_layout.ok_or(ConfigError::Missing("DecodeI"))??;
        let leaf_layout = self.leaf_layout.ok_or(ConfigError::Missing("DecodeL"))??;
        let inner = self.inner.ok_or(ConfigError::Missing("ConfigI"))?;
        let leaf = self.leaf.ok_or(ConfigError::Missing("ConfigL"))?;
        let terminate = self
            .terminate
            .ok_or(ConfigError::Missing("ConfigTerminate"))?;

        Self::check_test(gen, "inner", &inner)?;
        Self::check_test(gen, "leaf", &leaf)?;
        if let TerminateCond::RayFieldNonZero { offset, .. } = terminate {
            if offset + 4 > ray_layout.total_bytes() {
                return Err(ConfigError::TerminateOutOfRange(offset));
            }
        }
        Ok(TraversalPipeline {
            name: self.name,
            gen,
            ray_layout,
            inner_layout,
            leaf_layout,
            inner,
            leaf,
            terminate,
        })
    }

    fn check_test(
        gen: AcceleratorGen,
        slot: &'static str,
        test: &TestConfig,
    ) -> Result<(), ConfigError> {
        let reject = |reason: &str| {
            Err(ConfigError::UnsupportedTest {
                slot,
                reason: reason.to_owned(),
            })
        };
        match (gen, test) {
            (AcceleratorGen::BaselineRta, TestConfig::QueryKey | TestConfig::PointToPoint) => {
                reject("the baseline RTA has no modified units; TTA is required")
            }
            (AcceleratorGen::BaselineRta | AcceleratorGen::Tta, TestConfig::Uops(_)) => {
                reject("μop programs require the modular TTA+ design")
            }
            (AcceleratorGen::TtaPlusNoSqrt, TestConfig::Uops(p)) if p.needs_sqrt() => {
                reject("program needs the SQRT unit; use the full TTA+ configuration (+36.4% area)")
            }
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> PipelineBuilder {
        PipelineBuilder::new("t")
            .decode_r(&[4, 4, 4, 4])
            .decode_i(&[4, 4, 32])
            .decode_l(&[4, 4, 32])
            .config_terminate(TerminateCond::StackEmpty)
    }

    #[test]
    fn valid_tta_pipeline_builds() {
        let p = base()
            .config_i(TestConfig::QueryKey)
            .config_l(TestConfig::QueryKey)
            .build(AcceleratorGen::Tta)
            .unwrap();
        assert_eq!(p.test_kinds(), (TestKind::QueryKey, TestKind::QueryKey));
        assert!(p.programs().is_empty());
        assert_eq!(p.ray_layout().total_bytes(), 16);
        assert_eq!(p.ray_layout().offset_of(2), 8);
    }

    #[test]
    fn programs_are_numbered_inner_first_without_repeats() {
        let build = |inner, leaf| {
            base()
                .config_i(inner)
                .config_l(leaf)
                .build(AcceleratorGen::TtaPlus)
                .unwrap()
        };
        let (qk_inner, qk_leaf) = (UopProgram::query_key_inner(), UopProgram::query_key_leaf());
        let p = build(
            TestConfig::Uops(qk_inner.clone()),
            TestConfig::Uops(qk_leaf.clone()),
        );
        assert_eq!(p.programs(), vec![qk_inner, qk_leaf]);
        assert_eq!(p.test_kinds(), (TestKind::Program(0), TestKind::Program(1)));
        // One program in both slots registers once and runs as id 0 twice.
        let rb = UopProgram::ray_box();
        let p = build(TestConfig::Uops(rb.clone()), TestConfig::Uops(rb.clone()));
        assert_eq!(p.programs(), vec![rb.clone()]);
        assert_eq!(p.test_kinds(), (TestKind::Program(0), TestKind::Program(0)));
        // A fixed-function or shader slot takes no id.
        let p = build(TestConfig::Shader, TestConfig::Uops(rb.clone()));
        assert_eq!(p.programs(), vec![rb]);
        assert_eq!(
            p.test_kinds(),
            (TestKind::IntersectionShader, TestKind::Program(0))
        );
    }

    #[test]
    fn baseline_rejects_tta_tests() {
        let err = base()
            .config_i(TestConfig::QueryKey)
            .config_l(TestConfig::QueryKey)
            .build(AcceleratorGen::BaselineRta)
            .unwrap_err();
        assert!(matches!(
            err,
            ConfigError::UnsupportedTest { slot: "inner", .. }
        ));
    }

    #[test]
    fn tta_rejects_uop_programs() {
        let err = base()
            .config_i(TestConfig::Uops(UopProgram::query_key_inner()))
            .config_l(TestConfig::QueryKey)
            .build(AcceleratorGen::Tta)
            .unwrap_err();
        assert!(matches!(err, ConfigError::UnsupportedTest { .. }));
    }

    #[test]
    fn ttaplus_without_sqrt_rejects_sphere_program() {
        let err = base()
            .config_i(TestConfig::RayBox)
            .config_l(TestConfig::Uops(UopProgram::ray_sphere_leaf()))
            .build(AcceleratorGen::TtaPlusNoSqrt)
            .unwrap_err();
        assert!(matches!(
            err,
            ConfigError::UnsupportedTest { slot: "leaf", .. }
        ));
        // With SQRT it builds.
        assert!(base()
            .config_i(TestConfig::RayBox)
            .config_l(TestConfig::Uops(UopProgram::ray_sphere_leaf()))
            .build(AcceleratorGen::TtaPlus)
            .is_ok());
    }

    #[test]
    fn layout_validation() {
        assert_eq!(RecordLayout::new(&[]), Err(ConfigError::EmptyLayout));
        assert_eq!(RecordLayout::new(&[3]), Err(ConfigError::BadFieldSize(3)));
        assert_eq!(RecordLayout::new(&[0]), Err(ConfigError::BadFieldSize(0)));
        assert_eq!(
            RecordLayout::new(&[32, 36]),
            Err(ConfigError::LayoutTooLarge(68))
        );
        let l = RecordLayout::new(&[12, 12, 4, 4]).unwrap();
        assert_eq!(l.offset_of(3), 28);
        assert_eq!(l.total_bytes(), 32);
    }

    #[test]
    fn missing_pieces_reported() {
        let err = PipelineBuilder::new("x")
            .build(AcceleratorGen::Tta)
            .unwrap_err();
        assert_eq!(err, ConfigError::Missing("DecodeR"));
    }

    #[test]
    fn decode_coverage_accepts_matching_layouts() {
        // The B-Tree shape: 4 ray fields, 4 node fields cover everything
        // Query-Key reads (Ray 0, Node 0, Node 2).
        let p = PipelineBuilder::new("btree-uops")
            .decode_r(&[4, 4, 4, 4])
            .decode_i(&[4, 4, 32, 24])
            .decode_l(&[4, 4, 32, 24])
            .config_i(TestConfig::Uops(UopProgram::query_key_inner()))
            .config_l(TestConfig::Uops(UopProgram::query_key_leaf()))
            .config_terminate(TerminateCond::StackEmpty)
            .build(AcceleratorGen::TtaPlus)
            .unwrap();
        assert!(p.check_decode_coverage().is_empty());
        assert_eq!(p.inner_layout().fields().len(), 4);
        assert_eq!(p.leaf_layout().total_bytes(), 64);
    }

    #[test]
    fn decode_coverage_flags_missing_node_field() {
        // Point-to-Point reads Node(4), but this layout declares only 3
        // node fields — the classic misconfigured-DecodeI mistake.
        let p = PipelineBuilder::new("bad")
            .decode_r(&[12, 4])
            .decode_i(&[4, 4, 12])
            .decode_l(&[4, 4, 12])
            .config_i(TestConfig::Uops(UopProgram::point_to_point_inner()))
            .config_l(TestConfig::Shader)
            .config_terminate(TerminateCond::StackEmpty)
            .build(AcceleratorGen::TtaPlus)
            .unwrap();
        let issues = p.check_decode_coverage();
        assert!(issues.contains(&PipelineIssue::NodeFieldOutOfRange {
            slot: "inner",
            pc: 2,
            field: 4,
            fields: 3,
        }));
    }

    #[test]
    fn decode_coverage_resolves_fixed_function_tests_on_ttaplus() {
        // On TTA+ a RayBox config executes the Table III program, which
        // reads Ray(1) — absent from this single-field ray layout.
        let build = |gen| {
            PipelineBuilder::new("fixed")
                .decode_r(&[12])
                .decode_i(&[4, 4, 24, 24])
                .decode_l(&[4, 4, 24, 24])
                .config_i(TestConfig::RayBox)
                .config_l(TestConfig::Shader)
                .config_terminate(TerminateCond::StackEmpty)
                .build(gen)
                .unwrap()
        };
        let issues = build(AcceleratorGen::TtaPlus).check_decode_coverage();
        assert!(issues
            .iter()
            .any(|i| matches!(i, PipelineIssue::RayFieldOutOfRange { field: 1, .. })));
        // The baseline RTA decodes Ray-Box in hardware — no μop routing to
        // check, so the same layout passes.
        assert!(build(AcceleratorGen::BaselineRta)
            .check_decode_coverage()
            .is_empty());
    }

    #[test]
    fn terminate_reachability_checked() {
        // StackEmpty is always reachable.
        let p = base()
            .config_i(TestConfig::QueryKey)
            .config_l(TestConfig::QueryKey)
            .build(AcceleratorGen::Tta)
            .unwrap();
        assert!(p.check_terminate_reachability().is_empty());

        // A RayFieldNonZero condition anchored inside the resolved leaf
        // program is reachable on TTA+...
        let good = base()
            .config_i(TestConfig::Uops(UopProgram::query_key_inner()))
            .config_l(TestConfig::Uops(UopProgram::query_key_leaf()))
            .config_terminate(TerminateCond::RayFieldNonZero {
                offset: 4,
                at_pc: 0,
            })
            .build(AcceleratorGen::TtaPlus)
            .unwrap();
        assert!(good.check_terminate_reachability().is_empty());

        // ...but a PC past the program's end can never fire.
        let leaf_len = UopProgram::query_key_leaf().uops().len();
        let bad_pc = base()
            .config_i(TestConfig::Uops(UopProgram::query_key_inner()))
            .config_l(TestConfig::Uops(UopProgram::query_key_leaf()))
            .config_terminate(TerminateCond::RayFieldNonZero {
                offset: 4,
                at_pc: leaf_len + 3,
            })
            .build(AcceleratorGen::TtaPlus)
            .unwrap();
        assert_eq!(
            bad_pc.check_terminate_reachability(),
            vec![PipelineIssue::TerminatePcOutOfRange {
                at_pc: leaf_len + 3,
                len: leaf_len,
            }]
        );

        // On plain TTA the fixed-function leaf runs no μop program, so a
        // μop-anchored terminate check never executes at all.
        let never = base()
            .config_i(TestConfig::QueryKey)
            .config_l(TestConfig::QueryKey)
            .config_terminate(TerminateCond::RayFieldNonZero {
                offset: 4,
                at_pc: 0,
            })
            .build(AcceleratorGen::Tta)
            .unwrap();
        assert_eq!(
            never.check_terminate_reachability(),
            vec![PipelineIssue::TerminateNeverChecked]
        );
    }

    #[test]
    fn a_fixed_leaf_test_resolves_to_the_program_ttaplus_runs() {
        // TTA+ runs the canned Query-Key program, `query_key_inner`, in
        // either slot, so a check anchored past the end of the shorter
        // `query_key_leaf` still fires.
        let at_pc = UopProgram::query_key_leaf().len();
        assert!(at_pc < UopProgram::query_key_inner().len());
        let p = base()
            .config_i(TestConfig::QueryKey)
            .config_l(TestConfig::QueryKey)
            .config_terminate(TerminateCond::RayFieldNonZero { offset: 4, at_pc })
            .build(AcceleratorGen::TtaPlus)
            .unwrap();
        assert!(p.check_terminate_reachability().is_empty());
        assert_eq!(
            p.program_for(p.test_kinds().1),
            Some(UopProgram::query_key_inner())
        );
    }

    #[test]
    fn terminate_bounds_checked() {
        let err = base()
            .config_i(TestConfig::RayBox)
            .config_l(TestConfig::RayTriangle)
            .config_terminate(TerminateCond::RayFieldNonZero {
                offset: 60,
                at_pc: 3,
            })
            .build(AcceleratorGen::BaselineRta)
            .unwrap_err();
        assert_eq!(err, ConfigError::TerminateOutOfRange(60));
    }
}
