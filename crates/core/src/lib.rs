//! Tree Traversal Accelerators — **TTA** and **TTA+** — the primary
//! contribution of *"Generalizing Ray Tracing Accelerators for Tree
//! Traversals on GPUs"* (MICRO 2024).
//!
//! Both designs extend the baseline RTA model of the `tta-rta` crate (whose
//! traversal engine, warp buffer and memory scheduler they reuse verbatim —
//! exactly the paper's point) with new intersection capability:
//!
//! * [`backend::TtaConfig`] — **TTA**: the Ray-Box unit gains equality
//!   comparators to run a 9-wide *Query-Key comparison*, and the
//!   Ray-Triangle unit gains a *Point-to-Point distance* bypass datapath.
//!   Its units are the RTA's own `FixedFunctionBackend` in its
//!   modified-units mode ([`TtaConfig::backend`]). Area cost: +1.8% of the
//!   Ray-Box unit (§V-C1).
//! * [`ttaplus::TtaPlusBackend`] — **TTA+**: the fixed pipelines decompose
//!   into the Table I [`op_unit::OpUnit`]s behind a 16×16 crossbar, and
//!   intersection tests become [`programs::UopProgram`]s (Table III),
//!   trading ~10× intersection latency for full programmability.
//! * [`pipeline`] — the programming interface of Listing 1 (`DecodeR/I/L`,
//!   `ConfigI/L`, `ConfigTerminate`) with build-time validation.
//! * [`btree_sem`], [`nbody_sem`], [`radius_sem`] — the traversal semantics
//!   of the paper's non-graphics workloads (B-Tree search, Barnes-Hut
//!   N-Body, RTNN radius search) — plus [`rtree_sem`], the R-Tree range
//!   query the paper motivates but does not evaluate.
//!
//! # Examples
//!
//! Assembling a TTA that serves B-Tree queries:
//!
//! ```
//! use rta::TraversalEngine;
//! use rta::units::TestKind;
//! use tta::backend::TtaConfig;
//! use tta::btree_sem::BTreeSemantics;
//!
//! let cfg = TtaConfig::default_paper();
//! let engine = TraversalEngine::new(
//!     cfg.rta.clone(),
//!     Box::new(cfg.backend()),
//!     vec![Box::new(BTreeSemantics {
//!         tree_base: 0x1000,
//!         bplus: false,
//!         inner_test: TestKind::QueryKey,
//!         leaf_test: TestKind::QueryKey,
//!     })],
//! );
//! assert_eq!(engine.config().warp_buffer_warps, 4);
//! ```

pub mod backend;
pub mod btree_sem;
pub mod dataflow;
pub mod nbody_sem;
pub mod op_unit;
pub mod pipeline;
pub mod programs;
pub mod radius_sem;
pub mod rtree_sem;
pub mod ttaplus;

pub use backend::TtaConfig;
pub use dataflow::{check_program, ProgramIssue};
pub use op_unit::OpUnit;
pub use pipeline::{AcceleratorGen, PipelineBuilder, PipelineIssue, TraversalPipeline};
pub use programs::UopProgram;
pub use ttaplus::{TtaPlusBackend, TtaPlusConfig};
