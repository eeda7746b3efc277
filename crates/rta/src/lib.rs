//! Baseline Ray-Tracing Accelerator (RTA) model.
//!
//! This crate models the RTA of Fig. 4 of the paper as three composable
//! pieces, all reused by the TTA/TTA+ extensions in the `tta` crate:
//!
//! * [`engine::TraversalEngine`] — the warp buffer, per-ray while-while
//!   state machines, and the hardware memory scheduler (1 node request per
//!   cycle with same-address merging). Implements
//!   [`gpu_sim::Accelerator`], so it attaches one-per-SM.
//! * [`units`] — the intersection-test timing backends. The
//!   [`units::FixedFunctionBackend`] provides 4 sets of Ray-Box (13-cycle)
//!   and Ray-Triangle (37-cycle) pipelines, the R-XFORM unit, and the
//!   intersection-shader callback path for procedural geometry; TTA runs
//!   the same backend in its modified-units mode (Query-Key and
//!   Point-to-Point).
//! * [`report::AccelReport`] — a run's engine, unit, program and shader
//!   counters, reported by each engine through its backend and folded
//!   over SMs by [`AccelReport::harvest`].
//! * [`bvh_semantics::BvhSemantics`] — the fixed-function *meaning* of a
//!   ray-tracing traversal: Ray-Box at inner nodes, Ray-Triangle (or a
//!   shader'd Ray-Sphere) at leaves, closest-hit and any-hit modes — plus
//!   [`two_level_semantics::TwoLevelSemantics`] for instanced TLAS/BLAS
//!   scenes with R-XFORM ray transforms between levels.
//!
//! # Examples
//!
//! Building a baseline RTA for a triangle scene:
//!
//! ```
//! use tta_rta::{RtaConfig, TraversalEngine};
//! use tta_rta::units::FixedFunctionBackend;
//! use tta_rta::bvh_semantics::{BvhSemantics, LeafGeometry, RayQueryMode};
//!
//! let cfg = RtaConfig::baseline();
//! let backend = Box::new(FixedFunctionBackend::new(&cfg));
//! let semantics = BvhSemantics {
//!     tree_base: 0x1000,
//!     prim_base: 0x9000,
//!     leaf: LeafGeometry::TRIANGLE,
//!     mode: RayQueryMode::ClosestHit,
//!     sato: false,
//! };
//! let engine = TraversalEngine::new(cfg, backend, vec![Box::new(semantics)]);
//! assert_eq!(engine.config().warp_buffer_warps, 4);
//! ```

pub mod bvh_semantics;
pub mod config;
pub mod engine;
pub mod report;
pub mod two_level_semantics;
pub mod units;

pub use config::RtaConfig;
pub use engine::{EngineStats, RayState, StepAction, TraversalEngine, TraversalSemantics};
pub use report::AccelReport;
pub use units::{FixedFunctionBackend, IntersectionBackend, ProgramStats, TestKind, UnitStats};
