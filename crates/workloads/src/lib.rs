//! Benchmark applications and data generators for the TTA reproduction.
//!
//! Each module pairs a *baseline* implementation (a SIMT kernel in the
//! simulator's mini-ISA, or the unmodified RTA for the ray-tracing apps)
//! with the TTA / TTA+ accelerated configuration, exactly as the paper's
//! evaluation does:
//!
//! | module | paper workload | baseline | accelerated |
//! |--------|----------------|----------|-------------|
//! | [`btree`] | B-Tree / B\*Tree / B+Tree search | SIMT kernel | Query-Key on TTA / μops on TTA+ |
//! | [`nbody`] | Barnes-Hut N-Body 2D & 3D | SIMT kernel | Point-to-Point + force program |
//! | [`rtnn`] | RTNN radius search (KITTI-like) | RTA + intersection shader | \*RTNN offloaded leaf test |
//! | [`lumibench`] | LumiBench-like RT suite incl. WKND_PT, SHIP_SH | RTA fixed-function | TTA+ programs (+SATO, +Ray-Sphere) |
//! | [`rtree`] | R-Tree range query (extension; §I motivates it) | SIMT kernel | MBR tests on the Ray-Box unit |
//! | [`instanced`] | two-level TLAS/BLAS instanced scenes (extension) | RTA + R-XFORM unit | transform μop on TTA+ |
//!
//! [`gen`] provides the seeded data/scene generators, [`kernels`] the
//! baseline mini-ISA kernels, [`runner`] the shared plumbing, [`query`]
//! the one device setup every workload above shares between its
//! closed-batch sessions and the serving backends, and [`session`] the
//! resumable launch-by-launch form of every experiment that the
//! `tta-snap` snapshot/restore machinery drives.

pub mod btree;
pub mod cacheable;
pub mod cost;
pub mod gen;
pub mod instanced;
pub mod kernels;
pub mod lumibench;
pub mod nbody;
pub mod query;
pub mod rtnn;
pub mod rtree;
pub mod runner;
pub mod session;

pub use cacheable::CacheableExperiment;
pub use rta::AccelReport;
pub use runner::{
    FleetClassSummary, FleetDeviceSummary, FleetSummary, Platform, RunResult, ServeSummary,
};
pub use session::RunSession;
