//! tta-serve: an online query-serving subsystem over the TTA simulator.
//!
//! The closed-batch experiments in `tta-workloads` answer the paper's
//! question — *how fast is one big launch?* — but a deployed tree-query
//! accelerator serves an **open-loop stream**: queries arrive continuously
//! and latency percentiles, not makespan, are the product metric. This
//! crate models that regime deterministically:
//!
//! * [`engine`] — a virtual-clock serving loop: time is simulated GPU
//!   cycles, arrivals are a precomputed seeded stream, and every decision
//!   is a pure function of (stream, policy, backend). Journals are
//!   byte-identical across hosts and thread counts.
//! * [`policy`] — batch formation: size-triggered, deadline-triggered, and
//!   continuous batching (work-conserving warp-slot refill, with
//!   per-*warp* completion accounting from
//!   [`SimStats::warp_completions`](gpu_sim::SimStats)).
//! * [`service`] — the backend that executes batches as simulated
//!   kernels: one [`QueryService`] over any
//!   [`QueryWorkload`](workloads::query::QueryWorkload) (B-Tree lookups,
//!   RTNN radius searches, Barnes-Hut force queries) on the SIMT
//!   baseline, TTA, or TTA+.
//! * [`metrics`] — per-query latency folded into p50/p95/p99, throughput,
//!   queue depth, and drop counters
//!   ([`ServeSummary`](workloads::ServeSummary), journaled by the
//!   harness).
//! * [`session`] — the resumable serving loop: pause at any virtual
//!   cycle, export engine + clock state into a
//!   [`StateBag`](gpu_sim::snapshot::StateBag), resume on a fresh host
//!   with byte-identical journals (`tta-snap` asserts this).
//! * [`experiment`] — the sweepable [`ServeExperiment`] tying it together.
//!
//! The `serve` binary in `tta-bench` runs the checked-in smoke grid and
//! writes `results/serve.journal.json`.

pub mod engine;
pub mod experiment;
pub mod metrics;
pub mod policy;
pub mod service;
pub mod session;

pub use engine::{serve, BatchService, DeviceEngine, QueryOutcome, ServeConfig, ServeOutcome};
pub use experiment::{build_service, ServeExperiment, ServeInputs, ServeWorkload};
pub use metrics::summarize;
pub use policy::BatchPolicy;
pub use service::{QueryService, ServeBackend};
pub use session::ServeSession;
