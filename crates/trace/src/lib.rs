//! # tta-trace — deterministic observability for the simulator stack
//!
//! The simulator's headline numbers (DESIGN.md §5) are cycle-level, but
//! `SimStats` only reports end-of-run aggregates. This crate adds the
//! missing layer: a low-overhead event/span stream stamped with the
//! *simulated* cycle, threaded through the GPU core loop, the memory
//! hierarchy, the traversal accelerators, the TTA+ μop scheduler, and
//! the serving engine.
//!
//! ## Determinism contract
//!
//! Events carry simulated cycles and are emitted in simulation order, so
//! a trace is a pure function of the experiment configuration —
//! byte-identical across hosts, runs, and harness `--threads` values
//! (each worker owns its `Gpu` and its sink; handles never cross
//! threads). The golden-trace suite under `tests/golden/` locks this
//! down.
//!
//! ## Pieces
//!
//! * [`TraceEvent`] / [`Track`] / [`EventKind`] — the event model.
//! * [`TraceHandle`] — the cheap `Clone` handle the simulator carries;
//!   the default handle is disabled and costs one branch per call site.
//! * [`TraceSink`], implemented by [`ChromeTraceSink`] (Chrome
//!   `trace_event` JSON for `chrome://tracing` / Perfetto).
//! * [`CycleAttribution`] / [`Bucket`] — the always-on histogram stored
//!   in `SimStats`: every simulated cycle lands in exactly one bucket.
//! * [`validate_chrome_json`] / [`check_events`] — schema and invariant
//!   checkers backing the test suites and the `tta-trace-check` binary.
//! * [`json`] — the workspace's one JSON reader and writer, which every
//!   journal, trace, log and report goes through.

pub mod chrome;
mod event;
pub mod json;
mod sink;
mod validate;

pub use event::{Bucket, CycleAttribution, EventKind, TraceEvent, Track};
pub use sink::{file_name_for_label, ChromeTraceSink, TraceHandle, TraceSink};
pub use validate::{check_events, validate_chrome_json, EventCheck, TraceCheck};
