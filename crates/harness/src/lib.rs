//! Parallel sweep runner for the figure/table experiments.
//!
//! Every paper figure is a *sweep*: a list of independent experiment runs
//! (platform × configuration × workload points) whose results are compared
//! against each other. The simulator is single-threaded per run but runs
//! are embarrassingly parallel, so this crate provides the shared layer
//! the `tta-bench` binaries build on:
//!
//! * [`pool`] — a std-only scoped-thread work pool (the build environment
//!   has no registry access, so no `rayon`) that executes boxed jobs and
//!   returns results **in submission order** regardless of thread count;
//! * [`cache`] — an [`InputCache`] keyed by experiment input descriptors,
//!   so a sweep builds each B-Tree/BVH/point set once and shares it across
//!   platform points behind an [`std::sync::Arc`];
//! * [`journal`] — deterministic JSON serialization of
//!   [`workloads::RunResult`] lists (cycles, SIMT efficiency, DRAM
//!   utilization, instruction mix, per-unit stats);
//! * [`sweep`] — the [`Sweep`] orchestrator tying the three together and
//!   writing `results/<name>.journal.json` plus a wall-clock sidecar.
//!
//! # Determinism
//!
//! A sweep run with 1 thread and with N threads produces **byte-identical**
//! journals: all simulation state is seeded and per-run, jobs are pure
//! functions of their experiment configuration, and the pool restores
//! submission order. Wall-clock measurements are inherently nondeterministic
//! and therefore live in a separate `.timing.json` sidecar, never in the
//! journal itself.
//!
//! # Examples
//!
//! ```
//! use tta_harness::{prepare, InputCache, Sweep};
//! use workloads::btree::BTreeExperiment;
//! use workloads::Platform;
//! use trees::BTreeFlavor;
//!
//! let cache = InputCache::new();
//! let mut sweep = Sweep::new("example", 2);
//! for platform in [Platform::BaselineGpu] {
//!     let mut e = BTreeExperiment::new(BTreeFlavor::BTree, 2000, 128, platform);
//!     e.gpu = gpu_sim::GpuConfig::small_test();
//!     let e = prepare(&cache, e);
//!     sweep.add(move || e.run());
//! }
//! let outcome = sweep.run_to(std::env::temp_dir().join("tta-doc-example"));
//! assert_eq!(outcome.results.len(), 1);
//! ```

pub mod cache;
pub mod journal;
pub mod pool;
pub mod sweep;

pub use cache::InputCache;
pub use snap::SnapshotStore;
pub use sweep::{Sweep, SweepOutcome};

use workloads::{CacheableExperiment, RunSession};

/// Attaches shared cached inputs to an experiment: looks the experiment's
/// input key up in `cache`, building (once) on miss, and returns the
/// experiment with the [`std::sync::Arc`]-shared inputs attached. Two
/// experiments with equal input keys end up sharing the same allocation.
pub fn prepare<E: CacheableExperiment>(cache: &InputCache, mut e: E) -> E {
    let inputs = cache.get_or_build(&e.inputs_key(), || e.build_inputs());
    e.set_inputs(inputs);
    e
}

/// Runs a session through a [`SnapshotStore`]: the `InputCache` idea one
/// level deeper. With no store this is exactly
/// [`workloads::session::run_to_end`]. With a store, the session first
/// tries to restore the snapshot filed under its
/// [`RunSession::snapshot_key`] and only simulates the steps the snapshot
/// does not already cover — a completed snapshot skips simulation entirely
/// and goes straight to verification/harvest, which is what makes warm
/// sweep reruns (`--snapshot-dir` + `--resume` in the bench binaries)
/// fast. After a cold run the final state is saved for the next rerun.
///
/// A snapshot that no longer fits the session (schema or configuration
/// drift) is treated as a miss and re-simulated on a session freshly
/// re-opened with `open` — a failed import may have overwritten part of
/// the first one — so stale stores degrade to cold runs instead of
/// failing.
///
/// # Panics
///
/// Panics when `strict` is set and no usable snapshot exists — the
/// `--resume` contract is "restore or fail loudly", never silently
/// re-simulate.
pub fn run_or_resume(
    store: Option<&SnapshotStore>,
    strict: bool,
    open: impl Fn() -> Box<dyn RunSession>,
) -> workloads::RunResult {
    let mut session = open();
    let Some(store) = store else {
        assert!(!strict, "--resume requires a snapshot store");
        return workloads::session::run_to_end(session);
    };
    let key = session.snapshot_key().to_owned();
    let mut restored = false;
    match store.load(&key) {
        Ok(bag) => match session.import_state(&bag) {
            Ok(()) => restored = true,
            Err(e) => {
                eprintln!("[snap] stale snapshot for `{key}` ({e}); re-running");
                session = open();
            }
        },
        Err(snap::SnapError::Io(_)) if !store.contains(&key) => {}
        Err(e) => eprintln!("[snap] unreadable snapshot for `{key}` ({e}); re-running"),
    }
    assert!(
        !strict || restored,
        "--resume: no usable snapshot for `{key}` under {}",
        store.dir().display()
    );
    let was_done = session.done();
    while !session.done() {
        session.step();
    }
    if !(restored && was_done) {
        if let Err(e) = store.save(&key, &session.export_state()) {
            eprintln!("[snap] could not save snapshot for `{key}`: {e}");
        }
    }
    session.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use trees::BTreeFlavor;
    use workloads::btree::BTreeExperiment;
    use workloads::Platform;

    #[test]
    fn prepare_shares_inputs_across_platform_points() {
        let cache = InputCache::new();
        let base = BTreeExperiment::new(BTreeFlavor::BTree, 1000, 64, Platform::BaselineGpu);
        let a = prepare(&cache, base.clone());
        let b = prepare(&cache, base);
        let (ia, ib) = (a.inputs.unwrap(), b.inputs.unwrap());
        assert!(
            Arc::ptr_eq(&ia, &ib),
            "repeated tree builds must return the same Arc"
        );
        // A different configuration gets different inputs.
        let other = BTreeExperiment::new(BTreeFlavor::BPlus, 1000, 64, Platform::BaselineGpu);
        let c = prepare(&cache, other);
        assert!(!Arc::ptr_eq(&ia, &c.inputs.unwrap()));
    }
}
