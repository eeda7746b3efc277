//! The sweep-level snapshot contract: a sweep routed through
//! [`run_or_resume`] writes byte-identical journals cold (simulating,
//! populating the store) and warm (restoring final states, skipping
//! simulation) — and the warm pass is what `--snapshot-dir` + `--resume`
//! in the bench binaries stand on.

use std::path::Path;

use gpu_sim::GpuConfig;
use trees::BTreeFlavor;
use tta_harness::{prepare, run_or_resume, InputCache, SnapshotStore, Sweep};
use workloads::btree::BTreeExperiment;
use workloads::nbody::NBodyExperiment;
use workloads::Platform;

/// A two-workload, two-platform mini sweep in the shape of a `fig13`
/// column, every run routed through the snapshot store.
fn run_sweep(store: &SnapshotStore, strict: bool, dir: &Path) -> Vec<u8> {
    let cache = InputCache::new();
    let mut sweep = Sweep::new("snapshot-sweep", 2);
    for platform in [
        Platform::BaselineGpu,
        Platform::Tta(tta::backend::TtaConfig::default_paper()),
    ] {
        let mut e = BTreeExperiment::new(BTreeFlavor::BTree, 1000, 96, platform.clone());
        e.gpu = GpuConfig::small_test();
        let e = prepare(&cache, e);
        let s = store.clone();
        sweep.add(move || run_or_resume(Some(&s), strict, || Box::new(e.session(2))));

        let mut e = NBodyExperiment::new(3, 128, platform);
        e.gpu = GpuConfig::small_test();
        let e = prepare(&cache, e);
        let s = store.clone();
        sweep.add(move || run_or_resume(Some(&s), strict, || Box::new(e.session())));
    }
    let outcome = sweep.run_to(dir);
    assert_eq!(outcome.results.len(), 4);
    std::fs::read(outcome.journal_path.expect("journal written")).expect("journal readable")
}

#[test]
fn warm_snapshot_rerun_writes_identical_journal_bytes() {
    let base = std::env::temp_dir().join(format!("tta-snapshot-sweep-{}", std::process::id()));
    let store = SnapshotStore::open(base.join("store")).expect("store opens");

    // Cold: simulates everything and populates the store.
    let cold = run_sweep(&store, false, &base.join("cold"));
    let saved = std::fs::read_dir(store.dir())
        .expect("store dir exists")
        .count();
    assert_eq!(saved, 4, "cold pass must save one snapshot per run");

    // Warm + strict: every run must restore (strict panics on a miss)
    // and the journal must not be able to tell the difference.
    let warm = run_sweep(&store, true, &base.join("warm"));
    assert_eq!(
        cold, warm,
        "a snapshot-restored sweep must write byte-identical journal bytes"
    );
    let _ = std::fs::remove_dir_all(&base);
}

/// A snapshot filed under the same key by a host with a larger L2
/// (`GpuConfig` is not part of the key) fails to import part-way through
/// the memory hierarchy. The fallback must re-run on a fresh session, not
/// on the half-restored one, and so match a genuinely cold run.
#[test]
fn stale_snapshot_falls_back_to_a_cold_run() {
    let base = std::env::temp_dir().join(format!("tta-snapshot-stale-{}", std::process::id()));
    let store = SnapshotStore::open(base.join("store")).expect("store opens");
    let with_l2 = |l2_bytes: usize| {
        let mut e = BTreeExperiment::new(BTreeFlavor::BTree, 1000, 96, Platform::BaselineGpu);
        e.gpu = GpuConfig::small_test();
        e.gpu.mem.l2_bytes = l2_bytes;
        e
    };
    let big = with_l2(128 * 1024);
    run_or_resume(Some(&store), false, || Box::new(big.session(2)));

    let small = with_l2(64 * 1024);
    let cold = workloads::session::run_to_end(Box::new(small.session(2)));
    let fallback = run_or_resume(Some(&store), false, || Box::new(small.session(2)));
    assert_eq!(
        fallback.stats, cold.stats,
        "a stale snapshot must degrade to exactly a cold run"
    );
    let _ = std::fs::remove_dir_all(&base);
}
