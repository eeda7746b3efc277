//! Fig. 13 — DRAM bandwidth utilization of selected applications on the
//! non-accelerated baseline GPU, baseline RTA, TTA and TTA+.
//!
//! Paper shape to match: the accelerators' dedicated memory scheduler
//! roughly doubles DRAM utilization over the SIMT baseline for the
//! tree-index workloads.

use trees::BTreeFlavor;
use tta_bench::{
    pct, platform_tta, platform_ttaplus, prepare, run_or_resume, Args, InputCache, Report,
};
use workloads::btree::BTreeExperiment;
use workloads::nbody::NBodyExperiment;
use workloads::rtnn::{LeafPath, RtnnExperiment};
use workloads::Platform;

fn main() {
    let args = Args::parse(&["--trace", "--snapshot-dir", "--resume"]);
    let cache = InputCache::new();
    let mut sweep = args.sweep("fig13");
    // With --snapshot-dir, runs go through the snapshot store: cold runs
    // save their final state, warm reruns restore it and skip simulation
    // (journals stay byte-identical; the CI snapshot smoke diffs them).
    let store = args.snapshot_store();
    let strict = args.resume;

    let queries = args.sized(16_384);
    let keys = args.sized(64_000);

    // (app, base idx, tta idx, tta+ idx)
    let mut triples: Vec<(String, usize, usize, usize)> = Vec::new();
    for flavor in BTreeFlavor::ALL {
        let mut add = |platform: Platform| {
            let mut e = prepare(
                &cache,
                BTreeExperiment::new(flavor, keys, queries, platform),
            );
            e.trace_dir = args.trace.clone();
            let store = store.clone();
            sweep.add(move || run_or_resume(store.as_ref(), strict, || Box::new(e.session(1))))
        };
        let base = add(Platform::BaselineGpu);
        let tta = add(platform_tta());
        let plus = add(platform_ttaplus(BTreeExperiment::uop_programs()));
        triples.push((flavor.to_string(), base, tta, plus));
    }

    let bodies = args.sized(4_000);
    let mut add = |platform: Platform| {
        let mut e = prepare(&cache, NBodyExperiment::new(3, bodies, platform));
        e.trace_dir = args.trace.clone();
        let store = store.clone();
        sweep.add(move || run_or_resume(store.as_ref(), strict, || Box::new(e.session())))
    };
    let base = add(Platform::BaselineGpu);
    let tta = add(platform_tta());
    let plus = add(platform_ttaplus(NBodyExperiment::uop_programs()));
    triples.push(("N-Body 3D".to_owned(), base, tta, plus));

    // RTNN has no SIMT baseline in the paper; report RTA as its base.
    let points = args.sized(64_000);
    let rtnn_q = args.sized(2_048);
    let mut add = |platform: Platform, leaf: LeafPath| {
        let mut e = prepare(&cache, RtnnExperiment::new(points, rtnn_q, platform, leaf));
        e.trace_dir = args.trace.clone();
        let store = store.clone();
        sweep.add(move || run_or_resume(store.as_ref(), strict, || Box::new(e.session(1))))
    };
    let base = add(tta_bench::platform_rta(), LeafPath::Shader);
    let tta = add(platform_tta(), LeafPath::Offloaded);
    let plus = add(
        platform_ttaplus(RtnnExperiment::uop_programs()),
        LeafPath::Offloaded,
    );
    triples.push(("RTNN (vs RTA)".to_owned(), base, tta, plus));

    let results = sweep.run().results;

    let mut rep = Report::new(
        "fig13",
        "Fig. 13: DRAM bandwidth utilization by platform",
        "TTA/TTA+ roughly double the baseline GPU's utilization",
    );
    rep.columns(&["app", "BASE", "TTA", "TTA+"]);
    for (name, base, tta, plus) in &triples {
        rep.row(vec![
            name.clone(),
            pct(results[*base].stats.dram_utilization()),
            pct(results[*tta].stats.dram_utilization()),
            pct(results[*plus].stats.dram_utilization()),
        ]);
    }
    rep.finish();
}
