//! Fig. 1 — SIMT efficiency and DRAM bandwidth utilization of tree
//! traversal applications on GPUs with and without TTAs.
//!
//! Paper shape to match: the baseline GPU shows *low* SIMT efficiency for
//! B-Tree variants and ray tracing (N-Body stays high), and low DRAM
//! utilization across the board; with the traversal offloaded, the few
//! remaining core instructions are coherent (efficiency near 100%) and
//! DRAM utilization roughly doubles.

use trees::BTreeFlavor;
use tta_bench::{pct, platform_tta, platform_ttaplus, prepare, Args, InputCache, Report};
use workloads::btree::BTreeExperiment;
use workloads::lumibench::{RtExperiment, RtWorkload};
use workloads::nbody::NBodyExperiment;
use workloads::runner::RunResult;
use workloads::Platform;

fn main() {
    let args = Args::parse(&[]);
    let cache = InputCache::new();
    let mut sweep = args.sweep("fig01");

    let queries = args.sized(16_384);
    let keys = args.sized(64_000);

    // Queue every (app, baseline, TTA) pair, remembering its indices.
    let mut pairs: Vec<(String, usize, usize)> = Vec::new();
    let mut queue_btree = |flavor, platform: Platform| {
        let e = prepare(
            &cache,
            BTreeExperiment::new(flavor, keys, queries, platform),
        );
        sweep.add(move || e.run())
    };
    for flavor in BTreeFlavor::ALL {
        let base = queue_btree(flavor, Platform::BaselineGpu);
        let tta = queue_btree(flavor, platform_tta());
        pairs.push((flavor.to_string(), base, tta));
    }

    let bodies = args.sized(4_000);
    let mut queue_nbody = |platform: Platform| {
        let e = prepare(&cache, NBodyExperiment::new(3, bodies, platform));
        sweep.add(move || e.run())
    };
    let base = queue_nbody(Platform::BaselineGpu);
    let tta = queue_nbody(platform_tta());
    pairs.push(("N-Body 3D".to_owned(), base, tta));

    // Ray tracing: SIMT kernel vs accelerator offload (TTA+ programs so
    // the sphere-free triangle path is fully offloaded).
    let mut queue_rt = |platform: Platform| {
        let mut e = RtExperiment::new(RtWorkload::BlobPt, platform);
        e.width = args.sized(64);
        e.height = args.sized(48);
        let e = prepare(&cache, e);
        sweep.add(move || e.run())
    };
    let base = queue_rt(Platform::BaselineGpu);
    let tta = queue_rt(platform_ttaplus(RtExperiment::uop_programs()));
    pairs.push(("RT (BLOB_PT)".to_owned(), base, tta));

    let results = sweep.run().results;

    let mut rep = Report::new(
        "fig01",
        "Fig. 1: SIMT efficiency & DRAM bandwidth utilization, baseline vs TTA",
        "baseline: low SIMT eff (except N-Body) and low DRAM util; TTA: ~2x DRAM util",
    );
    rep.columns(&["app", "BASE simt", "BASE dram", "TTA simt", "TTA dram"]);
    for (name, base, tta) in &pairs {
        row(&mut rep, name, &results[*base], &results[*tta]);
    }
    rep.finish();
}

fn row(rep: &mut Report, name: &str, base: &RunResult, tta: &RunResult) {
    rep.row(vec![
        name.to_owned(),
        pct(base.stats.simt_efficiency()),
        pct(base.stats.dram_utilization()),
        pct(tta.stats.simt_efficiency()),
        pct(tta.stats.dram_utilization()),
    ]);
}
