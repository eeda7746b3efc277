//! Fig. 6 — GPU roofline model for tree traversal applications.
//!
//! Paper shape to match: every tree-traversal workload sits far below the
//! bandwidth roof at low arithmetic intensity — memory-*latency* bound, not
//! compute bound (the under-utilized bandwidth the RTA's memory scheduler
//! later recovers).

use trees::BTreeFlavor;
use tta_bench::{prepare, Args, InputCache, Report};
use workloads::btree::BTreeExperiment;
use workloads::lumibench::{RtExperiment, RtWorkload};
use workloads::nbody::NBodyExperiment;
use workloads::Platform;

fn main() {
    let args = Args::parse(&[]);
    let cache = InputCache::new();
    let mut sweep = args.sweep("fig06");

    let queries = args.sized(16_384);
    let mut labels: Vec<(String, usize)> = Vec::new();
    for flavor in BTreeFlavor::ALL {
        let e = prepare(
            &cache,
            BTreeExperiment::new(flavor, args.sized(64_000), queries, Platform::BaselineGpu),
        );
        labels.push((flavor.to_string(), sweep.add(move || e.run())));
    }
    let e = prepare(
        &cache,
        NBodyExperiment::new(3, args.sized(4_000), Platform::BaselineGpu),
    );
    labels.push(("N-Body 3D".to_owned(), sweep.add(move || e.run())));
    let mut rt = RtExperiment::new(RtWorkload::BlobPt, Platform::BaselineGpu);
    rt.width = args.sized(96);
    rt.height = args.sized(64);
    let rt = prepare(&cache, rt);
    labels.push(("RT (BLOB_PT)".to_owned(), sweep.add(move || rt.run())));

    let results = sweep.run().results;

    let mut rep = Report::new(
        "fig06",
        "Fig. 6: roofline of tree traversal apps on the baseline GPU",
        "all apps at low arithmetic intensity, far below the bandwidth roof",
    );
    rep.columns(&[
        "app",
        "AI (ops/byte)",
        "perf (ops/cycle)",
        "bw roof @ AI",
        "% of roof",
    ]);

    let peak_bw = gpu_sim::GpuConfig::vulkan_sim_default().peak_dram_bandwidth();
    // Arithmetic intensity over *all* ALU lane-operations (integer index
    // arithmetic counts — the B-Tree kernels execute no FP at all).
    for (name, idx) in &labels {
        let stats = &results[*idx].stats;
        let bytes = (stats.dram.bytes_read + stats.dram.bytes_written).max(1) as f64;
        let ops = stats.mix.alu as f64;
        let ai = ops / bytes;
        let perf = ops / stats.cycles.max(1) as f64;
        let roof = ai * peak_bw;
        let frac = if roof > 0.0 { perf / roof } else { 0.0 };
        rep.row(vec![
            name.clone(),
            format!("{ai:.3}"),
            format!("{perf:.3}"),
            format!("{roof:.3}"),
            format!("{:.1}%", frac * 100.0),
        ]);
    }

    rep.finish();
}
