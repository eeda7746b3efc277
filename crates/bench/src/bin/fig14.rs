//! Fig. 14 — TTA configuration sensitivity on B-Trees: warp-buffer size
//! and intersection-test latency.
//!
//! Paper shape to match: performance grows with the warp buffer until it
//! saturates around 8 warps (then memory interference flattens it);
//! intersection latency barely matters — the isolated 3-cycle min/max and
//! the full 13-cycle unit are indistinguishable, and even 10× (130 cycles)
//! retains a ≥2× speedup over the baseline GPU.

use trees::BTreeFlavor;
use tta::backend::TtaConfig;
use tta_bench::{fx, prepare, Args, InputCache, Report};
use workloads::btree::BTreeExperiment;
use workloads::Platform;

const WARPS: [usize; 6] = [1, 2, 4, 8, 16, 32];
const LATENCIES: [u64; 3] = [3, 13, 130];

fn main() {
    let args = Args::parse(&[]);
    let keys = args.sized(32_000);
    let queries = args.sized(16_384);

    let cache = InputCache::new();
    let mut sweep = args.sweep("fig14");

    // Every flavor shares one cached tree across its eleven config points.
    let mut queue = |flavor, platform: Platform| {
        let e = prepare(
            &cache,
            BTreeExperiment::new(flavor, keys, queries, platform),
        );
        sweep.add(move || e.run())
    };
    let tta_platform = |warps: usize, latency: u64| {
        let mut cfg = TtaConfig::default_paper();
        cfg.rta.warp_buffer_warps = warps;
        cfg.query_key_latency = latency;
        Platform::Tta(cfg)
    };

    // (flavor, base idx, warp-sweep indices, latency-sweep indices)
    let mut rows: Vec<(BTreeFlavor, usize, Vec<usize>, Vec<usize>)> = Vec::new();
    for flavor in BTreeFlavor::ALL {
        let base = queue(flavor, Platform::BaselineGpu);
        let warp_idx = WARPS.map(|w| queue(flavor, tta_platform(w, 13))).to_vec();
        let lat_idx = LATENCIES
            .map(|l| queue(flavor, tta_platform(4, l)))
            .to_vec();
        rows.push((flavor, base, warp_idx, lat_idx));
    }

    let results = sweep.run().results;

    let mut rep = Report::new(
        "fig14_warps",
        "Fig. 14 (left): warp-buffer size sweep (speedup over baseline GPU)",
        "improves up to ~8 warps, then saturates",
    );
    rep.columns(&["variant", "1", "2", "4", "8", "16", "32"]);
    for (flavor, base, warp_idx, _) in &rows {
        let base = &results[*base];
        let mut row = vec![flavor.to_string()];
        for idx in warp_idx {
            row.push(fx(results[*idx].speedup_over(base)));
        }
        rep.row(row);
    }
    rep.finish();

    let mut rep = Report::new(
        "fig14_latency",
        "Fig. 14 (right): intersection-latency sweep at 4 warps",
        "3cy (isolated minmax) ~ 13cy (full unit); even 130cy (10x) keeps >2x",
    );
    rep.columns(&["variant", "3cy", "13cy", "130cy"]);
    for (flavor, base, _, lat_idx) in &rows {
        let base = &results[*base];
        let mut row = vec![flavor.to_string()];
        for idx in lat_idx {
            row.push(fx(results[*idx].speedup_over(base)));
        }
        rep.row(row);
    }
    rep.finish();
}
