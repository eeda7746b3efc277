//! Fig. 17 — Limit study of TTA+ with architectural improvements on
//! WKND_PT and \*WKND_PT: perfect (zero-latency) node fetches ("Perf. RT",
//! what a treelet prefetcher approaches) and perfect memory ("Perf. Mem").
//!
//! Paper shape to match: both limits compound with the \*WKND_PT
//! optimisation — the gains are orthogonal.

use tta_bench::{fx, platform_ttaplus, prepare, Args, InputCache, Report};
use workloads::lumibench::{RtExperiment, RtWorkload};

fn main() {
    let args = Args::parse(&[]);
    let cache = InputCache::new();
    let mut sweep = args.sweep("fig17");

    let configs = [
        ("WKND_PT", false, false, false),
        ("WKND_PT Perf.RT", false, true, false),
        ("WKND_PT Perf.Mem", false, false, true),
        ("*WKND_PT", true, false, false),
        ("*WKND_PT Perf.RT", true, true, false),
        ("*WKND_PT Perf.Mem", true, false, true),
    ];
    let indices: Vec<usize> = configs
        .iter()
        .map(|&(_, offload, perfect_rt, perfect_mem)| {
            let mut e = RtExperiment::new(
                RtWorkload::WkndPt,
                platform_ttaplus(RtExperiment::uop_programs()),
            );
            e.width = args.sized(64);
            e.height = args.sized(48);
            e.offload_sphere = offload;
            e.gpu.perfect_memory = perfect_mem;
            e.perfect_node_fetch = perfect_rt;
            let e = prepare(&cache, e);
            sweep.add(move || e.run())
        })
        .collect();

    let results = sweep.run().results;

    let mut rep = Report::new(
        "fig17",
        "Fig. 17: limit study on WKND_PT (relative to naive TTA+ WKND_PT)",
        "Perf.RT and Perf.Mem compound with the *WKND_PT optimisation",
    );
    rep.columns(&["config", "cycles", "vs TTA+ baseline"]);

    // The first config *is* the naive TTA+ baseline.
    let base = &results[indices[0]];
    for ((name, ..), idx) in configs.iter().zip(&indices) {
        let r = &results[*idx];
        rep.row(vec![
            (*name).to_owned(),
            r.cycles().to_string(),
            fx(r.speedup_over(base)),
        ]);
    }
    rep.finish();
}
