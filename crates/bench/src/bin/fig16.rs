//! Fig. 16 — LumiBench-like ray tracing on TTA+ relative to the baseline
//! RTA, including the \*SHIP_SH (SATO) and \*WKND_PT (Ray-Sphere offload)
//! optimisations only TTA+ enables.
//!
//! Paper shape to match: unmodified workloads slow down moderately (paper:
//! ~8% average) because traversal stays memory-bound despite the ~10×
//! intersection latency; \*SHIP_SH recovers its loss via SATO; \*WKND_PT
//! turns its slowdown into a ~1.2× speedup by replacing the intersection
//! shader.

use tta_bench::{fx, platform_rta, platform_ttaplus, prepare, Args, InputCache, Report};
use workloads::lumibench::{RtExperiment, RtWorkload};
use workloads::Platform;

fn main() {
    let args = Args::parse(&[]);
    let cache = InputCache::new();
    let mut sweep = args.sweep("fig16");

    // (workload, base idx, TTA+ idx, starred idx). Every point of one scene
    // shares a single cached BVH build.
    let mut queue = |w: RtWorkload, platform: Platform, f: fn(&mut RtExperiment)| {
        let mut e = RtExperiment::new(w, platform);
        e.width = args.sized(64);
        e.height = args.sized(48);
        f(&mut e);
        let e = prepare(&cache, e);
        sweep.add(move || e.run())
    };
    let mut points: Vec<(RtWorkload, usize, usize, Option<usize>)> = Vec::new();
    for w in RtWorkload::ALL {
        let base = queue(w, platform_rta(), |_| {});
        let plus = queue(w, platform_ttaplus(RtExperiment::uop_programs()), |_| {});
        // Starred variants: SATO for SHIP_SH, Ray-Sphere offload for WKND_PT.
        let starred = match w {
            RtWorkload::ShipSh => Some(queue(
                w,
                platform_ttaplus(RtExperiment::uop_programs()),
                |e| e.sato = true,
            )),
            RtWorkload::WkndPt => Some(queue(
                w,
                platform_ttaplus(RtExperiment::uop_programs()),
                |e| e.offload_sphere = true,
            )),
            _ => None,
        };
        points.push((w, base, plus, starred));
    }

    let results = sweep.run().results;

    let mut rep = Report::new(
        "fig16",
        "Fig. 16: LumiBench-like suite on TTA+ relative to baseline RTA",
        "~8% avg slowdown; *SHIP_SH recovers via SATO; *WKND_PT +22%",
    );
    rep.columns(&["workload", "RTA cycles", "TTA+ rel", "starred rel"]);

    let mut rels = Vec::new();
    for (w, base, plus, starred) in &points {
        let base = &results[*base];
        let rel = results[*plus].speedup_over(base);
        rels.push(rel);
        rep.row(vec![
            w.to_string(),
            base.cycles().to_string(),
            fx(rel),
            starred.map_or("-".to_owned(), |s| fx(results[s].speedup_over(base))),
        ]);
    }
    rep.finish();
    let geo = (rels.iter().map(|s| s.ln()).sum::<f64>() / rels.len() as f64).exp();
    println!("unmodified TTA+ geomean relative performance: {}", fx(geo));
}
