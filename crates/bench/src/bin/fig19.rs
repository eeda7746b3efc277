//! Fig. 19 — End-to-end energy of TTA and TTA+ normalized to the baseline,
//! broken down into compute-core, warp-buffer and intersection energy.
//!
//! Paper shape to match: 15–62% energy reduction for the B-Tree family,
//! driven by the reduced execution time and the 91% dynamic-instruction
//! reduction; warp-buffer and intersection energy stay small; for the
//! shader-based apps the \*-optimisations recover 19–29% savings.

use energy::energy_of;
use trees::BTreeFlavor;
use tta_bench::{
    activity_of, pct, platform_rta, platform_tta, platform_ttaplus, prepare, Args, InputCache,
    Report,
};
use workloads::btree::BTreeExperiment;
use workloads::nbody::NBodyExperiment;
use workloads::rtnn::{LeafPath, RtnnExperiment};
use workloads::{Platform, RunResult};

/// One app row: (name, baseline run index, [(platform label, run index)]).
type Apps = Vec<(String, usize, Vec<(&'static str, usize)>)>;

fn main() {
    let args = Args::parse(&[]);
    let cache = InputCache::new();
    let mut sweep = args.sweep("fig19");

    let queries = args.sized(16_384);
    let keys = args.sized(64_000);

    let mut apps: Apps = Vec::new();

    for flavor in BTreeFlavor::ALL {
        let mut add = |platform: Platform| {
            let e = prepare(
                &cache,
                BTreeExperiment::new(flavor, keys, queries, platform),
            );
            sweep.add(move || e.run())
        };
        let base = add(Platform::BaselineGpu);
        let tta = add(platform_tta());
        let plus = add(platform_ttaplus(BTreeExperiment::uop_programs()));
        apps.push((flavor.to_string(), base, vec![("TTA", tta), ("TTA+", plus)]));
    }

    let bodies = args.sized(4_000);
    let mut add = |platform: Platform| {
        let e = prepare(&cache, NBodyExperiment::new(3, bodies, platform));
        sweep.add(move || e.run())
    };
    let base = add(Platform::BaselineGpu);
    let tta = add(platform_tta());
    let plus = add(platform_ttaplus(NBodyExperiment::uop_programs()));
    apps.push((
        "N-Body 3D".to_owned(),
        base,
        vec![("TTA", tta), ("TTA+", plus)],
    ));

    // RTNN: baseline is the shader-based RTA implementation.
    let points = args.sized(64_000);
    let rq = args.sized(2_048);
    let mut add = |platform: Platform, leaf: LeafPath| {
        let e = prepare(&cache, RtnnExperiment::new(points, rq, platform, leaf));
        sweep.add(move || e.run())
    };
    let base = add(platform_rta(), LeafPath::Shader);
    let star_tta = add(platform_tta(), LeafPath::Offloaded);
    let star_plus = add(
        platform_ttaplus(RtnnExperiment::uop_programs()),
        LeafPath::Offloaded,
    );
    apps.push((
        "RTNN (vs RTA)".to_owned(),
        base,
        vec![("*TTA", star_tta), ("*TTA+", star_plus)],
    ));

    let results = sweep.run().results;

    let mut rep = Report::new(
        "fig19",
        "Fig. 19: energy vs baseline (core / warp buffer / intersection, uJ)",
        "B-Trees save 15-62%; breakdown dominated by compute core",
    );
    rep.columns(&[
        "app", "platform", "core uJ", "wbuf uJ", "isect uJ", "vs base",
    ]);

    let mut add = |name: &str, base: &RunResult, accel_runs: Vec<(&str, &RunResult)>| {
        let e_base = energy_of(&activity_of(base));
        rep.row(vec![
            name.to_owned(),
            "BASE".to_owned(),
            format!("{:.1}", e_base.compute_core_uj),
            format!("{:.1}", e_base.warp_buffer_uj),
            format!("{:.1}", e_base.intersection_uj),
            "-".to_owned(),
        ]);
        for (plat, r) in accel_runs {
            let e = energy_of(&activity_of(r));
            rep.row(vec![
                name.to_owned(),
                plat.to_owned(),
                format!("{:.1}", e.compute_core_uj),
                format!("{:.1}", e.warp_buffer_uj),
                format!("{:.1}", e.intersection_uj),
                format!("-{}", pct(e.reduction_vs(&e_base))),
            ]);
        }
    };
    for (name, base, others) in &apps {
        let others: Vec<(&str, &RunResult)> =
            others.iter().map(|(p, i)| (*p, &results[*i])).collect();
        add(name, &results[*base], others);
    }

    rep.finish();
}
