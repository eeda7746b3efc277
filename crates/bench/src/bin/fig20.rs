//! Fig. 20 — Breakdown of total dynamically executed instructions for the
//! baseline, TTA and TTA+.
//!
//! Paper shape to match: a single TTA instruction replaces the dynamic
//! instructions of an entire traversal loop, eliminating ~91% of dynamic
//! instructions on average; TTA instructions themselves are only ~2% of
//! the total.

use trees::BTreeFlavor;
use tta_bench::{pct, platform_tta, platform_ttaplus, prepare, Args, InputCache, Report};
use workloads::btree::BTreeExperiment;
use workloads::nbody::NBodyExperiment;
use workloads::{Platform, RunResult};

/// One app row: (name, baseline run index, [(platform label, run index)]).
type Apps = Vec<(String, usize, Vec<(&'static str, usize)>)>;

fn main() {
    let args = Args::parse(&[]);
    let cache = InputCache::new();
    let mut sweep = args.sweep("fig20");

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

    let results = sweep.run().results;

    let mut rep = Report::new(
        "fig20",
        "Fig. 20: dynamic instruction breakdown (lane-level)",
        "~91% fewer dynamic instructions with TTA; traverse instrs ~2% of total",
    );
    rep.columns(&[
        "app", "platform", "alu", "control", "memory", "traverse", "shader", "vs base",
    ]);

    let mut reductions = Vec::new();
    let mut add = |name: &str, base: &RunResult, others: Vec<(&str, &RunResult)>| {
        let total_base = base.core_instructions() + base.stats.mix.traverse;
        let mut emit = |plat: &str, r: &RunResult| {
            let shader = r.accel.as_ref().map_or(0, |a| a.shader_lane_instructions);
            let total = r.core_instructions() + r.stats.mix.traverse;
            let red = 1.0 - total as f64 / total_base as f64;
            rep.row(vec![
                name.to_owned(),
                plat.to_owned(),
                r.stats.mix.alu.to_string(),
                r.stats.mix.control.to_string(),
                r.stats.mix.memory.to_string(),
                r.stats.mix.traverse.to_string(),
                shader.to_string(),
                if plat == "BASE" {
                    "-".to_owned()
                } else {
                    format!("-{}", pct(red))
                },
            ]);
            red
        };
        emit("BASE", base);
        for (plat, r) in &others {
            reductions.push(emit(plat, r));
        }
    };
    for (name, base, others) in &apps {
        let others: Vec<(&str, &RunResult)> =
            others.iter().map(|(p, i)| (*p, &results[*i])).collect();
        add(name, &results[*base], others);
    }

    rep.finish();
    let avg = reductions.iter().sum::<f64>() / reductions.len() as f64;
    println!("average dynamic-instruction reduction: {}", pct(avg));
}
