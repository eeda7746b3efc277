//! Fig. 15 — TTA intersection-unit utilization: average occupancy and peak
//! concurrent operations per unit.
//!
//! Paper shape to match: node processing is bursty — peak in-flight counts
//! are much higher than average occupancy, yet still far below the pipeline
//! depth; RTNN repurposes the previously-idle Ray-Triangle units for
//! distance calculations. (\*WKND_PT is unsupported on TTA.)

use trees::BTreeFlavor;
use tta_bench::{platform_tta, prepare, Args, InputCache, Report};
use workloads::btree::BTreeExperiment;
use workloads::nbody::NBodyExperiment;
use workloads::rtnn::{LeafPath, RtnnExperiment};
use workloads::RunResult;

fn main() {
    let args = Args::parse(&[]);
    let cache = InputCache::new();
    let mut sweep = args.sweep("fig15");

    let queries = args.sized(16_384);
    let e = prepare(
        &cache,
        BTreeExperiment::new(
            BTreeFlavor::BTree,
            args.sized(64_000),
            queries,
            platform_tta(),
        ),
    );
    let btree = sweep.add(move || e.run());
    let e = prepare(
        &cache,
        NBodyExperiment::new(3, args.sized(4_000), platform_tta()),
    );
    let nbody = sweep.add(move || e.run());
    let e = prepare(
        &cache,
        RtnnExperiment::new(
            args.sized(64_000),
            args.sized(2_048),
            platform_tta(),
            LeafPath::Offloaded,
        ),
    );
    let rtnn = sweep.add(move || e.run());

    let results = sweep.run().results;

    let mut rep = Report::new(
        "fig15",
        "Fig. 15: TTA intersection-unit utilization (avg occupancy / peak in flight)",
        "bursty: low average, much higher peak; RTNN activates the idle Ray-Tri units",
    );
    rep.columns(&["app", "unit", "ops", "avg occupancy", "peak in flight"]);

    let mut add = |name: &str, r: &RunResult| {
        let Some(accel) = &r.accel else { return };
        for (unit, s) in &accel.units {
            if s.invocations == 0 {
                continue;
            }
            rep.row(vec![
                name.to_owned(),
                unit.clone(),
                s.invocations.to_string(),
                format!("{:.3}", s.avg_occupancy(r.stats.cycles)),
                s.peak_in_flight.to_string(),
            ]);
        }
    };
    add("B-Tree", &results[btree]);
    add("N-Body 3D", &results[nbody]);
    add("*RTNN", &results[rtnn]);

    rep.finish();
    println!("note: *WKND_PT is absent — its Ray-Sphere test needs SQRT, unsupported on TTA.");
}
