//! Fig. 18 — TTA+ OP-unit utilization (top) and average intersection
//! latency including interconnect time (bottom).
//!
//! Paper shape to match: utilization patterns are workload-dependent with
//! no single dominating bottleneck; Ray-Box latency on TTA+ grows to
//! roughly 10× its fixed-function 13 cycles, with the interconnect a large
//! share of the increase.

use trees::BTreeFlavor;
use tta_bench::{platform_ttaplus, prepare, Args, InputCache, Report};
use workloads::btree::BTreeExperiment;
use workloads::lumibench::{RtExperiment, RtWorkload};
use workloads::nbody::NBodyExperiment;
use workloads::rtnn::{LeafPath, RtnnExperiment};

fn main() {
    let args = Args::parse(&[]);
    let cache = InputCache::new();
    let mut sweep = args.sweep("fig18");

    let queries = args.sized(16_384);
    let names = ["B-Tree", "N-Body 3D", "*RTNN", "*WKND_PT"];
    let e = prepare(
        &cache,
        BTreeExperiment::new(
            BTreeFlavor::BTree,
            args.sized(64_000),
            queries,
            platform_ttaplus(BTreeExperiment::uop_programs()),
        ),
    );
    sweep.add(move || e.run());
    let e = prepare(
        &cache,
        NBodyExperiment::new(
            3,
            args.sized(4_000),
            platform_ttaplus(NBodyExperiment::uop_programs()),
        ),
    );
    sweep.add(move || e.run());
    let e = prepare(
        &cache,
        RtnnExperiment::new(
            args.sized(64_000),
            args.sized(2_048),
            platform_ttaplus(RtnnExperiment::uop_programs()),
            LeafPath::Offloaded,
        ),
    );
    sweep.add(move || e.run());
    let mut e = RtExperiment::new(
        RtWorkload::WkndPt,
        platform_ttaplus(RtExperiment::uop_programs()),
    );
    e.width = args.sized(64);
    e.height = args.sized(48);
    e.offload_sphere = true;
    let e = prepare(&cache, e);
    sweep.add(move || e.run());

    let results = sweep.run().results;
    let runs: Vec<_> = names.iter().zip(&results).collect();

    let mut rep = Report::new(
        "fig18_util",
        "Fig. 18 (top): TTA+ OP-unit utilization",
        "workload-dependent mixes; no single unit saturates",
    );
    rep.columns(&["app", "unit", "ops", "avg occupancy", "peak"]);
    for (name, r) in &runs {
        let Some(accel) = &r.accel else { continue };
        for (unit, s) in &accel.units {
            if s.invocations == 0 {
                continue;
            }
            rep.row(vec![
                (*name).to_string(),
                unit.clone(),
                s.invocations.to_string(),
                format!("{:.3}", s.avg_occupancy(r.stats.cycles)),
                s.peak_in_flight.to_string(),
            ]);
        }
    }
    rep.finish();

    let mut rep = Report::new(
        "fig18_latency",
        "Fig. 18 (bottom): average intersection latency on TTA+ (incl. ICNT)",
        "Ray-Box ~10x its 13-cycle fixed-function latency; ICNT a large share",
    );
    rep.columns(&["app", "program", "invocations", "avg latency", "icnt share"]);
    for (name, r) in &runs {
        let Some(accel) = &r.accel else { continue };
        for (prog, s) in &accel.programs {
            if s.invocations == 0 {
                continue;
            }
            let icnt_share = s.icnt_cycles as f64 / s.total_latency.max(1) as f64;
            rep.row(vec![
                (*name).to_string(),
                prog.clone(),
                s.invocations.to_string(),
                format!("{:.1}", s.avg_latency()),
                format!("{:.0}%", icnt_share * 100.0),
            ]);
        }
    }
    rep.finish();
}
