//! Ablation studies beyond the paper's figures — the design-choice
//! sensitivities DESIGN.md calls out plus the paper's stated future work:
//!
//! 1. **TTA+ OP-unit count** — §V-C2 leaves "strategically reducing the
//!    number of parallel operation units" to future work; this sweeps 1–4
//!    units per type and prices each point with the Table IV area model.
//! 2. **Crossbar hop latency** — the interconnect share of TTA+ overhead.
//! 3. **Child prefetching** — the simple treelet-style prefetcher (the
//!    orthogonal architectural improvement of Fig. 17) on the baseline RTA.
//! 4. **DRAM bandwidth scaling** — how much of the TTA advantage depends on
//!    the memory system.
//!
//! All six studies share one sweep (and therefore one journal and one
//! input cache — every B-Tree study reuses the same cached tree build).
//!
//! Expectation (asserted below): the prefetch row of study 3 reports the
//! prefetches it issued, and the no-prefetch row reports none.

use trees::BTreeFlavor;
use tta::op_unit::OpUnit;
use tta::ttaplus::TtaPlusConfig;
use tta_bench::{fx, prepare, Args, InputCache, Report, Sweep};
use workloads::btree::BTreeExperiment;
use workloads::lumibench::{RtExperiment, RtWorkload};
use workloads::rtree::RTreeExperiment;
use workloads::{Platform, RunResult};

fn main() {
    let args = Args::parse(&[]);
    let cache = InputCache::new();
    let mut sweep = args.sweep("ablation");

    let units = queue_unit_count(&args, &cache, &mut sweep);
    let xbar = queue_crossbar(&args, &cache, &mut sweep);
    let prefetch = queue_prefetch(&args, &cache, &mut sweep);
    let dram = queue_dram_scaling(&args, &cache, &mut sweep);
    let sorted = queue_sorted_queries(&args, &cache, &mut sweep);
    let rtree = queue_rtree_extension(&args, &cache, &mut sweep);

    let results = sweep.run().results;

    report_unit_count(&units, &results);
    report_crossbar(&xbar, &results);
    report_prefetch(&prefetch, &results);
    report_dram_scaling(&dram, &results);
    report_sorted_queries(&args, &sorted, &results);
    report_rtree_extension(&args, &rtree, &results);
}

fn ttaplus_with(f: impl FnOnce(&mut TtaPlusConfig)) -> Platform {
    let mut cfg = TtaPlusConfig::default_paper();
    f(&mut cfg);
    Platform::TtaPlus(cfg, BTreeExperiment::uop_programs())
}

fn unit_area_um2(units_per_type: usize, with_sqrt: bool) -> f64 {
    // One crossbar + `units_per_type` of each priced unit.
    let mut a = energy::area::TTAPLUS_INTERCONNECT_UM2;
    for u in OpUnit::ALL {
        if u == OpUnit::Sqrt && !with_sqrt {
            continue;
        }
        if let Some(ua) = energy::area::op_unit_area_um2(u) {
            let count = if u == OpUnit::Reciprocal { 3 } else { 1 };
            a += ua * count as f64 * units_per_type as f64;
        }
    }
    a
}

// --- Ablation 1: OP-unit count ------------------------------------------

fn queue_unit_count(args: &Args, cache: &InputCache, sweep: &mut Sweep) -> Vec<(usize, usize)> {
    let keys = args.sized(32_000);
    let queries = args.sized(16_384);
    [1usize, 2, 4]
        .into_iter()
        .map(|n| {
            let e = prepare(
                cache,
                BTreeExperiment::new(
                    BTreeFlavor::BTree,
                    keys,
                    queries,
                    ttaplus_with(|c| c.units_per_type = n),
                ),
            );
            (n, sweep.add(move || e.run()))
        })
        .collect()
}

fn report_unit_count(points: &[(usize, usize)], results: &[RunResult]) {
    let mut rep = Report::new(
        "ablation_units",
        "Ablation 1: TTA+ OP units per type (B-Tree queries)",
        "future work in §V-C2: fewer units save area, cost throughput",
    );
    rep.columns(&[
        "units/type",
        "cycles",
        "vs 4 units",
        "area um^2",
        "vs baseline RTA area",
    ]);
    let four = &results[points.iter().find(|(n, _)| *n == 4).expect("n=4 queued").1];
    for (n, idx) in points {
        let r = &results[*idx];
        let area = unit_area_um2(*n, true);
        rep.row(vec![
            n.to_string(),
            r.cycles().to_string(),
            fx(four.cycles() as f64 / r.cycles() as f64),
            format!("{area:.0}"),
            format!(
                "{:+.1}%",
                (area / energy::area::BASELINE_TOTAL_UM2 - 1.0) * 100.0
            ),
        ]);
    }
    rep.finish();
}

// --- Ablation 2: crossbar hop latency -----------------------------------

fn queue_crossbar(args: &Args, cache: &InputCache, sweep: &mut Sweep) -> Vec<(u64, usize)> {
    let keys = args.sized(32_000);
    let queries = args.sized(16_384);
    [1u64, 2, 4, 8]
        .into_iter()
        .map(|hop| {
            let e = prepare(
                cache,
                BTreeExperiment::new(
                    BTreeFlavor::BTree,
                    keys,
                    queries,
                    ttaplus_with(|c| c.crossbar_hop_latency = hop),
                ),
            );
            (hop, sweep.add(move || e.run()))
        })
        .collect()
}

fn report_crossbar(points: &[(u64, usize)], results: &[RunResult]) {
    let mut rep = Report::new(
        "ablation_crossbar",
        "Ablation 2: crossbar hop latency (B-Tree queries on TTA+)",
        "the ICNT share of the TTA+ overhead (Fig. 18 bottom)",
    );
    rep.columns(&["hop cycles", "cycles", "vs hop=4"]);
    let base = &results[points
        .iter()
        .find(|(h, _)| *h == 4)
        .expect("hop=4 queued")
        .1];
    for (hop, idx) in points {
        let r = &results[*idx];
        rep.row(vec![
            hop.to_string(),
            r.cycles().to_string(),
            fx(base.cycles() as f64 / r.cycles() as f64),
        ]);
    }
    rep.finish();
}

// --- Ablation 3: child prefetching on the baseline RTA ------------------

fn queue_prefetch(args: &Args, cache: &InputCache, sweep: &mut Sweep) -> [usize; 3] {
    let queue = |prefetch: bool, perfect: bool, sweep: &mut Sweep| {
        let mut cfg = rta::RtaConfig::baseline();
        cfg.prefetch_children = prefetch;
        let mut e = RtExperiment::new(RtWorkload::BlobPt, Platform::BaselineRta(cfg));
        e.width = args.sized(64);
        e.height = args.sized(48);
        e.perfect_node_fetch = perfect;
        let e = prepare(cache, e);
        sweep.add(move || e.run())
    };
    [
        queue(false, false, sweep),
        queue(true, false, sweep),
        queue(false, true, sweep),
    ]
}

fn report_prefetch(idx: &[usize; 3], results: &[RunResult]) {
    let mut rep = Report::new(
        "ablation_prefetch",
        "Ablation 3: child prefetching on the baseline RTA (Fig. 17's orthogonal improvement)",
        "prefetching recovers part of the Perf.RT headroom",
    );
    rep.columns(&[
        "workload",
        "no prefetch",
        "prefetch",
        "perfect node fetch",
        "prefetch gain",
    ]);
    let [plain, pf, perfect] = idx.map(|i| &results[i]);
    rep.row(vec![
        "BLOB_PT (RTA)".to_owned(),
        plain.cycles().to_string(),
        pf.cycles().to_string(),
        perfect.cycles().to_string(),
        fx(plain.cycles() as f64 / pf.cycles() as f64),
    ]);
    rep.finish();

    let prefetches = |r: &RunResult| r.accel.as_ref().map_or(0, |a| a.engine.prefetches);
    assert_eq!(
        prefetches(plain),
        0,
        "the no-prefetch row issued prefetches"
    );
    assert!(prefetches(pf) > 0, "the prefetch row reports no prefetches");
}

// --- Ablation 4: DRAM bandwidth scaling ---------------------------------

fn queue_dram_scaling(
    args: &Args,
    cache: &InputCache,
    sweep: &mut Sweep,
) -> Vec<(f64, usize, usize)> {
    let keys = args.sized(32_000);
    let queries = args.sized(16_384);
    [0.5f64, 1.0, 2.0]
        .into_iter()
        .map(|scale| {
            let mut gpu = gpu_sim::GpuConfig::vulkan_sim_default();
            gpu.mem.dram_bytes_per_cycle_per_channel *= scale;
            let mut queue = |platform: Platform| {
                let mut e = BTreeExperiment::new(BTreeFlavor::BTree, keys, queries, platform);
                e.gpu = gpu.clone();
                let e = prepare(cache, e);
                sweep.add(move || e.run())
            };
            let base = queue(Platform::BaselineGpu);
            let tta = queue(Platform::Tta(tta::backend::TtaConfig::default_paper()));
            (scale, base, tta)
        })
        .collect()
}

fn report_dram_scaling(points: &[(f64, usize, usize)], results: &[RunResult]) {
    let mut rep = Report::new(
        "ablation_dram",
        "Ablation 4: DRAM bandwidth scaling (B-Tree, baseline GPU vs TTA)",
        "the TTA advantage persists across memory systems",
    );
    rep.columns(&["bw scale", "BASE cycles", "TTA cycles", "speedup"]);
    for (scale, base, tta) in points {
        let (base, tta) = (&results[*base], &results[*tta]);
        rep.row(vec![
            format!("{scale:.1}x"),
            base.cycles().to_string(),
            tta.cycles().to_string(),
            fx(tta.speedup_over(base)),
        ]);
    }
    rep.finish();
}

// --- Ablation 5: software query sorting ---------------------------------

fn queue_sorted_queries(args: &Args, cache: &InputCache, sweep: &mut Sweep) -> [usize; 4] {
    let keys = args.sized(32_000);
    let queries = args.sized(16_384);
    let queue = |platform: Platform, sorted: bool, sweep: &mut Sweep| {
        let mut e = BTreeExperiment::new(BTreeFlavor::BTree, keys, queries, platform);
        e.sort_queries = sorted;
        let e = prepare(cache, e);
        sweep.add(move || e.run())
    };
    [
        queue(Platform::BaselineGpu, false, sweep),
        queue(Platform::BaselineGpu, true, sweep),
        queue(
            Platform::Tta(tta::backend::TtaConfig::default_paper()),
            false,
            sweep,
        ),
        queue(
            Platform::Tta(tta::backend::TtaConfig::default_paper()),
            true,
            sweep,
        ),
    ]
}

fn report_sorted_queries(args: &Args, idx: &[usize; 4], results: &[RunResult]) {
    let mut rep = Report::new(
        "ablation_sorted",
        "Ablation 5: software query sorting (Harmonia-style) vs TTA",
        "sorting narrows the baseline's divergence penalty; TTA still wins",
    );
    rep.columns(&[
        "queries",
        "BASE random",
        "BASE sorted",
        "TTA speedup (random)",
        "TTA speedup (sorted)",
    ]);
    let [base_rand, base_sort, tta_rand, tta_sort] = idx.map(|i| &results[i]);
    rep.row(vec![
        args.sized(16_384).to_string(),
        base_rand.cycles().to_string(),
        base_sort.cycles().to_string(),
        fx(tta_rand.speedup_over(base_rand)),
        fx(tta_sort.speedup_over(base_sort)),
    ]);
    rep.finish();
}

// --- Extension: R-Tree range queries ------------------------------------

fn queue_rtree_extension(
    args: &Args,
    cache: &InputCache,
    sweep: &mut Sweep,
) -> Vec<(usize, usize, usize, usize)> {
    let queries = args.sized(8_192);
    [args.sized(16_000), args.sized(64_000)]
        .into_iter()
        .map(|rects| {
            let mut queue = |platform: Platform| {
                let e = prepare(cache, RTreeExperiment::new(rects, queries, platform));
                sweep.add(move || e.run())
            };
            let base = queue(Platform::BaselineGpu);
            let tta = queue(Platform::Tta(tta::backend::TtaConfig::default_paper()));
            let plus = queue(Platform::TtaPlus(
                TtaPlusConfig::default_paper(),
                RTreeExperiment::uop_programs(),
            ));
            (rects, base, tta, plus)
        })
        .collect()
}

fn report_rtree_extension(
    args: &Args,
    points: &[(usize, usize, usize, usize)],
    results: &[RunResult],
) {
    let mut rep = Report::new(
        "ablation_rtree",
        "Extension: R-Tree range queries (the workload §I motivates)",
        "MBR overlap tests map onto the same min/max network as Query-Key",
    );
    rep.columns(&["rects", "queries", "BASE cycles", "TTA", "TTA+"]);
    for (rects, base, tta, plus) in points {
        let base = &results[*base];
        rep.row(vec![
            rects.to_string(),
            args.sized(8_192).to_string(),
            base.cycles().to_string(),
            fx(results[*tta].speedup_over(base)),
            fx(results[*plus].speedup_over(base)),
        ]);
    }
    rep.finish();
}
