//! Fig. 12 — Performance of selected applications on TTA and TTA+ relative
//! to the baseline GPU (CUDA applications top, RTA applications bottom).
//!
//! Paper shape to match: B-Tree variants up to 5.4× (geomean ≈2.4× across
//! variants/sizes, larger trees → smaller speedups once keys outnumber
//! queries); B+Tree lowest of the three; N-Body 1.1–1.7× with the merged
//! kernel reaching ≈1.9×; RTNN ≈1.0 on TTA+ naive, up to 1.4× for \*RTNN.

use trees::BTreeFlavor;
use tta_bench::{
    fx, platform_rta, platform_tta, platform_ttaplus, prepare, Args, InputCache, Report, Sweep,
};
use workloads::btree::BTreeExperiment;
use workloads::nbody::{NBodyExperiment, PostProcess};
use workloads::rtnn::{LeafPath, RtnnExperiment};
use workloads::{Platform, RunResult};

struct BTreePoint {
    flavor: BTreeFlavor,
    keys: usize,
    base: usize,
    tta: usize,
    plus: usize,
}

struct NBodyPoint {
    dims: usize,
    base: usize,
    tta: usize,
    plus: usize,
    split: usize,
    merged: usize,
}

struct RtnnPoint {
    points: usize,
    base: usize,
    naive: usize,
    star_tta: usize,
    star_plus: usize,
}

fn main() {
    let args = Args::parse(&[]);
    let cache = InputCache::new();
    let mut sweep = args.sweep("fig12");
    let btree = queue_btree(&args, &cache, &mut sweep);
    let nbody = queue_nbody(&args, &cache, &mut sweep);
    let rtnn = queue_rtnn(&args, &cache, &mut sweep);
    let results = sweep.run().results;
    btree_section(&args, &btree, &results);
    nbody_section(&args, &nbody, &results);
    rtnn_section(&args, &rtnn, &results);
}

fn queue_btree(args: &Args, cache: &InputCache, sweep: &mut Sweep) -> Vec<BTreePoint> {
    let queries = args.sized(16_384);
    let mut points = Vec::new();
    for flavor in BTreeFlavor::ALL {
        for keys in [args.sized(1_000), args.sized(16_000), args.sized(96_000)] {
            let mut add = |platform: Platform| {
                let e = prepare(cache, BTreeExperiment::new(flavor, keys, queries, platform));
                sweep.add(move || e.run())
            };
            points.push(BTreePoint {
                flavor,
                keys,
                base: add(Platform::BaselineGpu),
                tta: add(platform_tta()),
                plus: add(platform_ttaplus(BTreeExperiment::uop_programs())),
            });
        }
    }
    points
}

fn btree_section(args: &Args, points: &[BTreePoint], results: &[RunResult]) {
    let mut rep = Report::new(
        "fig12_btree",
        "Fig. 12 (top): B-Tree variants, speedup over baseline GPU",
        "up to 5.4x; geomean ~2.4x; B+Tree lowest; shrinks as keys grow",
    );
    rep.columns(&["variant", "keys", "queries", "BASE cycles", "TTA", "TTA+"]);
    let queries = args.sized(16_384);
    let mut speedups = Vec::new();
    for p in points {
        let base = &results[p.base];
        let s_tta = results[p.tta].speedup_over(base);
        let s_plus = results[p.plus].speedup_over(base);
        speedups.push(s_tta);
        speedups.push(s_plus);
        rep.row(vec![
            p.flavor.to_string(),
            p.keys.to_string(),
            queries.to_string(),
            base.cycles().to_string(),
            fx(s_tta),
            fx(s_plus),
        ]);
    }
    rep.finish();
    let geomean = (speedups.iter().map(|s| s.ln()).sum::<f64>() / speedups.len() as f64).exp();
    println!("B-Tree family geomean speedup: {}\n", fx(geomean));
}

fn queue_nbody(args: &Args, cache: &InputCache, sweep: &mut Sweep) -> Vec<NBodyPoint> {
    let bodies = args.sized(4_000);
    let mut points = Vec::new();
    for dims in [2usize, 3] {
        let mut add = |platform: Platform, post: Option<PostProcess>| {
            let mut e = NBodyExperiment::new(dims, bodies, platform);
            if let Some(post) = post {
                e.post = post;
            }
            let e = prepare(cache, e);
            sweep.add(move || e.run())
        };
        // Merged vs split comparison includes the integration kernel on
        // both sides (the §V-A study).
        points.push(NBodyPoint {
            dims,
            base: add(Platform::BaselineGpu, None),
            tta: add(platform_tta(), None),
            plus: add(platform_ttaplus(NBodyExperiment::uop_programs()), None),
            split: add(
                platform_ttaplus(NBodyExperiment::uop_programs()),
                Some(PostProcess::Split),
            ),
            merged: add(
                platform_ttaplus(NBodyExperiment::uop_programs()),
                Some(PostProcess::Merged),
            ),
        });
    }
    points
}

fn nbody_section(args: &Args, points: &[NBodyPoint], results: &[RunResult]) {
    let mut rep = Report::new(
        "fig12_nbody",
        "Fig. 12 (top): N-Body 2D/3D, speedup over baseline GPU force kernel",
        "1.1-1.7x; TTA+ merged kernel reaches ~1.9x",
    );
    rep.columns(&[
        "dims",
        "bodies",
        "BASE cycles",
        "TTA",
        "TTA+",
        "TTA+ merged",
    ]);
    let bodies = args.sized(4_000);
    for p in points {
        let base = &results[p.base];
        let plus = &results[p.plus];
        let merged_gain = results[p.split].cycles() as f64 / results[p.merged].cycles() as f64;
        rep.row(vec![
            format!("{}D", p.dims),
            bodies.to_string(),
            base.cycles().to_string(),
            fx(results[p.tta].speedup_over(base)),
            fx(plus.speedup_over(base)),
            format!(
                "{} (merge gain {})",
                fx(plus.speedup_over(base) * merged_gain),
                fx(merged_gain)
            ),
        ]);
    }
    rep.finish();
}

fn queue_rtnn(args: &Args, cache: &InputCache, sweep: &mut Sweep) -> Vec<RtnnPoint> {
    let queries = args.sized(2_048);
    let mut out = Vec::new();
    for points in [args.sized(32_000), args.sized(64_000), args.sized(96_000)] {
        let mut add = |platform: Platform, leaf: LeafPath| {
            let e = prepare(cache, RtnnExperiment::new(points, queries, platform, leaf));
            sweep.add(move || e.run())
        };
        out.push(RtnnPoint {
            points,
            base: add(platform_rta(), LeafPath::Shader),
            naive: add(
                platform_ttaplus(RtnnExperiment::uop_programs()),
                LeafPath::Shader,
            ),
            star_tta: add(platform_tta(), LeafPath::Offloaded),
            star_plus: add(
                platform_ttaplus(RtnnExperiment::uop_programs()),
                LeafPath::Offloaded,
            ),
        });
    }
    out
}

fn rtnn_section(args: &Args, points: &[RtnnPoint], results: &[RunResult]) {
    let mut rep = Report::new(
        "fig12_rtnn",
        "Fig. 12 (bottom): RTNN radius search relative to baseline RTA",
        "TTA+ naive ~1.0 or below; *RTNN up to 1.4x",
    );
    rep.columns(&[
        "points",
        "queries",
        "RTA cycles",
        "TTA+ naive",
        "*RTNN TTA",
        "*RTNN TTA+",
    ]);
    let queries = args.sized(2_048);
    for p in points {
        let base = &results[p.base];
        rep.row(vec![
            p.points.to_string(),
            queries.to_string(),
            base.cycles().to_string(),
            fx(results[p.naive].speedup_over(base)),
            fx(results[p.star_tta].speedup_over(base)),
            fx(results[p.star_plus].speedup_over(base)),
        ]);
    }
    rep.finish();
}
