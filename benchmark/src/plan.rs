//! The four workloads: which experiment runs each one drives, and at
//! which problem sizes.
//!
//! Every run is one of the repository's own experiment configurations
//! (the fig13, fig16, R-Tree ablation and fleet rows) with its default
//! seed XORed with the benchmark's `--seed`, so seed 0 is the committed
//! configuration.

use fleet::{FleetExperiment, RouterPolicy, ShardSpec, SloConfig};
use serve::{BatchPolicy, ServeBackend, ServeWorkload};
use trees::BTreeFlavor;
use workloads::btree::BTreeExperiment;
use workloads::lumibench::{RtExperiment, RtWorkload};
use workloads::nbody::NBodyExperiment;
use workloads::rtnn::{LeafPath, RtnnExperiment};
use workloads::rtree::RTreeExperiment;
use workloads::Platform;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Barnes-Hut 3D on BASE, TTA and TTA+ (the fig13 N-Body rows).
    Nbody3d,
    /// LumiBench SHIP_SH on RTA and TTA+ (the fig16 rows).
    Raytrace,
    /// B-Tree flavours, RTNN and R-Tree, each run ending in a snapshot
    /// round trip.
    Index,
    /// Four warm TTA devices serving a Poisson B-Tree lookup stream.
    Fleet,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::Nbody3d,
        Workload::Raytrace,
        Workload::Index,
        Workload::Fleet,
    ];

    /// The name the CLI and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Nbody3d => "nbody3d",
            Workload::Raytrace => "raytrace",
            Workload::Index => "index",
            Workload::Fleet => "fleet",
        }
    }

    /// Looks a workload up by [`Workload::name`].
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Problem sizes of one measured repetition.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// `nbody3d` and `raytrace`: independently seeded scenes per
    /// repetition. The host cost of one N-Body system or SHIP_SH frame
    /// swings by 10–20% with its seed (cluster and sail placement), so a
    /// repetition sums several to keep runs with different seeds
    /// comparable.
    pub scenes: usize,
    /// `nbody3d`: bodies per scene.
    pub bodies: usize,
    /// `raytrace`: image width per scene; primary rays are
    /// `width × height`.
    pub ship_width: usize,
    /// `raytrace`: image height.
    pub ship_height: usize,
    /// `index`: keys per B-Tree flavour.
    pub btree_keys: usize,
    /// `index`: lookups per B-Tree run.
    pub btree_queries: usize,
    /// `index`: RTNN point-cloud size.
    pub rtnn_points: usize,
    /// `index`: RTNN radius searches per run.
    pub rtnn_queries: usize,
    /// `index`: R-Tree rectangles.
    pub rtree_rects: usize,
    /// `index`: R-Tree range queries per run.
    pub rtree_queries: usize,
    /// `fleet`: keys in the served B-Tree.
    pub fleet_keys: usize,
    /// `fleet`: distinct query keys the stream cycles through.
    pub fleet_universe: usize,
    /// `fleet`: queries in the Poisson stream.
    pub fleet_queries: usize,
}

impl Sizes {
    /// The sizes the benchmark measures: the fig13 B-Tree and RTNN trees
    /// with half their queries, and N-Body, SHIP_SH, R-Tree and the fleet
    /// stream cut so that one repetition of each workload takes about 2 s
    /// on a 2.1 GHz Xeon. Short repetitions give each run ten or so
    /// repetitions to take the median over.
    pub const BENCH: Sizes = Sizes {
        scenes: 4,
        bodies: 800,
        ship_width: 16,
        ship_height: 12,
        btree_keys: 64_000,
        btree_queries: 8_192,
        rtnn_points: 64_000,
        rtnn_queries: 1_024,
        rtree_rects: 16_000,
        rtree_queries: 1_024,
        fleet_keys: 64_000,
        fleet_universe: 4_096,
        fleet_queries: 260_000,
    };

    /// The committed fig13 sizes (one N-Body 3D scene of 4000 bodies,
    /// 16384 B-Tree and 2048 RTNN queries); the benchmark's tests use them
    /// to compare journal rows with `results/fig13.journal.json`.
    pub const FIG13: Sizes = Sizes {
        scenes: 1,
        bodies: 4_000,
        btree_queries: 16_384,
        rtnn_queries: 2_048,
        ..Sizes::BENCH
    };

    /// Tiny sizes for the transparency and trace tests.
    pub const SMALL: Sizes = Sizes {
        scenes: 2,
        bodies: 300,
        ship_width: 8,
        ship_height: 6,
        btree_keys: 2_000,
        btree_queries: 256,
        rtnn_points: 2_000,
        rtnn_queries: 128,
        rtree_rects: 1_000,
        rtree_queries: 128,
        fleet_keys: 2_000,
        fleet_universe: 256,
        fleet_queries: 2_000,
    };
}

/// One experiment a workload runs.
#[derive(Debug, Clone)]
pub enum Exp {
    /// A B-Tree / B*Tree / B+Tree lookup batch.
    BTree(BTreeExperiment),
    /// An RTNN radius-search batch.
    Rtnn(RtnnExperiment),
    /// An R-Tree range-query batch.
    RTree(RTreeExperiment),
    /// A Barnes-Hut force pass.
    NBody(NBodyExperiment),
    /// A ray-traced frame.
    Rt(RtExperiment),
    /// A fleet serving run.
    Fleet(FleetExperiment),
}

/// One run of a workload: an experiment plus how the benchmark drives it.
#[derive(Debug, Clone)]
pub struct Run {
    /// The experiment.
    pub exp: Exp,
    /// Span name of this run's launches: `gpu_sim.launch.<platform>` for
    /// session steps, `serve.run_batch` for fleet batches.
    pub launch_span: &'static str,
    /// End the run with an export → encode → decode → import round trip
    /// into a fresh session, and finish the restored session.
    pub snapshot: bool,
    /// Queries this run completes: keys, points or rects queried, bodies,
    /// primary rays, or stream queries.
    pub queries: u64,
}

/// The span name of a launch on `platform`.
fn launch_span(platform: &Platform) -> &'static str {
    match platform {
        Platform::BaselineGpu => "gpu_sim.launch.base",
        Platform::BaselineRta(_) => "gpu_sim.launch.rta",
        Platform::Tta(_) => "gpu_sim.launch.tta",
        Platform::TtaPlus(..) | Platform::TtaPlusWith(..) => "gpu_sim.launch.ttaplus",
    }
}

fn tta() -> Platform {
    Platform::Tta(tta::backend::TtaConfig::default_paper())
}

fn ttaplus(programs: Vec<tta::programs::UopProgram>) -> Platform {
    Platform::TtaPlus(tta::ttaplus::TtaPlusConfig::default_paper(), programs)
}

fn rta() -> Platform {
    Platform::BaselineRta(rta::RtaConfig::baseline())
}

/// The seeds XORed into the default seed of each of `scenes` scenes:
/// seed 0 starts with the committed configuration, and distinct seeds get
/// disjoint scene sets.
fn scene_seeds(seed: u64, scenes: usize) -> impl Iterator<Item = u64> {
    let n = scenes as u64;
    (0..n).map(move |k| seed.wrapping_mul(n).wrapping_add(k))
}

/// The runs of `workload`, in the order one repetition drives them.
pub fn runs(workload: Workload, seed: u64, sizes: &Sizes) -> Vec<Run> {
    let run = |exp: Exp, platform: &Platform, snapshot: bool, queries: usize| Run {
        exp,
        launch_span: launch_span(platform),
        snapshot,
        queries: queries as u64,
    };
    let mut out = Vec::new();
    match workload {
        Workload::Nbody3d => {
            for scene in scene_seeds(seed, sizes.scenes) {
                for p in [
                    Platform::BaselineGpu,
                    tta(),
                    ttaplus(NBodyExperiment::uop_programs()),
                ] {
                    let mut e = NBodyExperiment::new(3, sizes.bodies, p.clone());
                    e.seed ^= scene;
                    out.push(run(Exp::NBody(e), &p, false, sizes.bodies));
                }
            }
        }
        Workload::Raytrace => {
            for scene in scene_seeds(seed, sizes.scenes) {
                for p in [rta(), ttaplus(RtExperiment::uop_programs())] {
                    let mut e = RtExperiment::new(RtWorkload::ShipSh, p.clone());
                    e.width = sizes.ship_width;
                    e.height = sizes.ship_height;
                    e.seed ^= scene;
                    let rays = e.width * e.height;
                    out.push(run(Exp::Rt(e), &p, false, rays));
                }
            }
        }
        Workload::Index => {
            for flavor in BTreeFlavor::ALL {
                for p in [
                    Platform::BaselineGpu,
                    tta(),
                    ttaplus(BTreeExperiment::uop_programs()),
                ] {
                    let mut e = BTreeExperiment::new(
                        flavor,
                        sizes.btree_keys,
                        sizes.btree_queries,
                        p.clone(),
                    );
                    e.seed ^= seed;
                    out.push(run(Exp::BTree(e), &p, true, sizes.btree_queries));
                }
            }
            for (p, leaf) in [
                (rta(), LeafPath::Shader),
                (tta(), LeafPath::Offloaded),
                (ttaplus(RtnnExperiment::uop_programs()), LeafPath::Offloaded),
            ] {
                let mut e =
                    RtnnExperiment::new(sizes.rtnn_points, sizes.rtnn_queries, p.clone(), leaf);
                e.seed ^= seed;
                out.push(run(Exp::Rtnn(e), &p, true, sizes.rtnn_queries));
            }
            for p in [
                Platform::BaselineGpu,
                tta(),
                ttaplus(RTreeExperiment::uop_programs()),
            ] {
                let mut e = RTreeExperiment::new(sizes.rtree_rects, sizes.rtree_queries, p.clone());
                e.seed ^= seed;
                out.push(run(Exp::RTree(e), &p, true, sizes.rtree_queries));
            }
        }
        Workload::Fleet => {
            // The fleet grid's 4-device p2c point (see the `fleet` binary):
            // 2·devices + 1 shards with the first one double-replicated, a
            // remote-shard penalty, and the two-tier class mix, at a mean
            // inter-arrival below saturation so nothing is dropped.
            let devices = 4;
            let mut e = FleetExperiment::new(
                ServeWorkload::BTree {
                    flavor: BTreeFlavor::BTree,
                    keys: sizes.fleet_keys,
                    universe: sizes.fleet_universe,
                },
                ServeBackend::Tta,
                devices,
                RouterPolicy::PowerOfTwo,
                BatchPolicy::Continuous { max_warps: 8 },
                sizes.fleet_queries,
                150.0,
            );
            e.shards = ShardSpec {
                shards: 2 * devices + 1,
                replication: 1,
                hot_shards: 1,
                hot_replication: 2,
            };
            e.shard_miss_penalty = 400;
            e.slo = SloConfig::two_tier(20_000, 200_000, 48);
            e.seed ^= seed;
            out.push(Run {
                exp: Exp::Fleet(e),
                launch_span: "serve.run_batch",
                snapshot: false,
                queries: sizes.fleet_queries as u64,
            });
        }
    }
    out
}
