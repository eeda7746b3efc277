//! Each offloading workload's Listing-1 pipeline is the one statement of
//! which test runs where: a small run on TTA and TTA+ issues exactly the
//! tests its declared pipeline configures.
//!
//! On TTA+ the programs that ran are the `program_i` of the declared
//! `Uops` slots, numbered as `TraversalPipeline::test_kinds` numbers them,
//! and no built-in Table III program runs. On TTA the unit pools that ran
//! are the pools of the declared fixed-function tests.

use std::collections::BTreeSet;

use gpu_sim::GpuConfig;
use rta::units::TestKind;
use rta::AccelReport;
use trees::BTreeFlavor;
use tta::backend::TtaConfig;
use tta::pipeline::{AcceleratorGen, ConfigError, TraversalPipeline};
use tta::programs::UopProgram;
use tta::ttaplus::TtaPlusConfig;
use tta_workloads::btree::{BTreeExperiment, BTreeLookups};
use tta_workloads::nbody::{ForceQueries, NBodyExperiment};
use tta_workloads::query::QueryWorkload;
use tta_workloads::rtnn::{LeafPath, RadiusQueries, RtnnExperiment};
use tta_workloads::rtree::{RTreeExperiment, RTreeRanges};
use tta_workloads::runner::Platform;

/// The TTA unit pool a fixed-function test runs on.
fn tta_pool(kind: TestKind) -> &'static str {
    match kind {
        TestKind::RayBox | TestKind::QueryKey => "RayBox/QueryKey",
        TestKind::RayTriangle | TestKind::PointToPoint => "RayTriangle/PointToPoint",
        TestKind::IntersectionShader => "IntersectionShader",
        other => panic!("{other:?} is not a TTA test"),
    }
}

/// Runs `run` on TTA and on TTA+ (registering `programs`) and compares
/// each accelerator report with the pipeline `declare` builds for that
/// platform.
fn assert_runs_as_declared(
    name: &str,
    declare: impl Fn(AcceleratorGen) -> Result<TraversalPipeline, ConfigError>,
    programs: Vec<UopProgram>,
    run: impl Fn(Platform) -> AccelReport,
) {
    let platforms = [
        Platform::Tta(TtaConfig::default_paper()),
        Platform::TtaPlus(TtaPlusConfig::default_paper(), programs),
    ];
    for platform in platforms {
        let gen = platform.generation().unwrap();
        let (inner, leaf) = declare(gen).unwrap().test_kinds();
        let report = run(platform);
        if gen.is_tta_plus() {
            let declared: BTreeSet<String> = [inner, leaf]
                .into_iter()
                .filter_map(|k| match k {
                    TestKind::Program(i) => Some(format!("program_{i}")),
                    _ => None,
                })
                .collect();
            let ran: BTreeSet<String> = report
                .programs
                .iter()
                .filter(|(_, s)| s.invocations > 0)
                .map(|(n, _)| n.clone())
                .collect();
            assert_eq!(ran, declared, "{name} on TTA+: {:?}", report.programs);
            assert!(
                report
                    .programs
                    .iter()
                    .all(|(n, _)| n.starts_with("program_")),
                "{name} on TTA+ ran a built-in program: {:?}",
                report.programs
            );
        } else {
            let declared: BTreeSet<&str> = [tta_pool(inner), tta_pool(leaf)].into();
            let ran: BTreeSet<&str> = report
                .units
                .iter()
                .filter(|(_, s)| s.invocations > 0)
                .map(|(n, _)| n.as_str())
                .collect();
            assert_eq!(ran, declared, "{name} on TTA");
        }
    }
}

#[test]
fn btree_runs_its_declared_pipeline() {
    assert_runs_as_declared(
        "btree",
        BTreeExperiment::pipeline,
        BTreeExperiment::uop_programs(),
        |p| {
            let mut e = BTreeExperiment::new(BTreeFlavor::BTree, 2000, 256, p);
            e.gpu = GpuConfig::small_test();
            e.run().accel.unwrap()
        },
    );
}

#[test]
fn rtnn_runs_its_declared_pipeline_on_both_leaf_paths() {
    for leaf in [LeafPath::Shader, LeafPath::Offloaded] {
        assert_runs_as_declared(
            &format!("rtnn {leaf:?}"),
            |gen| RtnnExperiment::pipeline(gen, leaf),
            RtnnExperiment::uop_programs(),
            |p| {
                let mut e = RtnnExperiment::new(3000, 128, p, leaf);
                e.gpu = GpuConfig::small_test();
                e.run().accel.unwrap()
            },
        );
    }
}

#[test]
fn nbody_runs_its_declared_pipeline() {
    assert_runs_as_declared(
        "nbody",
        NBodyExperiment::pipeline,
        NBodyExperiment::uop_programs(),
        |p| {
            let mut e = NBodyExperiment::new(3, 400, p);
            e.gpu = GpuConfig::small_test();
            e.run().accel.unwrap()
        },
    );
}

#[test]
fn rtree_runs_its_declared_pipeline() {
    assert_runs_as_declared(
        "rtree",
        RTreeExperiment::pipeline,
        RTreeExperiment::uop_programs(),
        |p| {
            let mut e = RTreeExperiment::new(4000, 256, p);
            e.gpu = GpuConfig::small_test();
            e.run().accel.unwrap()
        },
    );
}

#[test]
fn ttaplus_without_sqrt_is_its_own_generation() {
    let mut no_sqrt = TtaPlusConfig::default_paper();
    no_sqrt.with_sqrt = false;
    let rta = rta::RtaConfig::baseline();
    for p in [
        Platform::TtaPlus(no_sqrt.clone(), Vec::new()),
        Platform::TtaPlusWith(rta, no_sqrt, Vec::new()),
    ] {
        assert_eq!(p.generation(), Some(AcceleratorGen::TtaPlusNoSqrt));
    }
    let plus = Platform::TtaPlus(TtaPlusConfig::default_paper(), Vec::new());
    assert_eq!(plus.generation(), Some(AcceleratorGen::TtaPlus));
    assert_eq!(Platform::BaselineGpu.generation(), None);
}

/// A platform that cannot run a workload's pipeline fails when the device
/// opens, with the pipeline builder's reason.
#[test]
#[should_panic(expected = "RTA cannot run this workload: inner test unsupported")]
fn btree_on_the_baseline_rta_fails_at_open_with_the_config_error() {
    let rta = Platform::BaselineRta(rta::RtaConfig::baseline());
    let mut e = BTreeExperiment::new(BTreeFlavor::BTree, 200, 64, rta);
    e.gpu = GpuConfig::small_test();
    e.run();
}

/// A TTA+ platform whose registered μop programs do not start with the
/// workload pipeline's `programs()` would run other programs under the
/// declared ids; it fails when the device opens.
#[test]
#[should_panic(expected = "TTA+ cannot run this workload: its μop programs")]
fn btree_with_another_workloads_programs_fails_at_open() {
    let plus = Platform::TtaPlus(
        TtaPlusConfig::default_paper(),
        NBodyExperiment::uop_programs(),
    );
    let mut e = BTreeExperiment::new(BTreeFlavor::BTree, 200, 64, plus);
    e.gpu = GpuConfig::small_test();
    let _ = e.session(1);
}

/// Each declared `DecodeR` layout is the workload's query record, and each
/// declared node layout fits in one node fetch.
#[test]
fn declared_layouts_match_the_records_and_fetches_the_engine_uses() {
    let fetch = rta::RtaConfig::baseline().node_fetch_bytes as usize;
    for gen in [AcceleratorGen::Tta, AcceleratorGen::TtaPlus] {
        let declared = [
            (BTreeExperiment::pipeline(gen), BTreeLookups::RECORD_SIZE),
            (
                RtnnExperiment::pipeline(gen, LeafPath::Shader),
                RadiusQueries::RECORD_SIZE,
            ),
            (
                RtnnExperiment::pipeline(gen, LeafPath::Offloaded),
                RadiusQueries::RECORD_SIZE,
            ),
            (NBodyExperiment::pipeline(gen), ForceQueries::RECORD_SIZE),
            (RTreeExperiment::pipeline(gen), RTreeRanges::RECORD_SIZE),
        ];
        for (pipeline, record) in declared {
            let p = pipeline.unwrap();
            let name = format!("{} on {gen:?}", p.name());
            assert_eq!(p.ray_layout().total_bytes(), record, "{name}");
            for node in [p.inner_layout(), p.leaf_layout()] {
                assert!(node.total_bytes() <= fetch, "{name}: {node:?}");
            }
        }
    }
}
