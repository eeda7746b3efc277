//! Differential byte-equality property suite: snapshotting must be
//! observationally invisible.
//!
//! The contract under test, for every workload × platform point: cut a
//! run at a seeded random step, push the exported state through the wire
//! format ([`encode_snapshot`] → [`decode_snapshot`]), restore onto a
//! *fresh* session, run to completion — and both the final exported state
//! bytes and the journal bytes must equal the straight-line run's. The
//! serve and fleet tests assert the same for horizon sharding
//! (`run_sharded`), including across four OS threads, mirroring the
//! 1-vs-N `--threads` determinism contract of the sweep harness.

use fleet::{FleetExperiment, RouterPolicy};
use gpu_sim::GpuConfig;
use harness::journal::journal_json;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serve::{BatchPolicy, ServeBackend, ServeExperiment, ServeWorkload};
use trees::BTreeFlavor;
use tta_snap::{decode_snapshot, encode_snapshot};
use workloads::btree::BTreeExperiment;
use workloads::instanced::InstancedExperiment;
use workloads::lumibench::{RtExperiment, RtWorkload};
use workloads::nbody::NBodyExperiment;
use workloads::rtnn::{LeafPath, RtnnExperiment};
use workloads::rtree::RTreeExperiment;
use workloads::{CacheableExperiment, Platform, RunResult, RunSession};

/// The journal bytes a one-run sweep would write for `result` — the exact
/// artifact the determinism contract is stated over.
fn journal_bytes(result: &RunResult) -> Vec<u8> {
    journal_json("roundtrip", std::slice::from_ref(result)).into_bytes()
}

fn tta() -> Platform {
    Platform::Tta(tta::backend::TtaConfig::default_paper())
}

fn ttaplus(programs: Vec<tta::programs::UopProgram>) -> Platform {
    Platform::TtaPlus(tta::ttaplus::TtaPlusConfig::default_paper(), programs)
}

/// Core property check: for `cuts` seeded random cut points, a run
/// interrupted at the cut, serialized through the wire format, and
/// resumed on a fresh session must finish with byte-identical state and
/// journal to the straight-line run.
fn assert_cuts_invisible(label: &str, make: &dyn Fn() -> Box<dyn RunSession>, cuts: usize) {
    // Straight-line reference.
    let mut straight = make();
    while !straight.done() {
        straight.step();
    }
    let steps = straight.steps_done();
    let final_bytes = encode_snapshot(&straight.export_state());
    let reference = journal_bytes(&straight.finish());

    // Seed the cut points off the label so every point gets a distinct
    // but reproducible sequence.
    let mut rng = StdRng::seed_from_u64(tta_snap::fnv1a_64(label.as_bytes()));
    for _ in 0..cuts {
        let cut = rng.random_range(0..steps + 1);
        let mut first = make();
        for _ in 0..cut {
            first.step();
        }
        let wire = encode_snapshot(&first.export_state());
        let bag = decode_snapshot(&wire).expect("snapshot wire bytes decode");
        let mut resumed = make();
        resumed
            .import_state(&bag)
            .unwrap_or_else(|e| panic!("{label}: snapshot at step {cut} does not restore: {e}"));
        assert_eq!(
            resumed.steps_done(),
            cut,
            "{label}: restored session must resume at the cut step"
        );
        while !resumed.done() {
            resumed.step();
        }
        assert_eq!(
            encode_snapshot(&resumed.export_state()),
            final_bytes,
            "{label}: final state bytes diverge after a cut at step {cut}/{steps}"
        );
        assert_eq!(
            journal_bytes(&resumed.finish()),
            reference,
            "{label}: journal bytes diverge after a cut at step {cut}/{steps}"
        );
    }
}

#[test]
fn btree_cuts_are_invisible_on_every_platform() {
    let platforms = [
        ("simt", Platform::BaselineGpu),
        ("tta", tta()),
        ("ttaplus", ttaplus(BTreeExperiment::uop_programs())),
    ];
    for (name, p) in platforms {
        let make = || {
            let mut e = BTreeExperiment::new(BTreeFlavor::BTree, 800, 96, p.clone());
            e.gpu = GpuConfig::small_test();
            Box::new(e.session(3)) as Box<dyn RunSession>
        };
        assert_cuts_invisible(&format!("btree/{name}"), &make, 2);
    }
}

#[test]
fn rtree_cuts_are_invisible_on_every_platform() {
    let platforms = [
        ("simt", Platform::BaselineGpu),
        ("tta", tta()),
        ("ttaplus", ttaplus(RTreeExperiment::uop_programs())),
    ];
    for (name, p) in platforms {
        let make = || {
            let mut e = RTreeExperiment::new(600, 64, p.clone());
            e.gpu = GpuConfig::small_test();
            Box::new(e.session(3)) as Box<dyn RunSession>
        };
        assert_cuts_invisible(&format!("rtree/{name}"), &make, 2);
    }
}

#[test]
fn rtnn_cuts_are_invisible_on_every_platform() {
    // RTNN has no pure-SIMT baseline; the paper's base point is RTA.
    let platforms = [
        ("rta", Platform::BaselineRta(rta::RtaConfig::baseline())),
        ("tta", tta()),
        ("ttaplus", ttaplus(RtnnExperiment::uop_programs())),
    ];
    for (name, p) in platforms {
        let make = || {
            let mut e = RtnnExperiment::new(600, 64, p.clone(), LeafPath::Shader);
            e.gpu = GpuConfig::small_test();
            Box::new(e.session(3)) as Box<dyn RunSession>
        };
        assert_cuts_invisible(&format!("rtnn/{name}"), &make, 2);
    }
}

#[test]
fn nbody_cuts_are_invisible_on_every_platform() {
    let platforms = [
        ("simt", Platform::BaselineGpu),
        ("tta", tta()),
        ("ttaplus", ttaplus(NBodyExperiment::uop_programs())),
    ];
    for (name, p) in platforms {
        let make = || {
            let mut e = NBodyExperiment::new(3, 192, p.clone());
            e.gpu = GpuConfig::small_test();
            Box::new(e.session()) as Box<dyn RunSession>
        };
        assert_cuts_invisible(&format!("nbody/{name}"), &make, 2);
    }
}

#[test]
fn rt_cuts_are_invisible_on_every_platform() {
    // SIMT ray tracing is triangle-only, which BLOB_PT satisfies.
    let platforms = [
        ("simt", Platform::BaselineGpu),
        ("tta", tta()),
        ("ttaplus", ttaplus(RtExperiment::uop_programs())),
    ];
    for (name, p) in platforms {
        let make = || {
            let mut e = RtExperiment::new(RtWorkload::BlobPt, p.clone());
            e.gpu = GpuConfig::small_test();
            e.width = 32;
            e.height = 24;
            e.detail = 0.05;
            Box::new(e.session()) as Box<dyn RunSession>
        };
        assert_cuts_invisible(&format!("rt/{name}"), &make, 2);
    }
}

#[test]
fn instanced_cuts_are_invisible_on_the_rta_and_ttaplus() {
    // The two-level walk is accelerator-only.
    let platforms = [
        ("rta", Platform::BaselineRta(rta::RtaConfig::baseline())),
        ("ttaplus", ttaplus(Vec::new())),
    ];
    for (name, p) in platforms {
        let make = || {
            let mut e = InstancedExperiment::new(3, p.clone());
            e.gpu = GpuConfig::small_test();
            e.width = 32;
            e.height = 24;
            Box::new(e.session(3)) as Box<dyn RunSession>
        };
        assert_cuts_invisible(&format!("instanced/{name}"), &make, 2);
    }
}

/// A small but real serving point, inputs pre-attached so repeated runs
/// share one tree image (like a sweep through the `InputCache` would).
fn serve_point(backend: ServeBackend) -> ServeExperiment {
    let mut e = ServeExperiment::new(
        ServeWorkload::BTree {
            flavor: BTreeFlavor::BTree,
            keys: 1500,
            universe: 192,
        },
        backend,
        BatchPolicy::SizeTriggered { batch: 12 },
        96,
        110.0,
    );
    e.gpu = GpuConfig::small_test();
    let inputs = e.build_inputs();
    e.set_inputs(std::sync::Arc::new(inputs));
    e
}

#[test]
fn serve_horizon_sharding_is_invisible_on_every_backend() {
    for backend in ServeBackend::ALL {
        let e = serve_point(backend);
        let straight = journal_bytes(&e.run());
        for segments in [1usize, 2, 5] {
            assert_eq!(
                journal_bytes(&e.run_sharded(segments)),
                straight,
                "serve {backend:?}: {segments}-segment sharded journal diverges"
            );
        }
    }
}

fn fleet_point() -> FleetExperiment {
    let mut e = FleetExperiment::new(
        ServeWorkload::BTree {
            flavor: BTreeFlavor::BTree,
            keys: 1500,
            universe: 192,
        },
        ServeBackend::Tta,
        4,
        RouterPolicy::PowerOfTwo,
        BatchPolicy::SizeTriggered { batch: 12 },
        96,
        30.0,
    );
    e.gpu = GpuConfig::small_test();
    let inputs = e.build_inputs();
    e.set_inputs(std::sync::Arc::new(inputs));
    e
}

#[test]
fn fleet_horizon_sharding_is_invisible() {
    let e = fleet_point();
    let straight = journal_bytes(&e.run());
    for segments in [1usize, 3] {
        assert_eq!(
            journal_bytes(&e.run_sharded(segments)),
            straight,
            "fleet: {segments}-segment sharded journal diverges"
        );
    }
}

/// The 1-vs-4-`--threads` shape of the contract: four OS threads each
/// computing the sharded run concurrently must all produce the
/// straight-line journal bytes.
#[test]
fn sharded_journals_agree_across_four_threads() {
    let serve_e = serve_point(ServeBackend::Tta);
    let fleet_e = fleet_point();
    let serve_ref = journal_bytes(&serve_e.run());
    let fleet_ref = journal_bytes(&fleet_e.run());
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..4)
            .map(|_| {
                let (se, fe) = (serve_e.clone(), fleet_e.clone());
                s.spawn(move || {
                    (
                        journal_bytes(&se.run_sharded(3)),
                        journal_bytes(&fe.run_sharded(3)),
                    )
                })
            })
            .collect();
        for w in workers {
            let (sj, fj) = w.join().expect("worker thread panicked");
            assert_eq!(sj, serve_ref, "serve sharded journal diverges on a thread");
            assert_eq!(fj, fleet_ref, "fleet sharded journal diverges on a thread");
        }
    });
}
