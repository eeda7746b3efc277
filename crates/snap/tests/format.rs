//! Wire-format pinning tests: golden snapshot bytes, corruption handling
//! against the on-disk fixture, and the schema-version gate.
//!
//! The fixtures under `tests/fixtures/` are committed artifacts:
//!
//! * `golden.ttasnap` — the encoded bytes of a fixed all-kinds bag. Any
//!   change to the wire format (magic, header layout, tags, checksum)
//!   shows up as a byte diff here.
//! * `schema.fingerprint` — [`SNAP_SCHEMA_VERSION`] plus the
//!   [`schema_fingerprint`] of *real* exported states (a workload
//!   session, a serve session, a fleet session, and sessions on the RTA,
//!   on TTA+ and of the ray-tracing workload). Renaming, adding, or
//!   removing a serialized field changes a fingerprint, and this test
//!   then fails until `SNAP_SCHEMA_VERSION` is bumped — old snapshots
//!   must never decode as a different schema.
//!
//! Refresh both with `UPDATE_GOLDEN=1 cargo test -p tta-snap --test
//! format`. The refresh itself refuses to rewrite changed fingerprints
//! unless the version was bumped too.

use std::path::PathBuf;
use std::sync::Arc;

use fleet::{FleetConfig, FleetExperiment, FleetSession, RouterPolicy};
use serve::{
    build_service, BatchPolicy, BatchService, ServeBackend, ServeConfig, ServeExperiment,
    ServeSession, ServeWorkload,
};
use trees::BTreeFlavor;
use tta_snap::{
    decode_snapshot, encode_snapshot, schema_fingerprint, write_snapshot, SnapError, SnapValue,
    StateBag, SNAP_SCHEMA_VERSION,
};
use workloads::btree::BTreeExperiment;
use workloads::lumibench::{RtExperiment, RtWorkload};
use workloads::rtnn::{LeafPath, RtnnExperiment};
use workloads::{CacheableExperiment, Platform, RunSession};

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn updating() -> bool {
    std::env::var_os("UPDATE_GOLDEN").is_some()
}

/// A fixed bag exercising every [`SnapValue`] kind, including
/// nesting: the golden fixture is its encoding.
fn golden_bag() -> StateBag {
    let mut bag = StateBag::new();
    bag.put("clock", SnapValue::U64(0x0123_4567_89ab_cdef));
    bag.put("theta", SnapValue::U64(0.75f64.to_bits()));
    bag.put(
        "gmem",
        SnapValue::Bytes((0u16..512).map(|b| (b % 251) as u8).collect()),
    );
    bag.put(
        "stamps",
        SnapValue::List((0u64..16).map(|i| SnapValue::U64(i * i)).collect()),
    );
    let mut inner = StateBag::new();
    inner.put("pc", SnapValue::U64(42));
    inner.put("regs", SnapValue::Bytes(vec![0xde, 0xad, 0xbe, 0xef]));
    let mut leaf = StateBag::new();
    leaf.put("depth", SnapValue::U64(2));
    inner.put("nested", SnapValue::Bag(leaf));
    bag.put("core", SnapValue::Bag(inner));
    bag.put(
        "accels",
        SnapValue::List(
            (0..3)
                .map(|i| {
                    let mut a = StateBag::new();
                    a.put("slot", SnapValue::U64(i));
                    SnapValue::Bag(a)
                })
                .collect(),
        ),
    );
    bag
}

#[test]
fn golden_snapshot_bytes_are_pinned() {
    let path = fixture("golden.ttasnap");
    let bag = golden_bag();
    if updating() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        write_snapshot(&path, &bag).expect("write golden fixture");
        return;
    }
    let disk = std::fs::read(&path)
        .expect("golden fixture missing; generate with UPDATE_GOLDEN=1 cargo test -p tta-snap");
    assert_eq!(
        disk,
        encode_snapshot(&bag),
        "wire format drifted from the committed golden fixture; if the \
         change is intentional, bump SNAP_SCHEMA_VERSION and refresh with \
         UPDATE_GOLDEN=1"
    );
    assert_eq!(
        decode_snapshot(&disk).expect("golden fixture decodes"),
        bag,
        "golden fixture must decode back to the original bag"
    );
}

#[test]
fn corrupted_fixture_errors_are_structured() {
    // Corruption handling against the real on-disk artifact (the lib unit
    // tests cover synthetic buffers; this covers the committed bytes).
    let bytes = encode_snapshot(&golden_bag());

    // Truncation at every interesting boundary: header, payload, trailer.
    for cut in [0, 4, 8, 12, 19, 20, bytes.len() / 2, bytes.len() - 1] {
        let err = decode_snapshot(&bytes[..cut]).expect_err("truncated snapshot must error");
        assert!(
            matches!(err, SnapError::Truncated),
            "cut at {cut}: expected Truncated, got {err:?}"
        );
    }

    // Wrong magic.
    let mut bad = bytes.clone();
    bad[0] ^= 0x40;
    assert!(matches!(decode_snapshot(&bad), Err(SnapError::BadMagic)));

    // Wrong version (the version field is bytes 8..12).
    let mut bad = bytes.clone();
    bad[8] = bad[8].wrapping_add(1);
    match decode_snapshot(&bad) {
        Err(SnapError::WrongVersion { found, expected }) => {
            assert_eq!(expected, SNAP_SCHEMA_VERSION);
            assert_ne!(found, SNAP_SCHEMA_VERSION);
        }
        other => panic!("expected WrongVersion, got {other:?}"),
    }

    // A flipped payload bit must be caught (checksum or a structural
    // error on the way there), never silently accepted.
    let mut bad = bytes.clone();
    let mid = 20 + (bytes.len() - 28) / 2;
    bad[mid] ^= 0x01;
    assert!(
        decode_snapshot(&bad).is_err(),
        "payload bit flip at {mid} must not decode"
    );
}

/// A real workload-session export (B-Tree on TTA), small enough to build
/// in a test but carrying the full `gpu`/`parts` schema.
fn workload_state() -> StateBag {
    let mut e = BTreeExperiment::new(
        BTreeFlavor::BTree,
        500,
        64,
        Platform::Tta(tta::backend::TtaConfig::default_paper()),
    );
    e.gpu = gpu_sim::GpuConfig::small_test();
    let mut s = e.session(2);
    s.step();
    s.export_state()
}

fn serve_workload() -> ServeWorkload {
    ServeWorkload::BTree {
        flavor: BTreeFlavor::BTree,
        keys: 500,
        universe: 64,
    }
}

/// A real serve-session export: one warm device mid-stream.
fn serve_state() -> StateBag {
    let mut e = ServeExperiment::new(
        serve_workload(),
        ServeBackend::Tta,
        BatchPolicy::SizeTriggered { batch: 8 },
        32,
        100.0,
    );
    e.gpu = gpu_sim::GpuConfig::small_test();
    let inputs = e.build_inputs();
    let mut svc = build_service(
        &e.workload,
        e.backend,
        &inputs,
        &e.gpu,
        e.policy.max_batch(e.gpu.warp_width),
        e.verify,
    );
    let arrivals = workloads::gen::exponential_arrivals(e.offered, e.arrival_mean_cycles, e.seed);
    let cfg = ServeConfig {
        policy: e.policy.clone(),
        queue_capacity: e.queue_capacity,
        trace: trace::TraceHandle::default(),
    };
    let mut session = ServeSession::new(svc.as_mut(), cfg, arrivals.clone());
    session.run_until(svc.as_mut(), Some(arrivals[arrivals.len() / 2]));
    session.export_state()
}

/// A real fleet-session export: a 2-device cluster mid-stream.
fn fleet_state() -> StateBag {
    let mut e = FleetExperiment::new(
        serve_workload(),
        ServeBackend::Tta,
        2,
        RouterPolicy::PowerOfTwo,
        BatchPolicy::SizeTriggered { batch: 8 },
        32,
        50.0,
    );
    e.gpu = gpu_sim::GpuConfig::small_test();
    let inputs = Arc::new(e.build_inputs());
    let max_batch = e.policy.max_batch(e.gpu.warp_width);
    let mut services: Vec<Box<dyn BatchService>> = (0..e.devices)
        .map(|_| build_service(&e.workload, e.backend, &inputs, &e.gpu, max_batch, e.verify))
        .collect();
    let arrivals = workloads::gen::exponential_arrivals(e.offered, e.arrival_mean_cycles, e.seed);
    let classes = workloads::gen::class_assignments(e.offered, &e.slo.weights(), e.seed);
    let cfg = FleetConfig {
        policy: e.policy.clone(),
        router: e.router,
        router_seed: e.seed,
        queue_capacity: e.queue_capacity,
        shards: e.shards.clone(),
        shard_miss_penalty: e.shard_miss_penalty,
        slo: e.slo.clone(),
        autoscale: e.autoscale.clone(),
        trace: trace::TraceHandle::default(),
    };
    let mut session = FleetSession::new(&mut services, cfg, arrivals.clone(), classes);
    session.run_until(&mut services, Some(arrivals[arrivals.len() / 2]));
    session.export_state()
}

/// A session export after its first step: the layouts of whatever the
/// platform attaches (RTA engine and units, TTA+ backend) plus any
/// session-specific entries.
fn stepped_state(mut s: Box<dyn RunSession>) -> StateBag {
    s.step();
    s.export_state()
}

/// RTNN on the baseline RTA: the traversal engine and fixed-function
/// unit layouts.
fn rta_state() -> StateBag {
    let mut e = RtnnExperiment::new(
        600,
        64,
        Platform::BaselineRta(rta::RtaConfig::baseline()),
        LeafPath::Shader,
    );
    e.gpu = gpu_sim::GpuConfig::small_test();
    stepped_state(Box::new(e.session(2)))
}

/// RTNN on TTA+: OP-unit pools, crossbar, custom and builtin program
/// rows.
fn ttaplus_state() -> StateBag {
    let mut e = RtnnExperiment::new(
        600,
        64,
        Platform::TtaPlus(
            tta::ttaplus::TtaPlusConfig::default_paper(),
            RtnnExperiment::uop_programs(),
        ),
        LeafPath::Shader,
    );
    e.gpu = gpu_sim::GpuConfig::small_test();
    stepped_state(Box::new(e.session(2)))
}

/// A ray-tracing session after its primary pass: the surfel blob.
fn rt_state() -> StateBag {
    let mut e = RtExperiment::new(
        RtWorkload::BlobPt,
        Platform::TtaPlus(
            tta::ttaplus::TtaPlusConfig::default_paper(),
            RtExperiment::uop_programs(),
        ),
    );
    e.gpu = gpu_sim::GpuConfig::small_test();
    e.width = 32;
    e.height = 24;
    e.detail = 0.05;
    let bag = stepped_state(Box::new(e.session()));
    assert!(bag.get("surfels").is_some(), "primary pass exports surfels");
    bag
}

/// The named fingerprints the fixture pins, in file order.
fn current_fingerprints() -> Vec<(&'static str, u64)> {
    vec![
        ("workload", schema_fingerprint(&workload_state())),
        ("serve", schema_fingerprint(&serve_state())),
        ("fleet", schema_fingerprint(&fleet_state())),
        ("rta", schema_fingerprint(&rta_state())),
        ("ttaplus", schema_fingerprint(&ttaplus_state())),
        ("rt", schema_fingerprint(&rt_state())),
    ]
}

fn render_fingerprints(rows: &[(&str, u64)]) -> String {
    let mut out = format!("version {SNAP_SCHEMA_VERSION}\n");
    for (name, fp) in rows {
        out.push_str(&format!("{name} {fp:016x}\n"));
    }
    out
}

#[test]
fn serialized_schemas_require_a_version_bump_to_change() {
    let path = fixture("schema.fingerprint");
    let current = current_fingerprints();
    let rendered = render_fingerprints(&current);
    let disk = std::fs::read_to_string(&path).ok();

    if updating() {
        if let Some(old) = &disk {
            let old_version = old
                .lines()
                .next()
                .and_then(|l| l.strip_prefix("version "))
                .and_then(|v| v.parse::<u32>().ok())
                .expect("fixture first line is `version <n>`");
            assert!(
                !(old_version == SNAP_SCHEMA_VERSION && *old != rendered),
                "refusing to refresh schema.fingerprint: the serialized \
                 schema changed but SNAP_SCHEMA_VERSION is still \
                 {SNAP_SCHEMA_VERSION}. Bump SNAP_SCHEMA_VERSION in \
                 crates/snap/src/lib.rs first, then rerun with \
                 UPDATE_GOLDEN=1."
            );
        }
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, rendered).expect("write schema fixture");
        return;
    }

    let disk =
        disk.expect("schema fixture missing; generate with UPDATE_GOLDEN=1 cargo test -p tta-snap");
    assert_eq!(
        disk, rendered,
        "a serialized state schema changed without a SNAP_SCHEMA_VERSION \
         bump. Old snapshots would decode against the wrong layout: bump \
         SNAP_SCHEMA_VERSION in crates/snap/src/lib.rs, then refresh the \
         fixture with UPDATE_GOLDEN=1 cargo test -p tta-snap --test format."
    );
}
