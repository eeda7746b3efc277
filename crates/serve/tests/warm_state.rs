//! A warm serving device's accelerator state stays bounded by the
//! configuration, not by how many batches it has served.

use gpu_sim::{GpuConfig, StateBag};
use trees::BTreeFlavor;
use tta_serve::{build_service, ServeBackend, ServeWorkload};

/// Each engine's `inflight` fetch-map size in an exported device state.
fn inflight_counts(state: &StateBag) -> Vec<usize> {
    let accels = state.entry("accels").unwrap().as_list("accels").unwrap();
    accels
        .iter()
        .map(|engine| {
            let engine = engine.as_bag("engine").unwrap();
            let pairs = engine
                .entry("inflight")
                .unwrap()
                .as_list("inflight")
                .unwrap();
            pairs.len() / 2
        })
        .collect()
}

#[test]
fn engine_inflight_map_stays_bounded_over_warm_batches() {
    // Without child prefetching only a ray's last node fetch can complete
    // after its engine's final issue slot, and every engine drains within
    // each launch. So after a batch each engine holds at most one entry per
    // query of that batch, at most the service's `max_batch`, however many
    // batches came before. (An engine that kept every fetch held 162
    // entries after 50 of these batches and more after 100.)
    let max_batch = 4;
    let workload = ServeWorkload::BTree {
        flavor: BTreeFlavor::BTree,
        keys: 2_000,
        universe: 256,
    };
    let inputs = workload.build_inputs(0);
    let mut svc = build_service(
        &workload,
        ServeBackend::Tta,
        &inputs,
        &GpuConfig::default(),
        max_batch,
        false,
    );
    // Batches of 1-4 queries, near the fleet benchmark's 2.1 per launch.
    let k = 50;
    let mut next = 0;
    for batch in 1..=2 * k {
        let size = 1 + batch % max_batch;
        let ids: Vec<usize> = (next..next + size).collect();
        next += size;
        svc.run_batch(&ids);
        if batch % k == 0 {
            let counts = inflight_counts(&svc.export_state());
            assert!(
                counts.iter().all(|&n| n <= size),
                "inflight entries per engine after {batch} batches of up to {max_batch}, \
                 the last of {size}: {counts:?}"
            );
        }
    }
}
